// Snapshot-delta analysis: cross-snapshot reuse of settled κ/λ pairs.
//
// Consecutive routing snapshots of a churning overlay differ in a handful
// of nodes, yet the full sweep re-pays every sampled max flow. This cache
// closes that gap with *witness revalidation* instead of dependency
// tracking: every pair the kernels settle is stored — keyed by the
// endpoints' stable overlay addresses — together with a two-sided witness
// (pair_reuse.h): f disjoint paths proving value ≥ f and a size-f cut
// proving value ≤ f. On a later snapshot the pair is reused iff every
// witness path still exists edge-for-edge AND the cut still separates the
// endpoints — both checked against the *current* graph, so a hit re-proves
// value = f outright, independent of how the degree bounds have drifted
// since the value was computed. Churn inside either witness half — a
// departed node, a dropped routing-table edge, a fresh edge that routes
// around the cut — fails revalidation and forces a recompute. Reuse can
// therefore never change a reported value, only skip work; the delta-on
// and delta-off series are bit-identical by construction, and
// tests/test_incremental_analysis.cpp pins exactly that.
//
// Lifecycle per snapshot (single analysis in flight at a time):
//
//   cache.begin_snapshot(snapshot, graph);   // rebind address maps, prune
//   flow::connectivity_sweep(graph, options with reuse = cache.kappa_hook(),
//                            cache.lambda_hook());  // lanes race here
//   cache.end_snapshot();                    // commit this sweep's stores
//
// During the sweep, lookups read only the committed (frozen) store and
// stores append to a mutex-guarded pending buffer, so concurrent lanes —
// and the sweep's κ and λ passes — never observe each other's stores:
// results stay bit-identical for any thread count. λ offers the hook only
// the pairs it runs its own flow for; a pair settled from κ at the degree
// bound is neither looked up nor stored on the λ side.
#ifndef KADSIM_ANALYSIS_INCREMENTAL_H
#define KADSIM_ANALYSIS_INCREMENTAL_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/pair_reuse.h"
#include "graph/digraph.h"
#include "graph/snapshot.h"

namespace kadsim::analysis {

/// Cumulative reuse accounting across the cache's lifetime.
struct DeltaStats {
    std::uint64_t lookups = 0;   ///< pairs offered for reuse
    std::uint64_t hits = 0;      ///< pairs settled from a stored witness
    std::uint64_t stores = 0;    ///< settled pairs recorded
    std::uint64_t entries = 0;   ///< live committed entries right now
};

class SnapshotDeltaCache;

namespace detail {

/// One connectivity metric's witness store (κ and λ have independent
/// witness semantics, so the delta cache owns one of these per metric).
class PairCache final : public flow::PairReuseHook {
public:
    [[nodiscard]] int lookup(int u, int v) override;
    void store(int u, int v, int value, std::span<const int> witness,
               std::span<const int> path_offsets,
               std::span<const int> cut) override;

private:
    friend class ::kadsim::analysis::SnapshotDeltaCache;

    struct Entry {
        int value = 0;
        /// Interior vertices of every witness path, as overlay addresses,
        /// delimited by `offsets` (pair_reuse.h layout).
        std::vector<std::uint32_t> nodes;
        std::vector<std::int32_t> offsets;
        /// The separating set, as overlay addresses: `value` vertices (κ)
        /// or `value` flattened (tail, head) pairs (λ).
        std::vector<std::uint32_t> cut;
    };

    /// λ cuts are edge lists ((tail, head) address pairs), κ cuts vertex
    /// lists; set once by SnapshotDeltaCache.
    bool edge_cut = false;

    // Sweep-frozen context, rebound by SnapshotDeltaCache::begin_snapshot.
    const graph::Digraph* graph = nullptr;
    const std::vector<std::uint32_t>* id_to_addr = nullptr;
    const std::vector<std::int32_t>* addr_to_id = nullptr;

    std::unordered_map<std::uint64_t, Entry> committed;
    std::mutex pending_mutex;
    std::vector<std::pair<std::uint64_t, Entry>> pending;  // guarded by mutex
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> stores{0};
};

}  // namespace detail

class SnapshotDeltaCache {
public:
    SnapshotDeltaCache() { lambda_.edge_cut = true; }

    /// Rebinds the cache to the next snapshot in the series: `graph` must be
    /// `snapshot.to_digraph()` (vertex i ⇔ snapshot.nodes[i]), and must stay
    /// alive until end_snapshot(). Prunes committed entries whose endpoints
    /// left the network. Snapshots must be presented in series order — that
    /// is what makes the reuse rate track the inter-snapshot churn.
    void begin_snapshot(const graph::RoutingSnapshot& snapshot,
                        const graph::Digraph& graph);

    /// Reuse hooks for the κ / λ kernels of the current snapshot. Valid
    /// between begin_snapshot and end_snapshot; both may be used
    /// concurrently.
    [[nodiscard]] flow::PairReuseHook* kappa_hook() { return &kappa_; }
    [[nodiscard]] flow::PairReuseHook* lambda_hook() { return &lambda_; }

    /// Commits this snapshot's stores so the *next* snapshot can reuse them.
    void end_snapshot();

    [[nodiscard]] DeltaStats kappa_stats() const;
    [[nodiscard]] DeltaStats lambda_stats() const;

private:
    void bind(detail::PairCache& cache) const;
    [[nodiscard]] static DeltaStats stats_of(const detail::PairCache& cache);

    detail::PairCache kappa_;
    detail::PairCache lambda_;
    std::vector<std::uint32_t> id_to_addr_;
    std::vector<std::int32_t> addr_to_id_;  // -1 = not live in this snapshot
};

}  // namespace kadsim::analysis

#endif  // KADSIM_ANALYSIS_INCREMENTAL_H
