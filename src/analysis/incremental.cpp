#include "analysis/incremental.h"

#include <algorithm>

#include "util/assert.h"

namespace kadsim::analysis {

namespace detail {

namespace {

std::uint64_t pair_key(std::uint32_t src, std::uint32_t dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// Per-thread stamp of out(u), for testing every witness path's first edge
/// without a binary search; epoch-stamped, so no O(n) clear per lookup.
/// Thread-local because lookups race from every flow worker.
struct LookupScratch {
    std::vector<std::uint64_t> out_stamp;
    std::uint64_t epoch = 0;
};

thread_local LookupScratch tls_scratch;

}  // namespace

int PairCache::lookup(int u, int v) {
    lookups.fetch_add(1, std::memory_order_relaxed);
    const auto& addr = *id_to_addr;
    const auto it = committed.find(pair_key(addr[static_cast<std::size_t>(u)],
                                            addr[static_cast<std::size_t>(v)]));
    if (it == committed.end()) return -1;
    const Entry& entry = it->second;
    const graph::Digraph& g = *graph;
    // Value ≤ f: u's out-row is a size-f cut only while out°(u) is still f.
    // This one integer refuses most stale entries before any path is read.
    if (g.out_degree(u) != entry.value) return -1;
    // Value ≥ f: every witness path must exist edge-for-edge in the current
    // graph. Interior vertices are stored as overlay addresses: a departed
    // node fails the address map, an evicted routing-table entry fails the
    // edge test. Path vertex sets are unchanged, so the paths are still
    // pairwise disjoint. Edges leaving u — every path's first edge — are
    // tested against a stamp of out(u) instead of a binary search.
    const auto& to_id = *addr_to_id;
    LookupScratch& s = tls_scratch;
    const auto n = static_cast<std::size_t>(g.vertex_count());
    if (s.out_stamp.size() < n) s.out_stamp.resize(n, 0);
    const std::uint64_t epoch = ++s.epoch;
    for (const int w : g.out(u)) s.out_stamp[static_cast<std::size_t>(w)] = epoch;
    const auto has_edge = [&](int x, int y) {
        return x == u ? s.out_stamp[static_cast<std::size_t>(y)] == epoch
                      : g.has_edge(x, y);
    };
    for (std::size_t p = 0; p + 1 < entry.offsets.size(); ++p) {
        int prev = u;
        for (auto i = static_cast<std::size_t>(entry.offsets[p]);
             i < static_cast<std::size_t>(entry.offsets[p + 1]); ++i) {
            const std::uint32_t a = entry.nodes[i];
            if (a >= to_id.size() || to_id[a] < 0) return -1;
            const int w = to_id[a];
            if (!has_edge(prev, w)) return -1;
            prev = w;
        }
        if (!has_edge(prev, v)) return -1;
    }
    hits.fetch_add(1, std::memory_order_relaxed);
    return entry.value;
}

void PairCache::store(int u, int v, int value, std::span<const int> witness,
                      std::span<const int> path_offsets) {
    const auto& addr = *id_to_addr;
    Entry entry;
    entry.value = value;
    entry.nodes.reserve(witness.size());
    for (const int w : witness) {
        entry.nodes.push_back(addr[static_cast<std::size_t>(w)]);
    }
    entry.offsets.assign(path_offsets.begin(), path_offsets.end());
    const std::uint64_t key = pair_key(addr[static_cast<std::size_t>(u)],
                                       addr[static_cast<std::size_t>(v)]);
    stores.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> guard(pending_mutex);
    pending.emplace_back(key, std::move(entry));
}

}  // namespace detail

void SnapshotDeltaCache::begin_snapshot(const graph::RoutingSnapshot& snapshot,
                                        const graph::Digraph& graph) {
    KADSIM_ASSERT(static_cast<std::size_t>(graph.vertex_count()) ==
                  snapshot.nodes.size());
    id_to_addr_.clear();
    id_to_addr_.reserve(snapshot.nodes.size());
    std::uint32_t max_addr = 0;
    for (const auto& node : snapshot.nodes) {
        id_to_addr_.push_back(node.address);
        max_addr = std::max(max_addr, node.address);
    }
    addr_to_id_.assign(static_cast<std::size_t>(max_addr) + 1, -1);
    for (std::size_t i = 0; i < id_to_addr_.size(); ++i) {
        addr_to_id_[id_to_addr_[i]] = static_cast<std::int32_t>(i);
    }
    kappa_.graph = &graph;
    lambda_.graph = &graph;
    bind(kappa_);
    bind(lambda_);

    // Drop entries whose endpoints left the network — they can never
    // revalidate again, and pruning here keeps the store proportional to
    // the live pair sample instead of growing with total churn.
    for (auto* cache : {&kappa_, &lambda_}) {
        std::erase_if(cache->committed, [this](const auto& kv) {
            const auto src = static_cast<std::uint32_t>(kv.first >> 32);
            const auto dst = static_cast<std::uint32_t>(kv.first);
            return src >= addr_to_id_.size() || addr_to_id_[src] < 0 ||
                   dst >= addr_to_id_.size() || addr_to_id_[dst] < 0;
        });
    }
}

void SnapshotDeltaCache::end_snapshot() {
    for (auto* cache : {&kappa_, &lambda_}) {
        // No lock needed: the sweeps have joined before end_snapshot.
        for (auto& [key, entry] : cache->pending) {
            cache->committed[key] = std::move(entry);
        }
        cache->pending.clear();
    }
}

void SnapshotDeltaCache::bind(detail::PairCache& cache) const {
    cache.id_to_addr = &id_to_addr_;
    cache.addr_to_id = &addr_to_id_;
}

DeltaStats SnapshotDeltaCache::stats_of(const detail::PairCache& cache) {
    DeltaStats stats;
    stats.lookups = cache.lookups.load(std::memory_order_relaxed);
    stats.hits = cache.hits.load(std::memory_order_relaxed);
    stats.stores = cache.stores.load(std::memory_order_relaxed);
    stats.entries = cache.committed.size();
    return stats;
}

DeltaStats SnapshotDeltaCache::kappa_stats() const { return stats_of(kappa_); }
DeltaStats SnapshotDeltaCache::lambda_stats() const { return stats_of(lambda_); }

}  // namespace kadsim::analysis
