// Shared fixtures of the κ/λ sweep tests: a Kademlia-like random digraph
// and a deterministic pair-reuse hook that records what a sweep stores.
#ifndef KADSIM_TESTS_SWEEP_FIXTURES_H
#define KADSIM_TESTS_SWEEP_FIXTURES_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "flow/pair_reuse.h"
#include "graph/digraph.h"
#include "util/rng.h"

namespace kadsim::test_support {

/// Kademlia-like connectivity graph: target out-degree `deg`, mostly
/// reciprocated edges (same shape as the micro-bench generator).
inline graph::Digraph kademlia_like_graph(int n, int deg, std::uint64_t seed) {
    util::Rng rng(seed);
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int j = 0; j < deg; ++j) {
            const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (v == u) continue;
            g.add_edge(u, v);
            if (rng.next_bool(0.9)) g.add_edge(v, u);
        }
    }
    g.finalize();
    return g;
}

/// Answers lookups from a fixed (u, v) → value table, which stays frozen
/// for the sweep as the hook contract requires, and records every store
/// under a lock so runs on different lane counts can be compared.
class TableReuseHook final : public flow::PairReuseHook {
public:
    struct Stored {
        int u = 0;
        int v = 0;
        int value = 0;
        std::vector<int> witness;
        std::vector<int> offsets;
        std::vector<int> cut;
        bool operator==(const Stored&) const = default;
    };

    explicit TableReuseHook(std::map<std::pair<int, int>, int> table = {})
        : table_(std::move(table)) {}

    [[nodiscard]] int lookup(int u, int v) override {
        const auto it = table_.find({u, v});
        return it == table_.end() ? -1 : it->second;
    }

    void store(int u, int v, int value, std::span<const int> witness,
               std::span<const int> path_offsets,
               std::span<const int> cut) override {
        Stored s{u, v, value, {witness.begin(), witness.end()},
                 {path_offsets.begin(), path_offsets.end()}, {cut.begin(), cut.end()}};
        const std::lock_guard<std::mutex> guard(mutex_);
        stored_.push_back(std::move(s));
    }

    /// Every store so far, in (u, v) order.
    [[nodiscard]] std::vector<Stored> sorted_stores() const {
        std::vector<Stored> sorted = stored_;
        std::sort(sorted.begin(), sorted.end(), [](const Stored& a, const Stored& b) {
            return std::pair(a.u, a.v) < std::pair(b.u, b.v);
        });
        return sorted;
    }

    /// A table answering every third stored pair (by u + v), for a follow-up
    /// sweep that mixes reused and recomputed pairs.
    [[nodiscard]] std::map<std::pair<int, int>, int> every_third_store() const {
        std::map<std::pair<int, int>, int> table;
        for (const Stored& s : stored_) {
            if ((s.u + s.v) % 3 == 0) table[{s.u, s.v}] = s.value;
        }
        return table;
    }

private:
    const std::map<std::pair<int, int>, int> table_;
    std::mutex mutex_;
    std::vector<Stored> stored_;
};

}  // namespace kadsim::test_support

#endif  // KADSIM_TESTS_SWEEP_FIXTURES_H
