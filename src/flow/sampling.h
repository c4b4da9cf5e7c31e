// Source sampling shared by the connectivity kernels (paper §5.2).
//
// Both κ (vertex) and λ (edge) connectivity are minima over ordered vertex
// pairs, and both are bounded above by the source's out-degree — so the same
// reduction applies: evaluate only the c·n vertices with the smallest
// out-degree as sources (against all sinks), and the weakest vertices pin
// the minimum. The selection is deterministic (ties by index), which the
// golden-series tests rely on. The κ/λ sweep (flow/connectivity_sweep.h)
// splits its work into the (source, sink block) items defined here.
#ifndef KADSIM_FLOW_SAMPLING_H
#define KADSIM_FLOW_SAMPLING_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "graph/digraph.h"

namespace kadsim::flow {

/// The c·n vertices with the smallest out-degree (ties by index, so the
/// choice is deterministic), ordered ascending by (out-degree, index).
/// fraction >= 1 returns every vertex in index order.
inline std::vector<int> pick_smallest_out_degree_sources(const graph::Digraph& g,
                                                         double fraction,
                                                         int min_sources) {
    const int n = g.vertex_count();
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    if (fraction >= 1.0) return order;

    // The floor is capped at n: with min_sources > n, std::clamp's lower
    // bound would exceed its upper one (undefined behaviour).
    const auto want = static_cast<std::size_t>(
        std::clamp<long long>(static_cast<long long>(std::ceil(fraction * n)),
                              std::min(std::max(1, min_sources), n), n));
    // (out-degree, index) is a strict total order, so selecting the `want`
    // smallest and then ordering that prefix reproduces the stable-sort
    // result exactly — without paying O(n log n) for the ~98% of vertices
    // the sampling never uses.
    const auto by_degree_then_index = [&g](int a, int b) {
        const int da = g.out_degree(a);
        const int db = g.out_degree(b);
        return da != db ? da < db : a < b;
    };
    if (want < order.size()) {
        std::nth_element(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(want),
                         order.end(), by_degree_then_index);
        order.resize(want);
    }
    std::sort(order.begin(), order.end(), by_degree_then_index);
    return order;
}

/// Sinks per work item of a sampled sweep. A c = 0.02 sample of a few
/// hundred vertices has only a handful of sources, too few to keep a pool
/// busy, so the sweeps hand out (source, sink block) items instead of whole
/// sources. A fixed constant: 64 pairs of flow dwarf the per-item set-up.
inline constexpr int kSinkBlock = 64;

/// One work item: `source` against the sinks [v_lo, v_hi).
struct SinkBlock {
    int source = 0;
    int v_lo = 0;
    int v_hi = 0;
};

/// The work items of a sweep over `sources` × all n sinks. With
/// B = ⌈n / kSinkBlock⌉ blocks per source, item i is source sources[i / B]
/// against sinks [(i % B)·kSinkBlock, min(n, (i % B + 1)·kSinkBlock)), so
/// walking the items in index order visits the source-major pair order of
/// the plain nested loop.
class SinkBlocks {
public:
    SinkBlocks(const std::vector<int>& sources, int n)
        : sources_(sources),
          n_(n),
          per_source_(static_cast<std::size_t>((n + kSinkBlock - 1) / kSinkBlock)) {}

    [[nodiscard]] std::size_t size() const noexcept {
        return sources_.size() * per_source_;
    }

    [[nodiscard]] SinkBlock operator[](std::size_t i) const {
        const int v_lo = static_cast<int>(i % per_source_) * kSinkBlock;
        return {sources_[i / per_source_], v_lo, std::min(n_, v_lo + kSinkBlock)};
    }

private:
    const std::vector<int>& sources_;
    int n_;
    std::size_t per_source_;
};

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_SAMPLING_H
