// Reference κ(u,v) and λ(u,v) for tests: brute force by definition, and a
// plain one-pair Dinic run for λ. The production sweep
// (flow/connectivity_sweep.h) seeds disjoint paths, caps flows at the
// degree bound and reuses witnesses; these oracles do none of that, so a
// match is an independent check of every shortcut.
#ifndef KADSIM_TESTS_CONNECTIVITY_ORACLES_H
#define KADSIM_TESTS_CONNECTIVITY_ORACLES_H

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "flow/dinic.h"
#include "flow/edge_connectivity.h"
#include "flow/flow_network.h"
#include "flow/flow_workspace.h"
#include "graph/digraph.h"
#include "util/assert.h"

namespace kadsim::test_support {

/// λ(u,v) on a caller-supplied network (`net` must be
/// flow::unit_capacity_network(g)) and workspace: one uncapped Dinic run
/// after a touched-arc reset, so many pairs share one network.
inline int pair_edge_connectivity(const graph::Digraph& g, const flow::FlowNetwork& net,
                                  flow::FlowWorkspace& workspace, int u, int v) {
    KADSIM_ASSERT(u != v);
    KADSIM_ASSERT(net.vertex_count() == g.vertex_count());
    KADSIM_ASSERT(&workspace.network() == &net);
    workspace.reset();
    flow::Dinic dinic;
    return dinic.max_flow(workspace, u, v);
}

/// λ(u,v) for one ordered pair on a fresh unit-capacity network.
inline int pair_edge_connectivity(const graph::Digraph& g, int u, int v) {
    const flow::FlowNetwork net = flow::unit_capacity_network(g);
    flow::FlowWorkspace workspace(net);
    return pair_edge_connectivity(g, net, workspace, u, v);
}

namespace detail {

/// Advances `pick` (ascending indices into [0, universe)) to the next
/// combination of its size; false once every combination was visited.
inline bool next_combination(std::vector<int>& pick, int universe) {
    const int size = static_cast<int>(pick.size());
    int pos = size - 1;
    while (pos >= 0 && pick[static_cast<std::size_t>(pos)] == universe - size + pos) {
        --pos;
    }
    if (pos < 0) return false;
    ++pick[static_cast<std::size_t>(pos)];
    for (int j = pos + 1; j < size; ++j) {
        pick[static_cast<std::size_t>(j)] = pick[static_cast<std::size_t>(j - 1)] + 1;
    }
    return true;
}

/// v→w reachability avoiding the `removed` vertices (v and w never are).
inline bool path_exists_avoiding(const graph::Digraph& g, int v, int w,
                                 const std::vector<bool>& removed) {
    std::vector<int> queue{v};
    std::vector<bool> seen(static_cast<std::size_t>(g.vertex_count()), false);
    seen[static_cast<std::size_t>(v)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const int u = queue[head];
        for (const int x : g.out(u)) {
            if (x == w) return true;
            const auto xs = static_cast<std::size_t>(x);
            if (seen[xs] || removed[xs]) continue;
            seen[xs] = true;
            queue.push_back(x);
        }
    }
    return false;
}

/// u→v reachability using only edges whose global CSR index is not removed.
inline bool path_exists_avoiding_edges(const graph::Digraph& g, int u, int v,
                                       const std::vector<bool>& removed_edge) {
    std::vector<int> queue{u};
    std::vector<bool> seen(static_cast<std::size_t>(g.vertex_count()), false);
    seen[static_cast<std::size_t>(u)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const int x = queue[head];
        const auto out = g.out(x);
        const auto offset = static_cast<std::size_t>(g.edge_offset(x));
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (removed_edge[offset + i]) continue;
            const int y = out[i];
            if (y == v) return true;
            const auto ys = static_cast<std::size_t>(y);
            if (seen[ys]) continue;
            seen[ys] = true;
            queue.push_back(y);
        }
    }
    return false;
}

}  // namespace detail

/// Brute-force κ(v,w) by definition: the smallest set of other vertices whose
/// removal cuts every path v→w (exponential; tiny non-adjacent pairs only).
inline int pair_vertex_connectivity_bruteforce(const graph::Digraph& g, int v, int w) {
    KADSIM_ASSERT(v != w && !g.has_edge(v, w));
    const int n = g.vertex_count();
    std::vector<int> others;
    for (int x = 0; x < n; ++x) {
        if (x != v && x != w) others.push_back(x);
    }
    const auto universe = static_cast<int>(others.size());
    for (int size = 0; size <= universe; ++size) {
        std::vector<int> pick(static_cast<std::size_t>(size));
        std::iota(pick.begin(), pick.end(), 0);
        do {
            std::vector<bool> removed(static_cast<std::size_t>(n), false);
            for (const int i : pick) {
                removed[static_cast<std::size_t>(others[static_cast<std::size_t>(i)])] =
                    true;
            }
            if (!detail::path_exists_avoiding(g, v, w, removed)) return size;
        } while (detail::next_combination(pick, universe));
    }
    return universe;
}

/// Brute-force λ(u,v) by definition: the smallest set of edges whose removal
/// cuts every path u→v. λ(u,v) ≤ out_degree(u) (removing every out-edge of
/// u always works), which keeps the enumeration tiny on oracle graphs.
inline int pair_edge_connectivity_bruteforce(const graph::Digraph& g, int u, int v) {
    KADSIM_ASSERT(u != v);
    const auto m = static_cast<int>(g.edge_count());
    const int cap = std::min(g.out_degree(u), m);
    for (int size = 0; size <= cap; ++size) {
        std::vector<int> pick(static_cast<std::size_t>(size));
        std::iota(pick.begin(), pick.end(), 0);
        do {
            std::vector<bool> removed(static_cast<std::size_t>(m), false);
            for (const int i : pick) removed[static_cast<std::size_t>(i)] = true;
            if (!detail::path_exists_avoiding_edges(g, u, v, removed)) return size;
        } while (detail::next_combination(pick, m));
    }
    return cap;
}

}  // namespace kadsim::test_support

#endif  // KADSIM_TESTS_CONNECTIVITY_ORACLES_H
