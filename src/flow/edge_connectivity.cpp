#include "flow/edge_connectivity.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "flow/dinic.h"
#include "util/assert.h"

namespace kadsim::flow {

FlowNetwork unit_capacity_network(const graph::Digraph& g) {
    KADSIM_ASSERT(g.edge_count() <= std::numeric_limits<int>::max() / 2);
    FlowNetwork net(g.vertex_count());
    net.reserve(static_cast<std::size_t>(g.edge_count()));
    for (int u = 0; u < g.vertex_count(); ++u) {
        for (const int v : g.out(u)) net.add_arc(u, v, 1);
    }
    net.finalize();
    return net;
}

int pair_edge_connectivity(const graph::Digraph& g, int u, int v) {
    const FlowNetwork net = unit_capacity_network(g);
    FlowWorkspace workspace(net);
    return pair_edge_connectivity(g, net, workspace, u, v);
}

int pair_edge_connectivity(const graph::Digraph& g, const FlowNetwork& net,
                           FlowWorkspace& workspace, int u, int v) {
    KADSIM_ASSERT(u != v);
    KADSIM_ASSERT(net.vertex_count() == g.vertex_count());
    KADSIM_ASSERT(&workspace.network() == &net);
    workspace.reset();
    Dinic dinic;
    return dinic.max_flow(workspace, u, v);
}

namespace {

/// u→v reachability using only edges whose global CSR index is not removed.
bool path_exists_avoiding_edges(const graph::Digraph& g, int u, int v,
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

}  // namespace

int pair_edge_connectivity_bruteforce(const graph::Digraph& g, int u, int v) {
    KADSIM_ASSERT(u != v);
    const auto m = static_cast<int>(g.edge_count());
    // Smallest set of edges (by global CSR index) whose removal disconnects
    // u from v, found by combination walking over subset sizes. λ(u,v) is
    // capped by out_degree(u) — removing every out-edge of u always works —
    // which keeps the enumeration tiny on oracle graphs.
    const int cap = std::min(g.out_degree(u), m);
    for (int size = 0; size <= cap; ++size) {
        std::vector<int> pick(static_cast<std::size_t>(size));
        std::iota(pick.begin(), pick.end(), 0);
        while (true) {
            std::vector<bool> removed(static_cast<std::size_t>(m), false);
            for (const int i : pick) removed[static_cast<std::size_t>(i)] = true;
            if (!path_exists_avoiding_edges(g, u, v, removed)) return size;

            // Next combination.
            int pos = size - 1;
            while (pos >= 0 && pick[static_cast<std::size_t>(pos)] == m - size + pos) {
                --pos;
            }
            if (pos < 0) break;
            ++pick[static_cast<std::size_t>(pos)];
            for (int j = pos + 1; j < size; ++j) {
                pick[static_cast<std::size_t>(j)] =
                    pick[static_cast<std::size_t>(j - 1)] + 1;
            }
        }
    }
    return cap;
}

}  // namespace kadsim::flow
