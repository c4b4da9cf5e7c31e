#include "flow/vertex_connectivity.h"

#include <numeric>
#include <vector>

#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "util/assert.h"

namespace kadsim::flow {

int pair_vertex_connectivity(const graph::Digraph& g, int v, int w) {
    const FlowNetwork net = even_transform(g);
    FlowWorkspace workspace(net);
    return pair_vertex_connectivity(g, net, workspace, v, w);
}

int pair_vertex_connectivity(const graph::Digraph& g, const FlowNetwork& even_net,
                             FlowWorkspace& workspace, int v, int w) {
    KADSIM_ASSERT(v != w);
    KADSIM_ASSERT_MSG(!g.has_edge(v, w),
                      "vertex connectivity is defined for non-adjacent pairs");
    KADSIM_ASSERT(even_net.vertex_count() == 2 * g.vertex_count());
    KADSIM_ASSERT(&workspace.network() == &even_net);
    workspace.reset();
    Dinic dinic;
    return dinic.max_flow(workspace, out_vertex(v), in_vertex(w));
}

namespace {

bool path_exists_avoiding(const graph::Digraph& g, int v, int w,
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

}  // namespace

int pair_vertex_connectivity_bruteforce(const graph::Digraph& g, int v, int w) {
    KADSIM_ASSERT(v != w && !g.has_edge(v, w));
    const int n = g.vertex_count();
    std::vector<int> others;
    for (int x = 0; x < n; ++x) {
        if (x != v && x != w) others.push_back(x);
    }
    // Smallest subset of `others` whose removal disconnects v from w.
    for (int size = 0; size <= static_cast<int>(others.size()); ++size) {
        // Enumerate subsets of exactly `size` via combination walking.
        std::vector<int> pick(static_cast<std::size_t>(size));
        std::iota(pick.begin(), pick.end(), 0);
        while (true) {
            std::vector<bool> removed(static_cast<std::size_t>(n), false);
            for (const int i : pick) {
                removed[static_cast<std::size_t>(others[static_cast<std::size_t>(i)])] =
                    true;
            }
            if (!path_exists_avoiding(g, v, w, removed)) return size;

            // Next combination.
            int pos = size - 1;
            while (pos >= 0 &&
                   pick[static_cast<std::size_t>(pos)] ==
                       static_cast<int>(others.size()) - size + pos) {
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
    return static_cast<int>(others.size());
}

}  // namespace kadsim::flow
