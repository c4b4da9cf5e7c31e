// Edmonds–Karp (BFS augmenting paths): the simplest correct max-flow solver,
// the independent oracle the cross-solver tests compare Dinic and
// push-relabel against. Mutates only the caller's flow::FlowWorkspace
// residual arcs (through add_flow, so reset() undoes it) and its BFS queue;
// the augmenting-path parents are the oracle's own scratch.
#ifndef KADSIM_TESTS_EDMONDS_KARP_ORACLE_H
#define KADSIM_TESTS_EDMONDS_KARP_ORACLE_H

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "flow/flow_workspace.h"
#include "util/assert.h"

namespace kadsim::test_support {

class EdmondsKarp {
public:
    static constexpr int kUnbounded = std::numeric_limits<int>::max();

    int max_flow(flow::FlowWorkspace& ws, int s, int t, int flow_limit = kUnbounded) {
        KADSIM_ASSERT(s != t);
        const flow::FlowNetwork& net = ws.network();
        const auto n = static_cast<std::size_t>(net.vertex_count());
        int flow = 0;
        while (flow < flow_limit) {
            parent_arc_.assign(n, -1);
            ws.queue.clear();
            ws.queue.push_back(s);
            bool reached = false;
            for (std::size_t head = 0; head < ws.queue.size() && !reached; ++head) {
                const int v = ws.queue[head];
                for (const int arc_index : net.arcs_of(v)) {
                    const auto& arc = ws.arc(arc_index);
                    if (arc.cap <= 0 || arc.to == s) continue;
                    if (parent_arc_[static_cast<std::size_t>(arc.to)] != -1) continue;
                    parent_arc_[static_cast<std::size_t>(arc.to)] = arc_index;
                    if (arc.to == t) {
                        reached = true;
                        break;
                    }
                    ws.queue.push_back(arc.to);
                }
            }
            if (!reached) break;

            // Bottleneck along the parent chain.
            int bottleneck = flow_limit - flow;
            for (int v = t; v != s;) {
                const int arc_index = parent_arc_[static_cast<std::size_t>(v)];
                bottleneck = std::min(bottleneck, ws.cap(arc_index));
                v = ws.arc(arc_index ^ 1).to;
            }
            for (int v = t; v != s;) {
                const int arc_index = parent_arc_[static_cast<std::size_t>(v)];
                ws.add_flow(arc_index, bottleneck);
                v = ws.arc(arc_index ^ 1).to;
            }
            flow += bottleneck;
        }
        return flow;
    }

private:
    std::vector<int> parent_arc_;  ///< arc that reached each vertex this BFS
};

}  // namespace kadsim::test_support

#endif  // KADSIM_TESTS_EDMONDS_KARP_ORACLE_H
