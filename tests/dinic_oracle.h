// Forward-only Dinic: the level BFS grows from the source alone until it
// labels the sink, and the blocking-flow DFS follows those levels. This is
// the solver flow::Dinic replaced with bidirectional phases; it is kept
// verbatim as the reference the flow-identity tests compare against, arc
// for arc. Mutates only the caller's flow::FlowWorkspace residual arcs
// (through add_flow, so reset() undoes it) and its forward scratch (level,
// iter, queue).
#ifndef KADSIM_TESTS_DINIC_ORACLE_H
#define KADSIM_TESTS_DINIC_ORACLE_H

#include <algorithm>
#include <cstddef>
#include <limits>

#include "flow/flow_workspace.h"
#include "util/assert.h"

namespace kadsim::test_support {

class ForwardDinic {
public:
    static constexpr int kUnbounded = std::numeric_limits<int>::max();

    int max_flow(flow::FlowWorkspace& ws, int s, int t, int flow_limit = kUnbounded) {
        KADSIM_ASSERT(s != t);
        const auto n = static_cast<std::size_t>(ws.network().vertex_count());
        ws.level.assign(n, -1);
        ws.iter.assign(n, 0);
        ws.queue.reserve(n);

        int flow = 0;
        while (flow < flow_limit && bfs(ws, s, t)) {
            std::fill(ws.iter.begin(), ws.iter.end(), 0);
            while (flow < flow_limit) {
                const int pushed = dfs(ws, s, t, flow_limit - flow);
                if (pushed == 0) break;
                flow += pushed;
            }
        }
        return flow;
    }

private:
    static bool bfs(flow::FlowWorkspace& ws, int s, int t) {
        const flow::FlowNetwork& net = ws.network();
        std::fill(ws.level.begin(), ws.level.end(), -1);
        ws.queue.clear();
        ws.queue.push_back(s);
        ws.level[static_cast<std::size_t>(s)] = 0;
        for (std::size_t head = 0; head < ws.queue.size(); ++head) {
            const int v = ws.queue[head];
            for (const int arc_index : net.arcs_of(v)) {
                const auto& arc = ws.arc(arc_index);
                if (arc.cap > 0 && ws.level[static_cast<std::size_t>(arc.to)] < 0) {
                    ws.level[static_cast<std::size_t>(arc.to)] =
                        ws.level[static_cast<std::size_t>(v)] + 1;
                    if (arc.to == t) return true;
                    ws.queue.push_back(arc.to);
                }
            }
        }
        return ws.level[static_cast<std::size_t>(t)] >= 0;
    }

    static int dfs(flow::FlowWorkspace& ws, int v, int t, int limit) {
        if (v == t) return limit;
        const flow::FlowNetwork& net = ws.network();
        const auto vs = static_cast<std::size_t>(v);
        const auto arcs = net.arcs_of(v);
        for (; ws.iter[vs] < arcs.size(); ++ws.iter[vs]) {
            const int arc_index = arcs[ws.iter[vs]];
            const auto& arc = ws.arc(arc_index);
            if (arc.cap <= 0) continue;
            const auto ws_to = static_cast<std::size_t>(arc.to);
            if (ws.level[ws_to] != ws.level[vs] + 1) continue;
            const int pushed = dfs(ws, arc.to, t, std::min(limit, arc.cap));
            if (pushed > 0) {
                ws.add_flow(arc_index, pushed);
                return pushed;
            }
            // Dead end: prune this vertex from the level graph.
            ws.level[ws_to] = -1;
        }
        return 0;
    }
};

}  // namespace kadsim::test_support

#endif  // KADSIM_TESTS_DINIC_ORACLE_H
