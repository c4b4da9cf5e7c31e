#include "flow/dinic.h"

#include <algorithm>

#include "util/assert.h"

namespace kadsim::flow {

int Dinic::max_flow(FlowWorkspace& ws, int s, int t, int flow_limit) {
    KADSIM_ASSERT(s != t);
    // Every phase initializes the labels (bfs) and the cursors before use.
    const auto n = static_cast<std::size_t>(ws.network().vertex_count());
    ws.level.resize(n);
    ws.level_t.resize(n);
    ws.iter.resize(n);
    ws.queue.reserve(n);
    ws.queue_t.reserve(n);

    int flow = 0;
    Phase phase;
    while (flow < flow_limit && bfs(ws, s, t, phase)) {
        std::fill(ws.iter.begin(), ws.iter.end(), 0);
        while (flow < flow_limit) {
            const int pushed = dfs(ws, phase, s, 0, t, flow_limit - flow);
            if (pushed == 0) break;
            flow += pushed;
        }
    }
    return flow;
}

bool Dinic::bfs(FlowWorkspace& ws, int s, int t, Phase& phase) {
    const FlowNetwork& net = ws.network();
    std::fill(ws.level.begin(), ws.level.end(), -1);
    std::fill(ws.level_t.begin(), ws.level_t.end(), -1);
    ws.queue.assign(1, s);
    ws.queue_t.assign(1, t);
    ws.level[static_cast<std::size_t>(s)] = 0;
    ws.level_t[static_cast<std::size_t>(t)] = 0;
    // Each queue holds its side's levels in order; [*_begin, size) is the
    // frontier, at depth *_depth.
    std::size_t f_begin = 0;
    std::size_t b_begin = 0;
    int f_depth = 0;
    int b_depth = 0;
    while (true) {
        const std::size_t f_end = ws.queue.size();
        const std::size_t b_end = ws.queue_t.size();
        if (f_begin == f_end || b_begin == b_end) return false;
        // Up to here no vertex carries both labels, so the distance exceeds
        // f_depth + b_depth; the first vertex labelled from both sides in
        // the next level makes it exactly one more.
        if (f_end - f_begin <= b_end - b_begin) {
            for (std::size_t i = f_begin; i < f_end; ++i) {
                for (const int arc_index : net.arcs_of(ws.queue[i])) {
                    const auto& arc = ws.arc(arc_index);
                    const auto to = static_cast<std::size_t>(arc.to);
                    if (arc.cap <= 0 || ws.level[to] >= 0) continue;
                    ws.level[to] = f_depth + 1;
                    if (ws.level_t[to] >= 0) {
                        phase = {f_depth + b_depth + 1, f_depth};
                        return true;
                    }
                    ws.queue.push_back(arc.to);
                }
            }
            f_begin = f_end;
            ++f_depth;
        } else {
            for (std::size_t i = b_begin; i < b_end; ++i) {
                for (const int arc_index : net.arcs_of(ws.queue_t[i])) {
                    const auto& arc = ws.arc(arc_index);
                    const auto from = static_cast<std::size_t>(arc.to);
                    if (ws.cap(arc_index ^ 1) <= 0 || ws.level_t[from] >= 0) continue;
                    ws.level_t[from] = b_depth + 1;
                    if (ws.level[from] >= 0) {
                        phase = {f_depth + b_depth + 1, f_depth};
                        return true;
                    }
                    ws.queue_t.push_back(arc.to);
                }
            }
            b_begin = b_end;
            ++b_depth;
        }
    }
}

int Dinic::dfs(FlowWorkspace& ws, const Phase& phase, int v, int depth, int t,
               int limit) {
    if (v == t) return limit;
    // The next vertex must lie on a shortest s–t path: forward label `next`
    // up to the last complete forward level, backward label dist − next
    // past it.
    const int next = depth + 1;
    const bool forward = next <= phase.last_forward;
    std::vector<int>& label = forward ? ws.level : ws.level_t;
    const int want = forward ? next : phase.dist - next;
    const FlowNetwork& net = ws.network();
    const auto vs = static_cast<std::size_t>(v);
    const auto arcs = net.arcs_of(v);
    for (; ws.iter[vs] < arcs.size(); ++ws.iter[vs]) {
        const int arc_index = arcs[ws.iter[vs]];
        const auto& arc = ws.arc(arc_index);
        if (arc.cap <= 0) continue;
        const auto ws_to = static_cast<std::size_t>(arc.to);
        if (label[ws_to] != want) continue;
        const int pushed = dfs(ws, phase, arc.to, next, t, std::min(limit, arc.cap));
        if (pushed > 0) {
            ws.add_flow(arc_index, pushed);
            return pushed;
        }
        // Dead end: prune this vertex from the level graph.
        label[ws_to] = -1;
    }
    return 0;
}

}  // namespace kadsim::flow
