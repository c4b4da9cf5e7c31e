// Highest-label push-relabel max-flow (the algorithm family of HIPR, the
// solver the paper used: Cherkassky–Goldberg's hi-level variant, §5.1/§5.2).
//
// Implements the first phase (max-flow *value*) with the two standard
// heuristics that make the hi-level variant fast in practice:
//   * exact initial distance labels via reverse BFS from the sink,
//   * the gap heuristic (a vanished height level disconnects every vertex
//     above it from the sink).
// Worst-case O(n²√m), matching the complexity the paper quotes for HIPR.
// The value equals Dinic's (max-flow is unique in value; tests/test_maxflow.cpp
// also checks both against the oracle in tests/edmonds_karp_oracle.h);
// residual capacities after phase 1 are not a complete flow assignment, so
// cut extraction uses Dinic (see mincut.h).
//
// Stateless: excess/height/bucket scratch lives in the caller's
// flow::FlowWorkspace.
#ifndef KADSIM_FLOW_PUSH_RELABEL_H
#define KADSIM_FLOW_PUSH_RELABEL_H

#include "flow/flow_workspace.h"

namespace kadsim::flow {

class PushRelabel {
public:
    /// Max-flow value s→t (mutates `ws` residual capacities).
    int max_flow(FlowWorkspace& ws, int s, int t);

private:
    static void global_relabel(FlowWorkspace& ws, int s, int t);
    static void activate(FlowWorkspace& ws, int v, int s, int t, int& highest);
};

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_PUSH_RELABEL_H
