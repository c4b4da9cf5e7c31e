// Dinic's max-flow algorithm with bidirectional phases, over a
// shared-structure workspace.
//
// The default solver for connectivity computations: on the unit-capacity
// networks produced by Even's transformation it runs in O(E·√V) and, because
// κ values are small (≈ k), typically terminates after a handful of phases.
// The max-flow *value* is unique, so results are interchangeable with the
// paper's HIPR (push-relabel) — asserted by cross-checking tests.
//
// Each phase labels the residual network from both ends, one level at a
// time. Forward levels grow from s over residual arcs; backward levels grow
// from t over arcs a whose pair a^1 has residual capacity (so a^1 enters the
// labelled vertex). The smaller frontier is always expanded next, and the
// search stops at the first vertex labelled from both sides: with forward
// levels complete up to F and backward levels up to B, that fixes the s–t
// distance D = F + B + 1. A one-sided BFS walks most of the network before
// it reaches t; meeting in the middle scans a fraction of it.
//
// The blocking-flow DFS follows both labelings: at depth d ≤ F it accepts a
// vertex with forward label d, past F one with backward label D − d.
//
// The flows are the one-sided solver's, arc for arc. Both DFSs can complete
// exactly the same s–t paths: the shortest paths of the phase's residual
// network whose arcs are not yet saturated. Every vertex of such a path
// carries the label either DFS asks for at its depth, and the arcs a
// phase's augmentations open run against both labelings, so neither DFS
// admits them. Each DFS still tries a vertex's arcs in CSR order, so each
// augmentation follows the same path: the two-sided DFS only skips
// vertices that the one-sided DFS enters and prunes as dead ends. Each
// phase therefore pushes the same blocking flow, and every κ/λ value,
// witness path, cut and counter is unchanged. tests/dinic_oracle.h keeps
// the one-sided solver, and tests/test_maxflow.cpp compares the residual
// networks both leave.
//
// The solver itself is stateless: all mutable state (residual capacities,
// level/iter/queue scratch) lives in the caller's flow::FlowWorkspace, and
// every capacity change is logged there so FlowWorkspace::reset() can undo
// just the touched arcs.
#ifndef KADSIM_FLOW_DINIC_H
#define KADSIM_FLOW_DINIC_H

#include <limits>

#include "flow/flow_workspace.h"

namespace kadsim::flow {

class Dinic {
public:
    static constexpr int kUnbounded = std::numeric_limits<int>::max();

    /// Computes max flow s→t on `ws` (mutating its residual capacities).
    /// Stops early once `flow_limit` is reached — used by min-over-pairs
    /// searches that only need to know "≥ limit".
    int max_flow(FlowWorkspace& ws, int s, int t, int flow_limit = kUnbounded);

private:
    /// One phase's level structure: the s–t distance and the last forward
    /// level the BFS completed.
    struct Phase {
        int dist = 0;
        int last_forward = 0;
    };

    bool bfs(FlowWorkspace& ws, int s, int t, Phase& phase);
    int dfs(FlowWorkspace& ws, const Phase& phase, int v, int depth, int t, int limit);
};

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_DINIC_H
