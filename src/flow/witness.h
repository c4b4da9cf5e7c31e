// Disjoint-path witness extraction from a settled unit flow (kernel
// internal; used by the κ/λ workers to feed flow::PairReuseHook::store).
//
// Both routines decompose the integral flow currently held in a workspace
// into `value` paths from the source and leave every kernel counter and the
// subsequent reset() exactly as they would have been: a sweep's
// arcs_touched totals are identical with witness extraction on or off.
//
// On an Even network every internal arc has capacity 1, so each network
// vertex other than the source and the sink carries at most one unit and
// has at most one flow-carrying out-arc (the sink has none).
// decompose_even_flow indexes those arcs once from
// the workspace's undo log (every arc carrying flow is in it) and follows
// them from each flow-carrying arc of the source, in CSR order; it reads
// the flow without changing it.
//
// On a unit-capacity network a vertex can carry several units, so
// decompose_unit_flow walks rows: from the source it repeatedly takes the
// first positive-flow arc of the current vertex, consuming one unit per
// traversed arc via add_flow(arc, -1). Every traversed arc already carries
// flow — i.e. is already in the undo log — so the walk adds no log
// entries. Flow cycles (legal in any integral max flow) are cancelled in
// place when the walk revisits an on-path vertex.
#ifndef KADSIM_FLOW_WITNESS_H
#define KADSIM_FLOW_WITNESS_H

#include <vector>

#include "flow/flow_workspace.h"

namespace kadsim::flow {

/// Decomposes the κ = `value` flow of an Even-transformed network
/// (even_transform.h; n original vertices, s = out_vertex(u),
/// t = in_vertex(v)) into `value` vertex-disjoint paths, appending each
/// path's interior *original* vertices to `witness` and the pair_reuse.h
/// offset layout to `offsets` (offsets must start out as {0}). Paths come
/// in the CSR order of their first arcs out of s. `next_arc` is
/// caller-owned scratch of size ≥ 2n holding all zeros on entry and exit.
void decompose_even_flow(const FlowWorkspace& workspace, int n, int s, int t,
                         int value, std::vector<int>& next_arc,
                         std::vector<int>& witness, std::vector<int>& offsets);

/// Decomposes the λ = `value` flow of a unit-capacity network
/// (edge_connectivity.h) into `value` edge-disjoint s→t paths, appending
/// each path's intermediate vertices (a direct edge contributes a
/// zero-length path). `on_path` is caller-owned scratch of size ≥ n, all
/// zeros on entry and exit.
void decompose_unit_flow(FlowWorkspace& workspace, int s, int t, int value,
                         std::vector<int>& on_path, std::vector<int>& witness,
                         std::vector<int>& offsets);

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_WITNESS_H
