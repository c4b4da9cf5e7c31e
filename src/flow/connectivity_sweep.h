// One sampled sweep for vertex connectivity κ and edge connectivity λ
// (paper §5.2, extended to λ as in the authors' CPS study).
//
// Both measures evaluate the same pairs: the c·n smallest-out-degree
// sources (flow/sampling.h) against every sink, and both cap each pair's
// flow at the same degree bound b(u,v) = min(out°(u), in°(v)). Whitney's
// chain κ(u,v) ≤ λ(u,v) ≤ b(u,v) holds per pair — vertex-disjoint paths are
// edge-disjoint, and every u→v path uses its own out-edge of u and in-edge
// of v — so λ(u,v) = b(u,v) the moment κ(u,v) reaches it.
//
// The sweep runs two passes over the same (source, 64-sink block) items.
// The κ pass computes κ for every non-adjacent sink and sets one bit per
// sink whose κ met a nonzero bound (a 64-bit word per item). The λ pass
// then settles those pairs at the bound with no flow and runs λ's own pair
// body (direct edge plus two-hop seeding, capped Dinic, reuse hook and
// witness stores) only for adjacent sinks and for pairs where κ fell short.
// On Kademlia snapshots κ reaches the bound on almost every pair, so λ's
// flow work shrinks to the adjacent sinks. Each pass builds its network,
// fans its items over the pool and drops the network before the next pass
// starts, so the sweep never holds both networks at once.
//
// The source list, in-degrees, reversed flow graph and (under
// use_certificate) the sparse certificate are built once per sweep.
// vertex_connectivity() and edge_connectivity() are the κ-only and λ-only
// entry points of the same sweep (the λ-only sweep settles nothing from κ).
#ifndef KADSIM_FLOW_CONNECTIVITY_SWEEP_H
#define KADSIM_FLOW_CONNECTIVITY_SWEEP_H

#include "flow/edge_connectivity.h"
#include "flow/vertex_connectivity.h"
#include "graph/digraph.h"

namespace kadsim::flow {

class PairReuseHook;

struct ConnectivitySweepResult {
    ConnectivityResult kappa;
    EdgeConnectivityResult lambda;
};

/// κ(D) and λ(D) of `g` in one sweep. `options` drive both halves; its
/// `reuse` is κ's pair-reuse hook and `lambda_reuse` is λ's (nullptr = off;
/// neither is owned). Every value equals what vertex_connectivity() and
/// edge_connectivity() report for the same options, and so do the counters
/// when no hook is attached: a λ pair settled from κ counts in λ's
/// flows_capped. With a λ hook attached, λ looks up and stores only the
/// pairs it runs flows for.
[[nodiscard]] ConnectivitySweepResult connectivity_sweep(
    const graph::Digraph& g, const ConnectivityOptions& options,
    PairReuseHook* lambda_reuse);

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_CONNECTIVITY_SWEEP_H
