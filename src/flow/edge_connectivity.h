// Edge connectivity λ of directed graphs (beyond the paper's κ; cf. the
// reachability/cut-structure measures of Heck et al. 2016 and Ferretti 2013).
//
// λ(u,v) is the maximum number of edge-disjoint u→v paths — by Menger, the
// unit-capacity max-flow u→v on the raw digraph, with NO vertex splitting:
// unlike κ, edges (not vertices) are the failure unit, so the connectivity
// graph itself is the flow network. λ(D) = min over ordered pairs; always
// κ(D) ≤ λ(D) ≤ δ_min(D) (min over all out-/in-degrees) — the invariant the
// analysis tests pin per sampled pair.
//
// The §5.2 sampling argument carries over: λ(u,v) ≤ out_degree(u), so the
// c·n smallest-out-degree sources (flow/sampling.h) pin the minimum, and
// because every vertex is a sink the reported λ_min ≤ δ_min is guaranteed
// even under sampling.
//
// edge_connectivity() is the λ-only entry point of the sampled sweep
// (flow/connectivity_sweep.h). The analyzer runs λ through that sweep
// together with κ, where a pair whose κ reaches the degree bound settles
// λ = bound without a flow; this entry point runs λ's own pair body for
// every pair. Memory model matches κ's: one immutable unit-capacity CSR
// FlowNetwork shared across lanes, a per-lane flow::FlowWorkspace with the
// touched-arc undo log making the per-pair reset O(arcs touched).
#ifndef KADSIM_FLOW_EDGE_CONNECTIVITY_H
#define KADSIM_FLOW_EDGE_CONNECTIVITY_H

#include <cstdint>

#include "flow/flow_network.h"
#include "graph/digraph.h"

namespace kadsim::exec {
class ThreadPool;
}  // namespace kadsim::exec

namespace kadsim::flow {

class PairReuseHook;

struct EdgeConnectivityOptions {
    /// Fraction c of vertices used as flow sources (1.0 = exact, all pairs).
    double sample_fraction = 1.0;
    /// Lower bound on the number of sampled sources.
    int min_sources = 1;
    /// Execution engine for the flow jobs, which claim (source, sink block)
    /// items (flow/sampling.h); each job shares the immutable unit-capacity
    /// network and owns a private workspace.
    /// nullptr = inline on the caller; results are bit-identical either way.
    exec::ThreadPool* pool = nullptr;
    /// Run the flows on a Nagamochi–Ibaraki sparse certificate of the graph
    /// (graph/certificate.h). Source selection and degree bounds still come
    /// from the original graph and the certificate order exceeds every
    /// evaluated pair's cap, so every recorded λ is bit-identical to the
    /// full sweep.
    bool use_certificate = false;
    /// Cross-snapshot pair-reuse hook (pair_reuse.h); nullptr = off. Not
    /// owned.
    PairReuseHook* reuse = nullptr;
};

struct EdgeConnectivityResult {
    int n = 0;
    std::int64_t m = 0;
    int lambda_min = 0;            ///< λ(D): min over evaluated ordered pairs
    double lambda_avg = 0.0;       ///< mean λ(u,v) over evaluated pairs
    std::uint64_t lambda_sum = 0;  ///< integer sum (deterministic aggregation)
    std::uint64_t pairs_evaluated = 0;
    /// Pairs settled as λ = 0 without a flow run because
    /// min(out_degree(u), in_degree(v)) = 0. Counted in pairs_evaluated too.
    std::uint64_t pairs_skipped = 0;
    /// Pairs whose capped Dinic run stopped early on reaching the degree
    /// bound min(out_degree(u), in_degree(v)) — λ is then exactly the bound.
    std::uint64_t flows_capped = 0;
    /// Pairs settled from the pair-reuse hook's witness cache (no flow run;
    /// subset of pairs_evaluated). 0 unless options.reuse was set.
    std::uint64_t pairs_reused = 0;
    /// Certificate accounting (0 unless options.use_certificate): undirected
    /// symmetric-core edges kept (≤ k·(n−1)) and the build time in µs.
    std::uint64_t cert_edges_kept = 0;
    std::uint64_t cert_build_us = 0;
    int sources_used = 0;
    bool complete = false;         ///< complete graph: λ = n−1 without flows
};

/// Computes λ(D) (exactly, or sampled per `options.sample_fraction`).
[[nodiscard]] EdgeConnectivityResult edge_connectivity(
    const graph::Digraph& g, const EdgeConnectivityOptions& options = {});

/// The digraph as a unit-capacity CSR flow network: same vertex ids, one
/// arc per edge with capacity 1. The arc of the connectivity-graph edge with
/// global CSR index j (graph::Digraph::edge_offset) is arc 2j.
[[nodiscard]] FlowNetwork unit_capacity_network(const graph::Digraph& g);

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_EDGE_CONNECTIVITY_H
