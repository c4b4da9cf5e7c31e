// Vertex connectivity of directed graphs (paper §4.3–§4.4, §5.2).
//
// κ(v,w) for non-adjacent v ≠ w is the max-flow from v'' to w' in the
// Even-transformed network (Menger). κ(D) is the minimum over all such
// pairs; a complete graph has κ = n−1 by convention.
//
// Full evaluation costs n(n−1) max-flow runs. The paper's reduction (§5.2):
// because Kademlia connectivity graphs are nearly undirected, computing the
// flows from only the c·n vertices with the smallest out-degree (to all n−1
// sinks each) finds the true minimum — the authors validated c = 0.02 on 20
// fully-analyzed graphs; `bench/ablation_sampling_c` re-validates it here.
//
// vertex_connectivity() is the κ-only entry point of the sampled sweep
// (flow/connectivity_sweep.h), which computes κ and λ together. Memory
// model: the Even-transformed network is built once (immutable CSR) and
// shared by reference across all lanes; each lane owns only a
// flow::FlowWorkspace whose touched-arc undo log makes the per-pair reset
// O(arcs touched) instead of O(m+n).
#ifndef KADSIM_FLOW_VERTEX_CONNECTIVITY_H
#define KADSIM_FLOW_VERTEX_CONNECTIVITY_H

#include <cstdint>

#include "flow/flow_network.h"
#include "flow/flow_workspace.h"
#include "graph/digraph.h"

namespace kadsim::exec {
class ThreadPool;
}  // namespace kadsim::exec

namespace kadsim::flow {

class PairReuseHook;

struct ConnectivityOptions {
    /// Fraction c of vertices used as flow sources (1.0 = exact, all pairs).
    double sample_fraction = 1.0;
    /// Lower bound on the number of sampled sources.
    int min_sources = 1;
    /// Execution engine for the flow jobs, which claim (source, sink block)
    /// items (flow/sampling.h); each job shares the immutable transformed
    /// network and owns a private workspace. nullptr =
    /// inline on the caller; results are bit-identical either way (integer
    /// min/sum aggregation).
    exec::ThreadPool* pool = nullptr;
    /// Use the HIPR-style push-relabel solver instead of Dinic (results are
    /// identical; provided for fidelity runs and benchmarking).
    bool use_push_relabel = false;
    /// Run the flows on a Nagamochi–Ibaraki sparse certificate of the graph
    /// (graph/certificate.h) instead of the full edge set. Source selection,
    /// degree bounds and adjacency exclusion still come from the original
    /// graph, and the certificate order is chosen above every evaluated
    /// pair's degree cap, so every recorded κ is bit-identical to the full
    /// sweep — only the network the solver walks shrinks.
    bool use_certificate = false;
    /// Cross-snapshot pair-reuse hook (pair_reuse.h); nullptr = off. Pairs
    /// settled at their degree bound are offered with a disjoint-path
    /// witness; reused pairs skip the flow run entirely. Witness stores
    /// need the Dinic solver (ignored under use_push_relabel; lookups still
    /// apply). Not owned.
    PairReuseHook* reuse = nullptr;
};

struct ConnectivityResult {
    int n = 0;
    std::int64_t m = 0;
    int kappa_min = 0;            ///< κ(D): min over evaluated non-adjacent pairs
    double kappa_avg = 0.0;       ///< mean κ(v,w) over evaluated pairs
    std::uint64_t kappa_sum = 0;  ///< integer sum (deterministic aggregation)
    std::uint64_t pairs_evaluated = 0;
    /// Degree-bound fast path: pairs settled as κ = 0 without a flow run
    /// because min(out_degree(u), in_degree(v)) = 0. Counted in
    /// pairs_evaluated too — only the max-flow computation was skipped.
    std::uint64_t pairs_skipped = 0;
    /// Pairs settled at the degree bound (which is then the exact κ):
    /// either the seeded disjoint paths alone reached it — common-neighbour
    /// count or greedy length-5 packing, sometimes with no solver run at
    /// all — or the capped Dinic run stopped early on hitting it (skipping
    /// the final certifying BFS).
    std::uint64_t flows_capped = 0;
    /// Kernel counters, summed over all workers' workspaces: arcs restored
    /// by touched-arc undo logs, and how many of those undo passes did
    /// strictly less work than an O(m+n) full-capacity sweep. Both are
    /// per-pair deterministic, so the sums are thread-count independent.
    std::uint64_t arcs_touched = 0;
    std::uint64_t full_resets_avoided = 0;
    /// Peak flow-kernel arena: the shared CSR network plus every concurrent
    /// worker's workspace (residual caps, undo log, solver scratch).
    std::uint64_t arena_bytes = 0;
    /// Pairs settled from the pair-reuse hook's witness cache (no flow run;
    /// subset of pairs_evaluated). 0 unless options.reuse was set.
    std::uint64_t pairs_reused = 0;
    /// Certificate accounting (0 unless options.use_certificate): undirected
    /// symmetric-core edges kept — bounded by k·(n−1) by the NI forest
    /// decomposition — and the certificate build time in microseconds. The
    /// certificate digraph itself has ≤ 2·cert_edges_kept + (asymmetric)
    /// arcs.
    std::uint64_t cert_edges_kept = 0;
    std::uint64_t cert_build_us = 0;
    int sources_used = 0;
    bool complete = false;        ///< complete graph: κ = n−1 without flows
};

/// Computes κ(D) (exactly, or sampled per `options.sample_fraction`).
[[nodiscard]] ConnectivityResult vertex_connectivity(const graph::Digraph& g,
                                                     const ConnectivityOptions& options = {});

/// κ(v,w) for one non-adjacent pair (asserts non-adjacency and v ≠ w).
/// Builds a fresh Even transform per call — convenience only; batch callers
/// should use the reuse overload below.
[[nodiscard]] int pair_vertex_connectivity(const graph::Digraph& g, int v, int w);

/// κ(v,w) on a caller-supplied Even-transformed network (`even_net` must be
/// `even_transform(g)` with unit edge capacity) and workspace. The workspace
/// is reset on entry via its touched-arc undo log, so evaluating many pairs
/// against one network costs O(arcs touched) between pairs, not a rebuild.
[[nodiscard]] int pair_vertex_connectivity(const graph::Digraph& g,
                                           const FlowNetwork& even_net,
                                           FlowWorkspace& workspace, int v, int w);

/// Brute-force κ(v,w) by definition: the smallest set of other vertices whose
/// removal cuts every path v→w (exponential; test oracle for tiny graphs).
[[nodiscard]] int pair_vertex_connectivity_bruteforce(const graph::Digraph& g, int v,
                                                      int w);

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_VERTEX_CONNECTIVITY_H
