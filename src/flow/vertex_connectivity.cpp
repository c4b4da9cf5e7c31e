#include "flow/vertex_connectivity.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <numeric>
#include <vector>

#include "exec/thread_pool.h"
#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "flow/pair_reuse.h"
#include "flow/push_relabel.h"
#include "flow/sampling.h"
#include "flow/witness.h"
#include "graph/certificate.h"
#include "util/assert.h"

namespace kadsim::flow {

namespace {

/// Sources for the sampled computation (paper §5.2): the shared
/// smallest-out-degree selection of flow/sampling.h, used identically by the
/// edge-connectivity kernel.
std::vector<int> pick_sources(const graph::Digraph& g, double fraction,
                              int min_sources) {
    return pick_smallest_out_degree_sources(g, fraction, min_sources);
}

/// Reach budget of the sub-bound min-cut walk: a pair whose residual source
/// side exceeds this many network nodes is not stored — its revalidation
/// BFS would explore the same region on every later snapshot, eating the
/// reuse win. Bottlenecks hug the smallest-out-degree sources in practice,
/// so the typical source side is a handful of nodes.
constexpr std::size_t kMaxCutReach = 256;

struct PartialResult {
    int min_kappa = std::numeric_limits<int>::max();
    std::uint64_t sum = 0;
    std::uint64_t pairs = 0;
    std::uint64_t pairs_skipped = 0;
    std::uint64_t flows_capped = 0;
    std::uint64_t pairs_reused = 0;
    std::uint64_t arcs_touched = 0;
    std::uint64_t full_resets_avoided = 0;
    std::uint64_t workspace_bytes = 0;
};

/// Evaluates the non-adjacent sinks of every (source, sink block) item
/// handed out by `cursor`, accumulating into a local result (returned by
/// value, so concurrent workers never write adjacent slots of a shared
/// vector mid-flow).
///
/// Degree-bound fast path: κ(u,v) ≤ min(out_degree(u), in_degree(v)) — every
/// u→v path consumes a distinct out-edge of u and in-edge of v. A zero bound
/// settles the pair without touching the network; otherwise the bound caps
/// the Dinic run, which stops augmenting (skipping the final certifying BFS)
/// the moment the bound is reached. Either way the recorded κ is exact.
///
/// Path seeding: every shortest augmenting path in a fresh Even network is
/// u''→w'→w''→v' for a common neighbour w ∈ out(u) ∩ in(v), and each w
/// carries exactly one unit (its internal arc). The worker finds them with an
/// epoch-stamped membership test on rev.out(v) and either settles the pair
/// outright (|common| ≥ bound ⇒ κ = bound, no flow run) or saturates those
/// paths directly — the exact blocking flow of the first Dinic phase. It then
/// greedily packs vertex-disjoint length-5 paths u''→w'→w''→x'→x''→v'
/// (w ∈ out(u), x ∈ in(v), edge w→x, all interior vertices unused) by
/// scanning neighbour rows. The greedy packing need not be maximum: any
/// valid integral flow is a legal warm start, and Dinic's residual phases
/// correct it. When seeding alone reaches the bound the pair finishes
/// without a single BFS; otherwise Dinic tops up from the seeded residual.
/// Delta reuse (pair_reuse.h): when a hook is present, every pair is first
/// offered to it — a valid stored witness settles the pair with no graph or
/// network work at all — and settled pairs are stored back with a two-sided
/// witness: κ vertex-disjoint paths (the common neighbours of the no-flow
/// settle, or a flow decomposition — flow/witness.h — of the seeded + Dinic
/// flow) plus a size-κ separating set. When the pair settles at the
/// source's out-degree the cut is simply u's out-row; when the capped Dinic
/// run ends *below* the bound the workspace holds a maximum flow, and the
/// residual-reachable side of the Even network yields a minimum vertex cut
/// (a crossing internal arc names its vertex; a crossing edge arc x″→y′
/// names y — or x when y is the sink — which is on every path using that
/// edge). Lookups read only sweep-frozen state and stores are buffered by
/// the hook, so results stay bit-identical for any worker count.
///
/// Certificate mode: `gsel` is the original graph — it drives source
/// degrees, sink bounds and the adjacency exclusion, which must match the
/// plain sweep bit-for-bit — while `gflow` (== gsel when the certificate is
/// off) is the graph the flow network, the reverse rows and the seeding
/// walk: κ computed on it equals κ on gsel for every pair capped below the
/// certificate order (graph/certificate.h).
PartialResult worker(const graph::Digraph& gsel, const graph::Digraph& gflow,
                     const graph::Digraph& rev, const FlowNetwork& base,
                     const SinkBlocks& items,
                     const std::vector<int>& in_degrees,
                     std::atomic<std::size_t>& cursor, bool use_push_relabel,
                     PairReuseHook* reuse) {
    PartialResult result;
    // Claim an item before paying for the private workspace: late jobs
    // that find the cursor exhausted return without touching the network.
    std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= items.size()) return result;
    // The base network is shared read-only; the workspace holds this
    // worker's residual capacities, undo log and solver scratch.
    FlowWorkspace workspace(base);
    Dinic dinic;
    PushRelabel push_relabel;
    const int n = gsel.vertex_count();
    // Per-item adjacency bitmap: filled in O(out-degree) when an item is
    // claimed, replacing the per-sink has_edge binary search.
    std::vector<char> adjacent(static_cast<std::size_t>(n), 0);
    // Epoch-stamped per-pair sets (no O(n) clear between pairs): membership
    // in in(v) and "vertex already interior to a seeded path".
    std::vector<int> in_v_stamp(static_cast<std::size_t>(n), 0);
    std::vector<int> used_stamp(static_cast<std::size_t>(n), 0);
    // Witness scratch, allocated only when a reuse hook is attached:
    // path-decomposition buffers plus the residual-BFS state of the
    // sub-bound min-cut extraction (network-node reach set, per-vertex cut
    // dedupe, the cut itself).
    std::vector<int> witness;
    std::vector<int> offsets;
    std::vector<int> on_path;
    std::vector<int> reach_stamp;
    std::vector<int> reach_list;
    std::vector<int> cut_stamp;
    std::vector<int> cut_scratch;
    if (reuse != nullptr) {
        on_path.assign(static_cast<std::size_t>(2) * static_cast<std::size_t>(n),
                       0);
        reach_stamp.assign(
            static_cast<std::size_t>(2) * static_cast<std::size_t>(n), 0);
        cut_stamp.assign(static_cast<std::size_t>(n), 0);
    }
    int epoch = 0;
    for (; index < items.size();
         index = cursor.fetch_add(1, std::memory_order_relaxed)) {
        const auto [u, v_lo, v_hi] = items[index];
        const int out_degree = gsel.out_degree(u);
        const auto out_u = gflow.out(u);
        const std::int64_t offset_u = gflow.edge_offset(u);
        for (const int w : gsel.out(u)) adjacent[static_cast<std::size_t>(w)] = 1;
        for (int v = v_lo; v < v_hi; ++v) {
            if (v == u || adjacent[static_cast<std::size_t>(v)] != 0) continue;
            const int bound = std::min(out_degree, in_degrees[static_cast<std::size_t>(v)]);
            int kappa = 0;
            if (bound == 0) {
                ++result.pairs_skipped;
            } else if (reuse != nullptr && (kappa = reuse->lookup(u, v)) >= 0) {
                ++result.pairs_reused;
            } else if (use_push_relabel) {
                kappa = 0;
                // Push-relabel has no cheap early exit; run it exact.
                workspace.reset();  // touched-arc undo of the previous run
                kappa = push_relabel.max_flow(workspace, out_vertex(u), in_vertex(v));
            } else {
                kappa = 0;
                ++epoch;
                const auto in_v = rev.out(v);
                for (const int x : in_v) in_v_stamp[static_cast<std::size_t>(x)] = epoch;
                // Count the common neighbours first: if they alone meet the
                // bound, κ = bound without touching the network.
                int common = 0;
                for (const int w : out_u) {
                    if (in_v_stamp[static_cast<std::size_t>(w)] == epoch) ++common;
                }
                if (common >= bound) {
                    kappa = bound;
                    ++result.flows_capped;
                    // Storable only when the bound is u's out-degree: then
                    // u's out-row is a size-κ separating set (removing all
                    // of u's successors isolates it). An in-degree-pinned
                    // settle has no cheap cut here — in(v) of the original
                    // graph is not materialized in this worker — and the
                    // smallest-out-degree source selection makes that the
                    // rare case.
                    if (reuse != nullptr && bound == out_degree) {
                        witness.clear();
                        offsets.assign(1, 0);
                        int taken = 0;
                        for (const int w : out_u) {
                            if (taken == bound) break;
                            if (in_v_stamp[static_cast<std::size_t>(w)] != epoch) continue;
                            witness.push_back(w);
                            offsets.push_back(static_cast<int>(witness.size()));
                            ++taken;
                        }
                        reuse->store(u, v, kappa, witness, offsets, gsel.out(u));
                    }
                } else {
                    workspace.reset();  // touched-arc undo of the previous run
                    // Saturate every length-3 path: one unit through each
                    // common neighbour's internal arc. This is the blocking
                    // flow of the first Dinic phase (any length-3 path uses
                    // some common w, now saturated).
                    int seeded = 0;
                    for (std::size_t i = 0; i < out_u.size(); ++i) {
                        const int w = out_u[i];
                        if (in_v_stamp[static_cast<std::size_t>(w)] != epoch) continue;
                        used_stamp[static_cast<std::size_t>(w)] = epoch;
                        workspace.add_flow(
                            edge_arc(n, offset_u + static_cast<std::int64_t>(i)), 1);
                        workspace.add_flow(internal_arc(w), 1);
                        const auto out_w = gflow.out(w);
                        const auto pos = static_cast<std::int64_t>(
                            std::lower_bound(out_w.begin(), out_w.end(), v) -
                            out_w.begin());
                        workspace.add_flow(edge_arc(n, gflow.edge_offset(w) + pos), 1);
                        ++seeded;
                    }
                    // Greedily pack disjoint length-5 paths through unused
                    // w ∈ out(u), x ∈ in(v) with an edge w→x. u and v are
                    // never interior (u ∉ in(v) by non-adjacency, v ∉ out(w)
                    // candidates because x carries the in(v) stamp, and
                    // v ∈ in(v) is impossible — no self-loops).
                    for (std::size_t i = 0; i < out_u.size() && seeded < bound; ++i) {
                        const int w = out_u[i];
                        if (used_stamp[static_cast<std::size_t>(w)] == epoch) continue;
                        const auto out_w = gflow.out(w);
                        for (std::size_t j = 0; j < out_w.size(); ++j) {
                            const int x = out_w[j];
                            const auto xs = static_cast<std::size_t>(x);
                            if (in_v_stamp[xs] != epoch || used_stamp[xs] == epoch) {
                                continue;
                            }
                            used_stamp[static_cast<std::size_t>(w)] = epoch;
                            used_stamp[xs] = epoch;
                            workspace.add_flow(
                                edge_arc(n, offset_u + static_cast<std::int64_t>(i)),
                                1);
                            workspace.add_flow(internal_arc(w), 1);
                            workspace.add_flow(
                                edge_arc(n, gflow.edge_offset(w) +
                                                static_cast<std::int64_t>(j)),
                                1);
                            workspace.add_flow(internal_arc(x), 1);
                            const auto out_x = gflow.out(x);
                            const auto pos = static_cast<std::int64_t>(
                                std::lower_bound(out_x.begin(), out_x.end(), v) -
                                out_x.begin());
                            workspace.add_flow(edge_arc(n, gflow.edge_offset(x) + pos),
                                               1);
                            ++seeded;
                            break;
                        }
                    }
                    kappa = seeded >= bound
                                ? bound
                                : seeded + dinic.max_flow(workspace, out_vertex(u),
                                                          in_vertex(v),
                                                          bound - seeded);
                    if (kappa == bound) {
                        ++result.flows_capped;
                        if (reuse != nullptr && bound == out_degree) {
                            // The workspace holds the full seeded + Dinic
                            // flow of value κ = bound; decompose it into the
                            // disjoint-path witness. The walk consumes only
                            // already-logged arcs, so the counters and the
                            // next reset are untouched. The cut is u's
                            // out-row (see the no-flow settle above).
                            witness.clear();
                            offsets.assign(1, 0);
                            decompose_even_flow(workspace, n, out_vertex(u),
                                                in_vertex(v), kappa, on_path,
                                                witness, offsets);
                            reuse->store(u, v, kappa, witness, offsets,
                                         gsel.out(u));
                        }
                    } else if (reuse != nullptr) {
                        // κ ended below the cap, so Dinic ran out of
                        // augmenting paths and the workspace holds a
                        // *maximum* flow: the residual-reachable side of the
                        // Even network yields a minimum vertex cut. Walk it
                        // before decomposing the paths (the decomposition
                        // consumes the flow), and give up past a small reach
                        // budget — a huge source side would make every later
                        // revalidation BFS as dear as a recompute.
                        reach_list.clear();
                        reach_list.push_back(out_vertex(u));
                        reach_stamp[static_cast<std::size_t>(out_vertex(u))] =
                            epoch;
                        bool overflow = false;
                        for (std::size_t head = 0; head < reach_list.size();
                             ++head) {
                            for (const int a : base.arcs_of(reach_list[head])) {
                                if (workspace.cap(a) <= 0) continue;
                                const auto y =
                                    static_cast<std::size_t>(base.arc_to(a));
                                if (reach_stamp[y] == epoch) continue;
                                reach_stamp[y] = epoch;
                                reach_list.push_back(static_cast<int>(y));
                            }
                            if (reach_list.size() > kMaxCutReach) {
                                overflow = true;
                                break;
                            }
                        }
                        if (!overflow) {
                            // Crossing forward arcs, mapped to vertices: an
                            // internal arc 2w names w; an edge arc x″→y′
                            // names y (on every path through that edge), or
                            // its tail x when y is the sink. Injective — two
                            // crossing arcs never name one vertex — so the
                            // cut has exactly κ members; the defensive size
                            // check below costs nothing.
                            cut_scratch.clear();
                            for (const int z : reach_list) {
                                for (const int a : base.arcs_of(z)) {
                                    if (base.original_cap(a) <= 0) continue;
                                    const int y = base.arc_to(a);
                                    if (reach_stamp[static_cast<std::size_t>(
                                            y)] == epoch) {
                                        continue;
                                    }
                                    const int member =
                                        a < 2 * n ? a / 2
                                        : y / 2 == v ? z / 2
                                                     : y / 2;
                                    const auto ms =
                                        static_cast<std::size_t>(member);
                                    if (cut_stamp[ms] != epoch) {
                                        cut_stamp[ms] = epoch;
                                        cut_scratch.push_back(member);
                                    }
                                }
                            }
                            if (static_cast<int>(cut_scratch.size()) == kappa) {
                                witness.clear();
                                offsets.assign(1, 0);
                                decompose_even_flow(workspace, n, out_vertex(u),
                                                    in_vertex(v), kappa,
                                                    on_path, witness, offsets);
                                reuse->store(u, v, kappa, witness, offsets,
                                             cut_scratch);
                            }
                        }
                    }
                }
            }
            result.min_kappa = std::min(result.min_kappa, kappa);
            result.sum += static_cast<std::uint64_t>(kappa);
            ++result.pairs;
        }
        for (const int w : gsel.out(u)) adjacent[static_cast<std::size_t>(w)] = 0;
    }
    // Flush the last run into the counters so the totals are independent of
    // how pairs were distributed over workers.
    workspace.reset();
    result.arcs_touched = workspace.stats().arcs_touched;
    result.full_resets_avoided = workspace.stats().full_sweeps_avoided;
    result.workspace_bytes = workspace.memory_bytes();
    return result;
}

/// Evaluates every (source, sink block) item on the pool (caller
/// participates; worker jobs are non-blocking, so this is safe even on a
/// busy shared pool). Aggregation is an integer min/sum over per-job locals:
/// bit-identical for any job count.
PartialResult evaluate_sources(const graph::Digraph& gsel,
                               const graph::Digraph& gflow,
                               const graph::Digraph& rev, const FlowNetwork& base,
                               const std::vector<int>& sources,
                               const std::vector<int>& in_degrees,
                               bool use_push_relabel, PairReuseHook* reuse,
                               exec::ThreadPool* pool) {
    const SinkBlocks items(sources, gsel.vertex_count());
    std::atomic<std::size_t> cursor{0};
    // Re-entrant calls (a pool task computing connectivity on its own pool)
    // run inline: the calling thread is already one of the pool's lanes.
    if (pool == nullptr || exec::ThreadPool::in_worker()) {
        return worker(gsel, gflow, rev, base, items, in_degrees, cursor,
                      use_push_relabel, reuse);
    }

    // The caller is a lane too, so more than items-1 helper jobs can never
    // all claim work.
    const auto jobs = std::min(static_cast<std::size_t>(pool->size()),
                               std::max<std::size_t>(items.size(), 1) - 1);
    std::vector<std::future<PartialResult>> futures;
    futures.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
        futures.push_back(pool->submit([&gsel, &gflow, &rev, &base, &items,
                                        &in_degrees, &cursor, use_push_relabel,
                                        reuse] {
            return worker(gsel, gflow, rev, base, items, in_degrees, cursor,
                          use_push_relabel, reuse);
        }));
    }
    // Every submitted job must be joined before this frame (holding the
    // graph, base network and cursor the jobs reference) can unwind — so
    // collect the first error but keep waiting.
    std::exception_ptr error;
    PartialResult combined;
    try {
        combined = worker(gsel, gflow, rev, base, items, in_degrees, cursor,
                          use_push_relabel, reuse);
    } catch (...) {
        error = std::current_exception();
    }
    for (auto& future : futures) {
        try {
            const PartialResult p = pool->wait_get(future);
            combined.min_kappa = std::min(combined.min_kappa, p.min_kappa);
            combined.sum += p.sum;
            combined.pairs += p.pairs;
            combined.pairs_skipped += p.pairs_skipped;
            combined.flows_capped += p.flows_capped;
            combined.pairs_reused += p.pairs_reused;
            combined.arcs_touched += p.arcs_touched;
            combined.full_resets_avoided += p.full_resets_avoided;
            combined.workspace_bytes += p.workspace_bytes;
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    if (error) std::rethrow_exception(error);
    return combined;
}

}  // namespace

ConnectivityResult vertex_connectivity(const graph::Digraph& g,
                                       const ConnectivityOptions& options) {
    ConnectivityResult result;
    result.n = g.vertex_count();
    result.m = g.edge_count();
    if (result.n <= 1) {
        result.complete = true;
        return result;
    }
    if (g.is_complete()) {
        // §4.4: every pair adjacent ⇒ κ = n − 1.
        result.complete = true;
        result.kappa_min = result.n - 1;
        result.kappa_avg = static_cast<double>(result.n - 1);
        return result;
    }

    // In-degrees bound each sink's κ from above; one pass per snapshot graph
    // instead of a recount per (source, sink) pair.
    const std::vector<int> in_degrees = g.in_degrees();
    std::vector<int> sources =
        pick_sources(g, options.sample_fraction, options.min_sources);

    // A sampled source set could, in pathological graphs, see only adjacent
    // sinks; fall back to the exact computation in that case (cheap: only
    // happens on tiny dense graphs). The certificate depends on the source
    // set (its order must exceed every evaluated pair's degree cap), so it
    // is rebuilt per attempt.
    for (int attempt = 0; attempt < 2; ++attempt) {
        graph::SparseCertificate cert;
        const graph::Digraph* flow_g = &g;
        if (options.use_certificate) {
            int k = 1;
            for (const int u : sources) k = std::max(k, g.out_degree(u) + 1);
            cert = graph::build_certificate(g, k);
            flow_g = &cert.graph;
            result.cert_edges_kept =
                static_cast<std::uint64_t>(cert.core_edges_kept);
            result.cert_build_us = cert.build_us;
        }
        const FlowNetwork base = even_transform(*flow_g);
        // The reversed graph gives workers each sink's sorted in-neighbour
        // row for the length-3 seeding — rows of the flow graph, like the
        // network itself.
        const graph::Digraph rev = flow_g->reversed();
        const PartialResult combined =
            evaluate_sources(g, *flow_g, rev, base, sources, in_degrees,
                             options.use_push_relabel, options.reuse,
                             options.pool);
        if (combined.pairs > 0) {
            result.kappa_min = combined.min_kappa;
            result.kappa_sum = combined.sum;
            result.pairs_evaluated = combined.pairs;
            result.pairs_skipped = combined.pairs_skipped;
            result.flows_capped = combined.flows_capped;
            result.pairs_reused = combined.pairs_reused;
            result.arcs_touched = combined.arcs_touched;
            result.full_resets_avoided = combined.full_resets_avoided;
            result.arena_bytes = base.memory_bytes() + combined.workspace_bytes;
            result.kappa_avg = static_cast<double>(combined.sum) /
                               static_cast<double>(combined.pairs);
            result.sources_used = static_cast<int>(sources.size());
            return result;
        }
        // Retry exact.
        sources = pick_sources(g, 1.0, 1);
    }
    KADSIM_ASSERT_MSG(false, "non-complete graph must have a non-adjacent pair");
    return result;
}

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
