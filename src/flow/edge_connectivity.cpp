#include "flow/edge_connectivity.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <numeric>
#include <vector>

#include "exec/thread_pool.h"
#include "flow/dinic.h"
#include "flow/pair_reuse.h"
#include "flow/sampling.h"
#include "flow/witness.h"
#include "graph/certificate.h"
#include "util/assert.h"

namespace kadsim::flow {

FlowNetwork unit_capacity_network(const graph::Digraph& g) {
    KADSIM_ASSERT(g.edge_count() <= std::numeric_limits<int>::max() / 2);
    FlowNetwork net(g.vertex_count());
    net.reserve(static_cast<std::size_t>(g.edge_count()));
    for (int u = 0; u < g.vertex_count(); ++u) {
        for (const int v : g.out(u)) net.add_arc(u, v, 1);
    }
    net.finalize();
    return net;
}

namespace {

/// Arc id of the connectivity-graph edge with global CSR index `edge_index`
/// in a unit_capacity_network (arcs alternate forward/reverse).
int edge_arc(std::int64_t edge_index) {
    return static_cast<int>(2 * edge_index);
}

/// Reach budget of the sub-bound min-cut walk — same rationale as the κ
/// kernel's constant of the same name (vertex_connectivity.cpp).
constexpr std::size_t kMaxCutReach = 256;

struct PartialResult {
    int min_lambda = std::numeric_limits<int>::max();
    std::uint64_t sum = 0;
    std::uint64_t pairs = 0;
    std::uint64_t pairs_skipped = 0;
    std::uint64_t flows_capped = 0;
    std::uint64_t pairs_reused = 0;
};

/// Evaluates every sink of the (source, sink block) items handed out by
/// `cursor`, accumulating into a local result (returned by value;
/// aggregation stays deterministic for any worker count).
///
/// Degree-bound fast path: λ(u,v) ≤ min(out_degree(u), in_degree(v)) — every
/// u→v path consumes a distinct out-edge of u and in-edge of v. A zero bound
/// settles the pair without touching the network; otherwise the bound caps
/// the Dinic run, which stops augmenting the moment it is reached. Either
/// way the recorded λ is exact.
///
/// Path seeding (the λ analogue of the κ kernel's length-3 trick): the
/// direct edge u→v plus one two-hop path u→w→v per common neighbour
/// w ∈ out(u) ∩ in(v) are pairwise edge-disjoint — distinct first edges out
/// of u and distinct second edges into v. If they alone meet the bound the
/// pair settles with no flow run at all; otherwise they are saturated
/// directly into the workspace and Dinic tops up from the seeded residual
/// (a feasible integral flow is a legal warm start).
/// Delta reuse and certificate mode mirror the κ worker (see
/// vertex_connectivity.cpp): `gsel` — the original graph — drives source
/// degrees and sink bounds; `gflow` (== gsel unless a certificate is on)
/// is what the network, the reverse rows and the seeding walk. Settled
/// pairs are stored back with a two-sided witness: λ edge-disjoint paths
/// (the direct edge and two-hop candidates of the no-flow settle, or a
/// flow decomposition — flow/witness.h — of the seeded + Dinic flow) plus
/// a size-λ separating edge set — u's out-edges when the pair settles at
/// the out-degree bound, or the saturated edges crossing the
/// residual-reachable side (a minimum cut) when Dinic ends below the
/// bound.
PartialResult worker(const graph::Digraph& gsel, const graph::Digraph& gflow,
                     const graph::Digraph& rev, const FlowNetwork& base,
                     const SinkBlocks& items,
                     const std::vector<int>& in_degrees,
                     std::atomic<std::size_t>& cursor, PairReuseHook* reuse) {
    PartialResult result;
    // Claim an item before paying for the private workspace: late jobs
    // that find the cursor exhausted return without touching the network.
    std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= items.size()) return result;
    FlowWorkspace workspace(base);
    Dinic dinic;
    const int n = gsel.vertex_count();
    // Per-item adjacency position: adjacent_pos[v] = 1 + position of v in
    // out(u), 0 if no edge — one fill per item replaces per-sink binary
    // searches for the direct edge.
    std::vector<std::int64_t> adjacent_pos(static_cast<std::size_t>(n), 0);
    // Epoch-stamped membership in in(v) (no O(n) clear between pairs).
    std::vector<int> in_v_stamp(static_cast<std::size_t>(n), 0);
    // Witness scratch, allocated only when a reuse hook is attached:
    // path-decomposition buffers plus the residual-BFS state of the
    // sub-bound min-cut extraction.
    std::vector<int> witness;
    std::vector<int> offsets;
    std::vector<int> on_path;
    std::vector<int> reach_stamp;
    std::vector<int> reach_list;
    std::vector<int> cut_scratch;
    if (reuse != nullptr) {
        on_path.assign(static_cast<std::size_t>(n), 0);
        reach_stamp.assign(static_cast<std::size_t>(n), 0);
    }
    int epoch = 0;
    for (; index < items.size();
         index = cursor.fetch_add(1, std::memory_order_relaxed)) {
        const auto [u, v_lo, v_hi] = items[index];
        const int out_degree = gsel.out_degree(u);
        const auto out_u = gflow.out(u);
        const std::int64_t offset_u = gflow.edge_offset(u);
        for (std::size_t i = 0; i < out_u.size(); ++i) {
            adjacent_pos[static_cast<std::size_t>(out_u[i])] =
                static_cast<std::int64_t>(i) + 1;
        }
        for (int v = v_lo; v < v_hi; ++v) {
            if (v == u) continue;
            const int bound =
                std::min(out_degree, in_degrees[static_cast<std::size_t>(v)]);
            int lambda = 0;
            if (bound == 0) {
                ++result.pairs_skipped;
            } else if (reuse != nullptr && (lambda = reuse->lookup(u, v)) >= 0) {
                ++result.pairs_reused;
            } else {
                lambda = 0;
                ++epoch;
                const auto in_v = rev.out(v);
                for (const int x : in_v) in_v_stamp[static_cast<std::size_t>(x)] = epoch;
                // Count the candidate disjoint paths first: if they alone
                // meet the bound, λ = bound without touching the network.
                const std::int64_t direct_pos =
                    adjacent_pos[static_cast<std::size_t>(v)];
                int candidates = direct_pos > 0 ? 1 : 0;
                for (const int w : out_u) {
                    if (w != v && in_v_stamp[static_cast<std::size_t>(w)] == epoch) {
                        ++candidates;
                    }
                }
                if (candidates >= bound) {
                    lambda = bound;
                    ++result.flows_capped;
                    // Storable only when the bound is u's out-degree: then
                    // u's out-edges are a size-λ separating edge set. See
                    // the κ worker for why the in-degree-pinned case is
                    // skipped.
                    if (reuse != nullptr && bound == out_degree) {
                        witness.clear();
                        offsets.assign(1, 0);
                        int taken = 0;
                        if (direct_pos > 0) {
                            // The direct edge is a zero-length path.
                            offsets.push_back(0);
                            ++taken;
                        }
                        for (const int w : out_u) {
                            if (taken == bound) break;
                            if (w == v ||
                                in_v_stamp[static_cast<std::size_t>(w)] != epoch) {
                                continue;
                            }
                            witness.push_back(w);
                            offsets.push_back(static_cast<int>(witness.size()));
                            ++taken;
                        }
                        cut_scratch.clear();
                        for (const int w : gsel.out(u)) {
                            cut_scratch.push_back(u);
                            cut_scratch.push_back(w);
                        }
                        reuse->store(u, v, lambda, witness, offsets,
                                     cut_scratch);
                    }
                } else {
                    workspace.reset();  // touched-arc undo of the previous run
                    int seeded = 0;
                    if (direct_pos > 0) {
                        workspace.add_flow(edge_arc(offset_u + direct_pos - 1), 1);
                        ++seeded;
                    }
                    for (std::size_t i = 0; i < out_u.size(); ++i) {
                        const int w = out_u[i];
                        if (w == v || in_v_stamp[static_cast<std::size_t>(w)] != epoch) {
                            continue;
                        }
                        workspace.add_flow(
                            edge_arc(offset_u + static_cast<std::int64_t>(i)), 1);
                        const auto out_w = gflow.out(w);
                        const auto pos = static_cast<std::int64_t>(
                            std::lower_bound(out_w.begin(), out_w.end(), v) -
                            out_w.begin());
                        workspace.add_flow(edge_arc(gflow.edge_offset(w) + pos), 1);
                        ++seeded;
                    }
                    lambda = seeded + dinic.max_flow(workspace, u, v, bound - seeded);
                    if (lambda == bound) {
                        ++result.flows_capped;
                        if (reuse != nullptr && bound == out_degree) {
                            witness.clear();
                            offsets.assign(1, 0);
                            decompose_unit_flow(workspace, u, v, lambda, on_path,
                                                witness, offsets);
                            cut_scratch.clear();
                            for (const int w : gsel.out(u)) {
                                cut_scratch.push_back(u);
                                cut_scratch.push_back(w);
                            }
                            reuse->store(u, v, lambda, witness, offsets,
                                         cut_scratch);
                        }
                    } else if (reuse != nullptr) {
                        // λ ended below the cap: the workspace holds a
                        // maximum flow, and the saturated edges leaving the
                        // residual-reachable set are a minimum edge cut.
                        // Walk it before decomposing the paths (the
                        // decomposition consumes the flow); give up past a
                        // small reach budget, which would make later
                        // revalidation BFS runs as dear as a recompute.
                        reach_list.clear();
                        reach_list.push_back(u);
                        reach_stamp[static_cast<std::size_t>(u)] = epoch;
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
                            cut_scratch.clear();
                            for (const int x : reach_list) {
                                for (const int a : base.arcs_of(x)) {
                                    if (base.original_cap(a) <= 0) continue;
                                    const int y = base.arc_to(a);
                                    if (reach_stamp[static_cast<std::size_t>(
                                            y)] == epoch) {
                                        continue;
                                    }
                                    cut_scratch.push_back(x);
                                    cut_scratch.push_back(y);
                                }
                            }
                            if (static_cast<int>(cut_scratch.size()) ==
                                2 * lambda) {
                                witness.clear();
                                offsets.assign(1, 0);
                                decompose_unit_flow(workspace, u, v, lambda,
                                                    on_path, witness, offsets);
                                reuse->store(u, v, lambda, witness, offsets,
                                             cut_scratch);
                            }
                        }
                    }
                }
            }
            result.min_lambda = std::min(result.min_lambda, lambda);
            result.sum += static_cast<std::uint64_t>(lambda);
            ++result.pairs;
        }
        for (const int w : out_u) adjacent_pos[static_cast<std::size_t>(w)] = 0;
    }
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
                               PairReuseHook* reuse, exec::ThreadPool* pool) {
    const SinkBlocks items(sources, gsel.vertex_count());
    std::atomic<std::size_t> cursor{0};
    // Re-entrant calls (a pool task computing connectivity on its own pool)
    // run inline: the calling thread is already one of the pool's lanes.
    if (pool == nullptr || exec::ThreadPool::in_worker()) {
        return worker(gsel, gflow, rev, base, items, in_degrees, cursor, reuse);
    }

    const auto jobs = std::min(static_cast<std::size_t>(pool->size()),
                               std::max<std::size_t>(items.size(), 1) - 1);
    std::vector<std::future<PartialResult>> futures;
    futures.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
        futures.push_back(pool->submit(
            [&gsel, &gflow, &rev, &base, &items, &in_degrees, &cursor, reuse] {
                return worker(gsel, gflow, rev, base, items, in_degrees, cursor,
                              reuse);
            }));
    }
    // Every submitted job must be joined before this frame (holding the
    // graph, base network and cursor the jobs reference) can unwind — so
    // collect the first error but keep waiting.
    std::exception_ptr error;
    PartialResult combined;
    try {
        combined = worker(gsel, gflow, rev, base, items, in_degrees, cursor,
                          reuse);
    } catch (...) {
        error = std::current_exception();
    }
    for (auto& future : futures) {
        try {
            const PartialResult p = pool->wait_get(future);
            combined.min_lambda = std::min(combined.min_lambda, p.min_lambda);
            combined.sum += p.sum;
            combined.pairs += p.pairs;
            combined.pairs_skipped += p.pairs_skipped;
            combined.flows_capped += p.flows_capped;
            combined.pairs_reused += p.pairs_reused;
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    if (error) std::rethrow_exception(error);
    return combined;
}

}  // namespace

EdgeConnectivityResult edge_connectivity(const graph::Digraph& g,
                                         const EdgeConnectivityOptions& options) {
    EdgeConnectivityResult result;
    result.n = g.vertex_count();
    result.m = g.edge_count();
    if (result.n <= 1) {
        result.complete = true;
        return result;
    }
    if (g.is_complete()) {
        // Direct edge plus a two-hop path through every other vertex:
        // λ(u,v) = n − 1 = the degree bound for every pair.
        result.complete = true;
        result.lambda_min = result.n - 1;
        result.lambda_avg = static_cast<double>(result.n - 1);
        return result;
    }

    // In-degrees bound each sink's λ from above — always from the original
    // graph, never the certificate.
    const std::vector<int> in_degrees = g.in_degrees();
    const std::vector<int> sources = pick_smallest_out_degree_sources(
        g, options.sample_fraction, options.min_sources);

    graph::SparseCertificate cert;
    const graph::Digraph* flow_g = &g;
    if (options.use_certificate) {
        int k = 1;
        for (const int u : sources) k = std::max(k, g.out_degree(u) + 1);
        cert = graph::build_certificate(g, k);
        flow_g = &cert.graph;
        result.cert_edges_kept = static_cast<std::uint64_t>(cert.core_edges_kept);
        result.cert_build_us = cert.build_us;
    }
    const FlowNetwork base = unit_capacity_network(*flow_g);
    const graph::Digraph rev = flow_g->reversed();

    // Unlike κ there is no adjacency exclusion: every source sees all n−1
    // sinks, so the sampled pair set is never empty for n ≥ 2.
    const PartialResult combined = evaluate_sources(
        g, *flow_g, rev, base, sources, in_degrees, options.reuse, options.pool);
    KADSIM_ASSERT(combined.pairs > 0);
    result.lambda_min = combined.min_lambda;
    result.lambda_sum = combined.sum;
    result.lambda_avg =
        static_cast<double>(combined.sum) / static_cast<double>(combined.pairs);
    result.pairs_evaluated = combined.pairs;
    result.pairs_skipped = combined.pairs_skipped;
    result.flows_capped = combined.flows_capped;
    result.pairs_reused = combined.pairs_reused;
    result.sources_used = static_cast<int>(sources.size());
    return result;
}

int pair_edge_connectivity(const graph::Digraph& g, int u, int v) {
    const FlowNetwork net = unit_capacity_network(g);
    FlowWorkspace workspace(net);
    return pair_edge_connectivity(g, net, workspace, u, v);
}

int pair_edge_connectivity(const graph::Digraph& g, const FlowNetwork& net,
                           FlowWorkspace& workspace, int u, int v) {
    KADSIM_ASSERT(u != v);
    KADSIM_ASSERT(net.vertex_count() == g.vertex_count());
    KADSIM_ASSERT(&workspace.network() == &net);
    workspace.reset();
    Dinic dinic;
    return dinic.max_flow(workspace, u, v);
}

namespace {

/// u→v reachability using only edges whose global CSR index is not removed.
bool path_exists_avoiding_edges(const graph::Digraph& g, int u, int v,
                                const std::vector<bool>& removed_edge) {
    std::vector<int> queue{u};
    std::vector<bool> seen(static_cast<std::size_t>(g.vertex_count()), false);
    seen[static_cast<std::size_t>(u)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const int x = queue[head];
        const auto out = g.out(x);
        const auto offset = static_cast<std::size_t>(g.edge_offset(x));
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (removed_edge[offset + i]) continue;
            const int y = out[i];
            if (y == v) return true;
            const auto ys = static_cast<std::size_t>(y);
            if (seen[ys]) continue;
            seen[ys] = true;
            queue.push_back(y);
        }
    }
    return false;
}

}  // namespace

int pair_edge_connectivity_bruteforce(const graph::Digraph& g, int u, int v) {
    KADSIM_ASSERT(u != v);
    const auto m = static_cast<int>(g.edge_count());
    // Smallest set of edges (by global CSR index) whose removal disconnects
    // u from v, found by combination walking over subset sizes. λ(u,v) is
    // capped by out_degree(u) — removing every out-edge of u always works —
    // which keeps the enumeration tiny on oracle graphs.
    const int cap = std::min(g.out_degree(u), m);
    for (int size = 0; size <= cap; ++size) {
        std::vector<int> pick(static_cast<std::size_t>(size));
        std::iota(pick.begin(), pick.end(), 0);
        while (true) {
            std::vector<bool> removed(static_cast<std::size_t>(m), false);
            for (const int i : pick) removed[static_cast<std::size_t>(i)] = true;
            if (!path_exists_avoiding_edges(g, u, v, removed)) return size;

            // Next combination.
            int pos = size - 1;
            while (pos >= 0 && pick[static_cast<std::size_t>(pos)] == m - size + pos) {
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
    return cap;
}

}  // namespace kadsim::flow
