#include "flow/connectivity_sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <limits>
#include <span>
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

/// Reach budget of the sub-bound min-cut walk: a pair whose residual source
/// side exceeds this many network nodes is not stored — its revalidation
/// BFS would explore the same region on every later snapshot, eating the
/// reuse win. Bottlenecks hug the smallest-out-degree sources in practice,
/// so the typical source side is a handful of nodes.
constexpr std::size_t kMaxCutReach = 256;

/// Arc id of the connectivity-graph edge with global CSR index `edge_index`
/// in a unit_capacity_network (arcs alternate forward/reverse).
int unit_arc(std::int64_t edge_index) {
    return static_cast<int>(2 * edge_index);
}

/// One lane's totals for a pass. Integer min/sum aggregation, so merging
/// the lanes' results gives bit-identical totals for any lane count.
struct PartialResult {
    int min = std::numeric_limits<int>::max();
    std::uint64_t sum = 0;
    std::uint64_t pairs = 0;
    std::uint64_t pairs_skipped = 0;
    std::uint64_t flows_capped = 0;
    std::uint64_t pairs_reused = 0;
    /// Workspace counters (flow_workspace.h); κ reports them.
    std::uint64_t arcs_touched = 0;
    std::uint64_t full_resets_avoided = 0;
    std::uint64_t workspace_bytes = 0;

    void add(int value) {
        min = std::min(min, value);
        sum += static_cast<std::uint64_t>(value);
        ++pairs;
    }

    void merge(const PartialResult& other) {
        min = std::min(min, other.min);
        sum += other.sum;
        pairs += other.pairs;
        pairs_skipped += other.pairs_skipped;
        flows_capped += other.flows_capped;
        pairs_reused += other.pairs_reused;
        arcs_touched += other.arcs_touched;
        full_resets_avoided += other.full_resets_avoided;
        workspace_bytes += other.workspace_bytes;
    }
};

/// What every lane of one pass reads. `gsel` is the original graph: it
/// drives source degrees, sink bounds and κ's adjacency exclusion, which
/// must match the plain sweep bit-for-bit. `gflow` (== gsel unless the
/// certificate is on) is the graph the networks, the reverse rows and the
/// seeding walk: κ and λ computed on it equal their values on gsel for
/// every pair capped below the certificate order (graph/certificate.h).
struct Sweep {
    const graph::Digraph& gsel;
    const graph::Digraph& gflow;
    const graph::Digraph& rev;
    const std::vector<int>& in_degrees;
    const SinkBlocks& items;
    /// The κ pass runs on the Even network, the λ pass on the
    /// unit-capacity network.
    bool kappa;
    const FlowNetwork& net;
    bool use_push_relabel;
    PairReuseHook* reuse;  ///< this pass's hook, or nullptr
    /// Per item, bit v − v_lo: κ(u,v) met a nonzero degree bound, which
    /// settles λ(u,v). The κ pass sets the bits of the items it claims (one
    /// lane per item, so no two lanes write one word); the λ pass reads them.
    std::vector<std::uint64_t>& settled;
};

/// One lane's private state: a workspace on the pass's network plus the
/// per-pair scratch, allocated once and reused across every item the lane
/// claims.
class Lane {
public:
    explicit Lane(const Sweep& sweep);

    /// Evaluates every sink of item `index`: κ for each non-adjacent sink in
    /// the κ pass; λ for every sink in the λ pass — settled from κ's bit, or
    /// computed by its own pair body.
    void evaluate(std::size_t index);

    /// Flushes the last run into the workspace counters, so the totals do
    /// not depend on how pairs were distributed over lanes.
    PartialResult finish();

private:
    /// The item's source: u, its out-degree in the original graph, and its
    /// out-row (with global CSR offset) in the flow graph.
    struct Source {
        int u = 0;
        int out_degree = 0;
        std::span<const int> out;
        std::int64_t offset = 0;
    };

    int kappa_pair(const Source& s, int v, int bound);
    int lambda_pair(const Source& s, int v, int bound);
    /// Starts a pair's scratch epoch and stamps in(v) with it.
    void stamp_in(int v);
    /// Collects the residual-reachable side of `start` in `ws` into
    /// reach_list_ (stamped with the current epoch); false once it exceeds
    /// kMaxCutReach nodes.
    bool reach_residual(const FlowWorkspace& ws, int start);
    /// λ's storable cut when the pair settles at u's out-degree: u's
    /// out-edges of the original graph, as flattened (tail, head) pairs.
    void store_lambda_out_row(int u, int v, int lambda);

    const Sweep& sweep_;
    PartialResult result_;
    FlowWorkspace ws_;
    Dinic dinic_;
    PushRelabel push_relabel_;
    // Per-item adjacency, filled in O(out-degree) when an item is claimed:
    // κ skips the original graph's out-neighbours of u; λ seeds the direct
    // edge u→v from its position (+1, 0 = none) in the flow graph's row.
    std::vector<char> adjacent_;
    std::vector<int> direct_pos_;
    // Epoch-stamped per-pair sets (no O(n) clear between pairs): membership
    // in in(v) and "vertex already interior to a seeded path".
    std::vector<int> in_v_stamp_;
    std::vector<int> used_stamp_;
    // Witness scratch, allocated only when a reuse hook is attached:
    // path-decomposition buffers plus the residual-BFS state of the
    // sub-bound min-cut extraction (network-node reach set, per-vertex cut
    // dedupe, the cut itself).
    std::vector<int> witness_;
    std::vector<int> offsets_;
    std::vector<int> on_path_;
    std::vector<int> reach_stamp_;
    std::vector<int> reach_list_;
    std::vector<int> cut_stamp_;
    std::vector<int> cut_scratch_;
    int epoch_ = 0;
};

Lane::Lane(const Sweep& sweep) : sweep_(sweep), ws_(sweep.net) {
    const auto n = static_cast<std::size_t>(sweep.gsel.vertex_count());
    const auto nodes = static_cast<std::size_t>(sweep.net.vertex_count());
    if (sweep.kappa) {
        adjacent_.assign(n, 0);
        used_stamp_.assign(n, 0);
    } else {
        direct_pos_.assign(n, 0);
    }
    in_v_stamp_.assign(n, 0);
    if (sweep.reuse != nullptr) {
        on_path_.assign(nodes, 0);
        reach_stamp_.assign(nodes, 0);
        cut_stamp_.assign(n, 0);
    }
}

void Lane::evaluate(std::size_t index) {
    const auto [u, v_lo, v_hi] = sweep_.items[index];
    const Source s{u, sweep_.gsel.out_degree(u), sweep_.gflow.out(u),
                   sweep_.gflow.edge_offset(u)};
    // The item's settle word is read (λ pass) or written (κ pass) once, not
    // per sink: neighbouring items' words share cache lines across lanes.
    std::uint64_t settled = sweep_.kappa ? 0 : sweep_.settled[index];
    if (sweep_.kappa) {
        for (const int w : sweep_.gsel.out(u)) adjacent_[static_cast<std::size_t>(w)] = 1;
    } else {
        for (std::size_t i = 0; i < s.out.size(); ++i) {
            direct_pos_[static_cast<std::size_t>(s.out[i])] = static_cast<int>(i) + 1;
        }
    }
    for (int v = v_lo; v < v_hi; ++v) {
        if (v == u) continue;
        const int bound =
            std::min(s.out_degree, sweep_.in_degrees[static_cast<std::size_t>(v)]);
        const std::uint64_t bit = std::uint64_t{1} << (v - v_lo);
        if (sweep_.kappa) {
            if (adjacent_[static_cast<std::size_t>(v)] != 0) continue;
            const int kappa = kappa_pair(s, v, bound);
            result_.add(kappa);
            // κ ≤ λ ≤ bound: κ at a nonzero bound settles λ with no flow.
            if (bound > 0 && kappa == bound) settled |= bit;
        } else if ((settled & bit) != 0) {
            ++result_.flows_capped;
            result_.add(bound);
        } else {
            result_.add(lambda_pair(s, v, bound));
        }
    }
    if (sweep_.kappa) {
        for (const int w : sweep_.gsel.out(u)) adjacent_[static_cast<std::size_t>(w)] = 0;
        sweep_.settled[index] = settled;
    } else {
        for (const int w : s.out) direct_pos_[static_cast<std::size_t>(w)] = 0;
    }
}

PartialResult Lane::finish() {
    ws_.reset();
    result_.arcs_touched = ws_.stats().arcs_touched;
    result_.full_resets_avoided = ws_.stats().full_sweeps_avoided;
    result_.workspace_bytes = ws_.memory_bytes();
    return result_;
}

void Lane::stamp_in(int v) {
    ++epoch_;
    for (const int x : sweep_.rev.out(v)) in_v_stamp_[static_cast<std::size_t>(x)] = epoch_;
}

bool Lane::reach_residual(const FlowWorkspace& ws, int start) {
    const FlowNetwork& net = ws.network();
    reach_list_.clear();
    reach_list_.push_back(start);
    reach_stamp_[static_cast<std::size_t>(start)] = epoch_;
    for (std::size_t head = 0; head < reach_list_.size(); ++head) {
        for (const int a : net.arcs_of(reach_list_[head])) {
            if (ws.cap(a) <= 0) continue;
            const auto y = static_cast<std::size_t>(net.arc_to(a));
            if (reach_stamp_[y] == epoch_) continue;
            reach_stamp_[y] = epoch_;
            reach_list_.push_back(static_cast<int>(y));
        }
        if (reach_list_.size() > kMaxCutReach) return false;
    }
    return true;
}

/// κ(u,v) for a non-adjacent pair.
///
/// Degree-bound fast path: κ(u,v) ≤ bound — every u→v path consumes a
/// distinct out-edge of u and in-edge of v. A zero bound settles the pair
/// without touching the network; otherwise the bound caps the Dinic run,
/// which stops augmenting (skipping the final certifying BFS) the moment
/// the bound is reached. Either way the recorded κ is exact.
///
/// Path seeding: every shortest augmenting path in a fresh Even network is
/// u''→w'→w''→v' for a common neighbour w ∈ out(u) ∩ in(v), and each w
/// carries exactly one unit (its internal arc). The lane finds them with an
/// epoch-stamped membership test on rev.out(v) and either settles the pair
/// outright (|common| ≥ bound ⇒ κ = bound, no flow run) or saturates those
/// paths directly — the exact blocking flow of the first Dinic phase. It then
/// greedily packs vertex-disjoint length-5 paths u''→w'→w''→x'→x''→v'
/// (w ∈ out(u), x ∈ in(v), edge w→x, all interior vertices unused) by
/// scanning neighbour rows. The greedy packing need not be maximum: any
/// valid integral flow is a legal warm start, and Dinic's residual phases
/// correct it. When seeding alone reaches the bound the pair finishes
/// without a single BFS; otherwise Dinic tops up from the seeded residual.
///
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
/// the hook, so results stay bit-identical for any lane count.
int Lane::kappa_pair(const Source& s, int v, int bound) {
    if (bound == 0) {
        ++result_.pairs_skipped;
        return 0;
    }
    PairReuseHook* const reuse = sweep_.reuse;
    if (reuse != nullptr) {
        const int reused = reuse->lookup(s.u, v);
        if (reused >= 0) {
            ++result_.pairs_reused;
            return reused;
        }
    }
    const int u = s.u;
    if (sweep_.use_push_relabel) {
        // Push-relabel has no cheap early exit; run it exact.
        ws_.reset();  // touched-arc undo of the previous run
        return push_relabel_.max_flow(ws_, out_vertex(u), in_vertex(v));
    }
    const graph::Digraph& gflow = sweep_.gflow;
    const int n = gflow.vertex_count();
    stamp_in(v);
    // Count the common neighbours first: if they alone meet the bound,
    // κ = bound without touching the network.
    int common = 0;
    for (const int w : s.out) {
        if (in_v_stamp_[static_cast<std::size_t>(w)] == epoch_) ++common;
    }
    if (common >= bound) {
        ++result_.flows_capped;
        // Storable only when the bound is u's out-degree: then u's out-row
        // is a size-κ separating set (removing all of u's successors
        // isolates it). An in-degree-pinned settle has no cheap cut here —
        // in(v) of the original graph is not materialized in this lane —
        // and the smallest-out-degree source selection makes that the rare
        // case.
        if (reuse != nullptr && bound == s.out_degree) {
            witness_.clear();
            offsets_.assign(1, 0);
            int taken = 0;
            for (const int w : s.out) {
                if (taken == bound) break;
                if (in_v_stamp_[static_cast<std::size_t>(w)] != epoch_) continue;
                witness_.push_back(w);
                offsets_.push_back(static_cast<int>(witness_.size()));
                ++taken;
            }
            reuse->store(u, v, bound, witness_, offsets_, sweep_.gsel.out(u));
        }
        return bound;
    }
    ws_.reset();  // touched-arc undo of the previous run
    // Saturate every length-3 path: one unit through each common
    // neighbour's internal arc. This is the blocking flow of the first
    // Dinic phase (any length-3 path uses some common w, now saturated).
    int seeded = 0;
    for (std::size_t i = 0; i < s.out.size(); ++i) {
        const int w = s.out[i];
        if (in_v_stamp_[static_cast<std::size_t>(w)] != epoch_) continue;
        used_stamp_[static_cast<std::size_t>(w)] = epoch_;
        ws_.add_flow(edge_arc(n, s.offset + static_cast<std::int64_t>(i)), 1);
        ws_.add_flow(internal_arc(w), 1);
        const auto out_w = gflow.out(w);
        const auto pos = static_cast<std::int64_t>(
            std::lower_bound(out_w.begin(), out_w.end(), v) - out_w.begin());
        ws_.add_flow(edge_arc(n, gflow.edge_offset(w) + pos), 1);
        ++seeded;
    }
    // Greedily pack disjoint length-5 paths through unused w ∈ out(u),
    // x ∈ in(v) with an edge w→x. u and v are never interior (u ∉ in(v) by
    // non-adjacency, v ∉ out(w) candidates because x carries the in(v)
    // stamp, and v ∈ in(v) is impossible — no self-loops).
    for (std::size_t i = 0; i < s.out.size() && seeded < bound; ++i) {
        const int w = s.out[i];
        if (used_stamp_[static_cast<std::size_t>(w)] == epoch_) continue;
        const auto out_w = gflow.out(w);
        for (std::size_t j = 0; j < out_w.size(); ++j) {
            const int x = out_w[j];
            const auto xs = static_cast<std::size_t>(x);
            if (in_v_stamp_[xs] != epoch_ || used_stamp_[xs] == epoch_) continue;
            used_stamp_[static_cast<std::size_t>(w)] = epoch_;
            used_stamp_[xs] = epoch_;
            ws_.add_flow(edge_arc(n, s.offset + static_cast<std::int64_t>(i)), 1);
            ws_.add_flow(internal_arc(w), 1);
            ws_.add_flow(
                edge_arc(n, gflow.edge_offset(w) + static_cast<std::int64_t>(j)), 1);
            ws_.add_flow(internal_arc(x), 1);
            const auto out_x = gflow.out(x);
            const auto pos = static_cast<std::int64_t>(
                std::lower_bound(out_x.begin(), out_x.end(), v) - out_x.begin());
            ws_.add_flow(edge_arc(n, gflow.edge_offset(x) + pos), 1);
            ++seeded;
            break;
        }
    }
    const int kappa =
        seeded >= bound ? bound
                        : seeded + dinic_.max_flow(ws_, out_vertex(u),
                                                   in_vertex(v), bound - seeded);
    if (kappa == bound) {
        ++result_.flows_capped;
        if (reuse != nullptr && bound == s.out_degree) {
            // The workspace holds the full seeded + Dinic flow of value
            // κ = bound; decompose it into the disjoint-path witness. The
            // walk consumes only already-logged arcs, so the counters and
            // the next reset are untouched. The cut is u's out-row (see the
            // no-flow settle above).
            witness_.clear();
            offsets_.assign(1, 0);
            decompose_even_flow(ws_, n, out_vertex(u), in_vertex(v), kappa,
                                on_path_, witness_, offsets_);
            reuse->store(u, v, kappa, witness_, offsets_, sweep_.gsel.out(u));
        }
    } else if (reuse != nullptr && reach_residual(ws_, out_vertex(u))) {
        // κ ended below the cap, so Dinic ran out of augmenting paths and
        // the workspace holds a *maximum* flow: the residual-reachable side
        // of the Even network yields a minimum vertex cut. It is walked
        // before decomposing the paths (the decomposition consumes the
        // flow). Crossing forward arcs map to vertices: an internal arc 2w
        // names w; an edge arc x″→y′ names y (on every path through that
        // edge), or its tail x when y is the sink. Injective — two crossing
        // arcs never name one vertex — so the cut has exactly κ members;
        // the defensive size check below costs nothing.
        const FlowNetwork& net = sweep_.net;
        cut_scratch_.clear();
        for (const int z : reach_list_) {
            for (const int a : net.arcs_of(z)) {
                if (net.original_cap(a) <= 0) continue;
                const int y = net.arc_to(a);
                if (reach_stamp_[static_cast<std::size_t>(y)] == epoch_) continue;
                const int member = a < 2 * n ? a / 2 : y / 2 == v ? z / 2 : y / 2;
                const auto ms = static_cast<std::size_t>(member);
                if (cut_stamp_[ms] != epoch_) {
                    cut_stamp_[ms] = epoch_;
                    cut_scratch_.push_back(member);
                }
            }
        }
        if (static_cast<int>(cut_scratch_.size()) == kappa) {
            witness_.clear();
            offsets_.assign(1, 0);
            decompose_even_flow(ws_, n, out_vertex(u), in_vertex(v), kappa,
                                on_path_, witness_, offsets_);
            reuse->store(u, v, kappa, witness_, offsets_, cut_scratch_);
        }
    }
    return kappa;
}

/// λ(u,v) for any pair, adjacent or not — the same degree-bound fast path
/// and delta reuse as κ (see kappa_pair), on the unit-capacity network.
///
/// Path seeding (the λ analogue of κ's length-3 trick): the direct edge
/// u→v plus one two-hop path u→w→v per common neighbour
/// w ∈ out(u) ∩ in(v) are pairwise edge-disjoint — distinct first edges out
/// of u and distinct second edges into v. If they alone meet the bound the
/// pair settles with no flow run at all; otherwise they are saturated
/// directly into the workspace and Dinic tops up from the seeded residual
/// (a feasible integral flow is a legal warm start).
///
/// Settled pairs are stored back with a two-sided witness: λ edge-disjoint
/// paths (the direct edge and two-hop candidates of the no-flow settle, or
/// a flow decomposition — flow/witness.h — of the seeded + Dinic flow) plus
/// a size-λ separating edge set — u's out-edges when the pair settles at
/// the out-degree bound, or the saturated edges crossing the
/// residual-reachable side (a minimum cut) when Dinic ends below the bound.
int Lane::lambda_pair(const Source& s, int v, int bound) {
    if (bound == 0) {
        ++result_.pairs_skipped;
        return 0;
    }
    PairReuseHook* const reuse = sweep_.reuse;
    if (reuse != nullptr) {
        const int reused = reuse->lookup(s.u, v);
        if (reused >= 0) {
            ++result_.pairs_reused;
            return reused;
        }
    }
    const int u = s.u;
    stamp_in(v);
    // Count the candidate disjoint paths first: if they alone meet the
    // bound, λ = bound without touching the network.
    const int direct_pos = direct_pos_[static_cast<std::size_t>(v)];
    int candidates = direct_pos > 0 ? 1 : 0;
    for (const int w : s.out) {
        if (w != v && in_v_stamp_[static_cast<std::size_t>(w)] == epoch_) ++candidates;
    }
    if (candidates >= bound) {
        ++result_.flows_capped;
        // Storable only when the bound is u's out-degree (see kappa_pair).
        if (reuse != nullptr && bound == s.out_degree) {
            witness_.clear();
            offsets_.assign(1, 0);
            int taken = 0;
            if (direct_pos > 0) {
                // The direct edge is a zero-length path.
                offsets_.push_back(0);
                ++taken;
            }
            for (const int w : s.out) {
                if (taken == bound) break;
                if (w == v || in_v_stamp_[static_cast<std::size_t>(w)] != epoch_) continue;
                witness_.push_back(w);
                offsets_.push_back(static_cast<int>(witness_.size()));
                ++taken;
            }
            store_lambda_out_row(u, v, bound);
        }
        return bound;
    }
    ws_.reset();  // touched-arc undo of the previous run
    const graph::Digraph& gflow = sweep_.gflow;
    int seeded = 0;
    if (direct_pos > 0) {
        ws_.add_flow(unit_arc(s.offset + direct_pos - 1), 1);
        ++seeded;
    }
    for (std::size_t i = 0; i < s.out.size(); ++i) {
        const int w = s.out[i];
        if (w == v || in_v_stamp_[static_cast<std::size_t>(w)] != epoch_) continue;
        ws_.add_flow(unit_arc(s.offset + static_cast<std::int64_t>(i)), 1);
        const auto out_w = gflow.out(w);
        const auto pos = static_cast<std::int64_t>(
            std::lower_bound(out_w.begin(), out_w.end(), v) - out_w.begin());
        ws_.add_flow(unit_arc(gflow.edge_offset(w) + pos), 1);
        ++seeded;
    }
    const int lambda = seeded + dinic_.max_flow(ws_, u, v, bound - seeded);
    if (lambda == bound) {
        ++result_.flows_capped;
        if (reuse != nullptr && bound == s.out_degree) {
            witness_.clear();
            offsets_.assign(1, 0);
            decompose_unit_flow(ws_, u, v, lambda, on_path_, witness_, offsets_);
            store_lambda_out_row(u, v, lambda);
        }
    } else if (reuse != nullptr && reach_residual(ws_, u)) {
        // λ ended below the cap: the workspace holds a maximum flow, and
        // the saturated edges leaving the residual-reachable set are a
        // minimum edge cut (walked before the decomposition consumes the
        // flow).
        const FlowNetwork& net = sweep_.net;
        cut_scratch_.clear();
        for (const int x : reach_list_) {
            for (const int a : net.arcs_of(x)) {
                if (net.original_cap(a) <= 0) continue;
                const int y = net.arc_to(a);
                if (reach_stamp_[static_cast<std::size_t>(y)] == epoch_) continue;
                cut_scratch_.push_back(x);
                cut_scratch_.push_back(y);
            }
        }
        if (static_cast<int>(cut_scratch_.size()) == 2 * lambda) {
            witness_.clear();
            offsets_.assign(1, 0);
            decompose_unit_flow(ws_, u, v, lambda, on_path_, witness_, offsets_);
            reuse->store(u, v, lambda, witness_, offsets_, cut_scratch_);
        }
    }
    return lambda;
}

void Lane::store_lambda_out_row(int u, int v, int lambda) {
    cut_scratch_.clear();
    for (const int w : sweep_.gsel.out(u)) {
        cut_scratch_.push_back(u);
        cut_scratch_.push_back(w);
    }
    sweep_.reuse->store(u, v, lambda, witness_, offsets_, cut_scratch_);
}

/// The sweep's one claim loop: takes (source, sink block) items off the
/// shared cursor until none are left and returns the lane's totals by
/// value, for one merge at the join.
PartialResult worker(const Sweep& sweep, std::atomic<std::size_t>& cursor) {
    // Claim an item before paying for the private workspaces: late jobs
    // that find the cursor exhausted return without touching a network.
    std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= sweep.items.size()) return {};
    Lane lane(sweep);
    for (; index < sweep.items.size();
         index = cursor.fetch_add(1, std::memory_order_relaxed)) {
        lane.evaluate(index);
    }
    return lane.finish();
}

/// Evaluates every item on the pool (caller participates; lane jobs are
/// non-blocking, so this is safe even on a busy shared pool). Aggregation
/// is an integer min/sum over per-lane locals: bit-identical for any job
/// count.
PartialResult evaluate_sources(const Sweep& sweep, exec::ThreadPool* pool) {
    std::atomic<std::size_t> cursor{0};
    // Re-entrant calls (a pool task computing connectivity on its own pool)
    // run inline: the calling thread is already one of the pool's lanes.
    if (pool == nullptr || exec::ThreadPool::in_worker()) return worker(sweep, cursor);

    // The caller is a lane too, so more than items-1 helper jobs can never
    // all claim work.
    const auto jobs = std::min(static_cast<std::size_t>(pool->size()),
                               std::max<std::size_t>(sweep.items.size(), 1) - 1);
    std::vector<std::future<PartialResult>> futures;
    futures.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
        futures.push_back(pool->submit([&sweep, &cursor] { return worker(sweep, cursor); }));
    }
    // Every submitted job must be joined before this frame (holding the
    // cursor, and the caller's frame the sweep state the jobs reference)
    // can unwind — so collect the first error but keep waiting.
    std::exception_ptr error;
    PartialResult combined;
    try {
        combined = worker(sweep, cursor);
    } catch (...) {
        error = std::current_exception();
    }
    for (auto& future : futures) {
        try {
            combined.merge(pool->wait_get(future));
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    if (error) std::rethrow_exception(error);
    return combined;
}

/// The sweep behind all three entry points; `kappa_on` / `lambda_on`
/// select the passes it runs.
ConnectivitySweepResult run_sweep(const graph::Digraph& g,
                                  const ConnectivityOptions& options, bool kappa_on,
                                  bool lambda_on, PairReuseHook* lambda_reuse) {
    ConnectivitySweepResult out;
    ConnectivityResult& kappa = out.kappa;
    EdgeConnectivityResult& lambda = out.lambda;
    const int n = g.vertex_count();
    kappa.n = lambda.n = n;
    kappa.m = lambda.m = g.edge_count();
    if (n <= 1) {
        kappa.complete = lambda.complete = true;
        return out;
    }
    if (g.is_complete()) {
        // §4.4: every pair adjacent ⇒ κ = n − 1. The direct edge plus a
        // two-hop path through every other vertex give λ(u,v) = n − 1, the
        // degree bound, for every pair.
        kappa.complete = lambda.complete = true;
        kappa.kappa_min = lambda.lambda_min = n - 1;
        kappa.kappa_avg = lambda.lambda_avg = static_cast<double>(n - 1);
        return out;
    }

    // In-degrees bound each sink's κ and λ from above — always from the
    // original graph, never the certificate; one pass per snapshot graph.
    const std::vector<int> in_degrees = g.in_degrees();
    const std::vector<int> sources =
        pick_smallest_out_degree_sources(g, options.sample_fraction, options.min_sources);
    kappa.sources_used = lambda.sources_used = static_cast<int>(sources.size());
    graph::SparseCertificate cert;
    const graph::Digraph* flow_g = &g;
    if (options.use_certificate) {
        int k = 1;
        for (const int u : sources) k = std::max(k, g.out_degree(u) + 1);
        cert = graph::build_certificate(g, k);
        flow_g = &cert.graph;
        kappa.cert_edges_kept = lambda.cert_edges_kept =
            static_cast<std::uint64_t>(cert.core_edges_kept);
        kappa.cert_build_us = lambda.cert_build_us = cert.build_us;
    }
    // The reversed graph gives lanes each sink's sorted in-neighbour row for
    // the seeding — rows of the flow graph, like the networks themselves.
    const graph::Digraph rev = flow_g->reversed();
    const SinkBlocks items(sources, n);
    static_assert(kSinkBlock <= 64, "one settle bit per sink of an item");
    std::vector<std::uint64_t> settled(items.size(), 0);
    const auto pass = [&](bool kappa_pass, const FlowNetwork& net, PairReuseHook* reuse) {
        return evaluate_sources(Sweep{g, *flow_g, rev, in_degrees, items, kappa_pass, net,
                                      options.use_push_relabel, reuse, settled},
                                options.pool);
    };
    // Each network lives only through its own pass, so the sweep's peak
    // memory is the larger pass, not both.
    if (kappa_on) {
        const FlowNetwork even_net = even_transform(*flow_g);
        const PartialResult r = pass(true, even_net, options.reuse);
        // The smallest-out-degree vertex is always a source, and in a
        // non-complete graph (edges deduped, no self-loops) its out-degree
        // is at most n − 2, so it has a non-adjacent sink.
        KADSIM_ASSERT_MSG(r.pairs > 0, "non-complete graph must have a non-adjacent pair");
        kappa.kappa_min = r.min;
        kappa.kappa_sum = r.sum;
        kappa.kappa_avg = static_cast<double>(r.sum) / static_cast<double>(r.pairs);
        kappa.pairs_evaluated = r.pairs;
        kappa.pairs_skipped = r.pairs_skipped;
        kappa.flows_capped = r.flows_capped;
        kappa.pairs_reused = r.pairs_reused;
        kappa.arcs_touched = r.arcs_touched;
        kappa.full_resets_avoided = r.full_resets_avoided;
        kappa.arena_bytes = even_net.memory_bytes() + r.workspace_bytes;
    }
    if (lambda_on) {
        const FlowNetwork unit_net = unit_capacity_network(*flow_g);
        const PartialResult r = pass(false, unit_net, lambda_reuse);
        // Every source sees all n − 1 sinks, so λ's pair set is never empty.
        KADSIM_ASSERT(r.pairs > 0);
        lambda.lambda_min = r.min;
        lambda.lambda_sum = r.sum;
        lambda.lambda_avg = static_cast<double>(r.sum) / static_cast<double>(r.pairs);
        lambda.pairs_evaluated = r.pairs;
        lambda.pairs_skipped = r.pairs_skipped;
        lambda.flows_capped = r.flows_capped;
        lambda.pairs_reused = r.pairs_reused;
    }
    return out;
}

}  // namespace

ConnectivitySweepResult connectivity_sweep(const graph::Digraph& g,
                                           const ConnectivityOptions& options,
                                           PairReuseHook* lambda_reuse) {
    return run_sweep(g, options, true, true, lambda_reuse);
}

ConnectivityResult vertex_connectivity(const graph::Digraph& g,
                                       const ConnectivityOptions& options) {
    return run_sweep(g, options, true, false, nullptr).kappa;
}

EdgeConnectivityResult edge_connectivity(const graph::Digraph& g,
                                         const EdgeConnectivityOptions& options) {
    ConnectivityOptions sweep_options;
    sweep_options.sample_fraction = options.sample_fraction;
    sweep_options.min_sources = options.min_sources;
    sweep_options.pool = options.pool;
    sweep_options.use_certificate = options.use_certificate;
    return run_sweep(g, sweep_options, false, true, options.reuse).lambda;
}

}  // namespace kadsim::flow
