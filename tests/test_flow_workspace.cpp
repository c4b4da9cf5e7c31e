// The touched-arc undo log: randomized differential testing of the
// shared-structure kernel (capped Dinic on a reused workspace vs. exact
// push-relabel on a fresh one vs. the brute-force oracle), plus
// workspace-reuse purity across pairs and the kernel counters' contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "connectivity_oracles.h"
#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "flow/flow_workspace.h"
#include "flow/push_relabel.h"
#include "flow/vertex_connectivity.h"
#include "graph/digraph.h"
#include "util/rng.h"

namespace kadsim::flow {
namespace {

/// Kademlia-like connectivity graph at tiny n: target out-degree `deg`,
/// mostly reciprocated edges (same shape as the micro-bench generator).
graph::Digraph kademlia_like_graph(int n, int deg, std::uint64_t seed) {
    util::Rng rng(seed);
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int j = 0; j < deg; ++j) {
            const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (v == u) continue;
            g.add_edge(u, v);
            if (rng.next_bool(0.9)) g.add_edge(v, u);
        }
    }
    g.finalize();
    return g;
}

std::vector<std::pair<int, int>> non_adjacent_pairs(const graph::Digraph& g) {
    std::vector<std::pair<int, int>> pairs;
    for (int u = 0; u < g.vertex_count(); ++u) {
        for (int v = 0; v < g.vertex_count(); ++v) {
            if (u != v && !g.has_edge(u, v)) pairs.emplace_back(u, v);
        }
    }
    return pairs;
}

// ~100 seeded graphs: every non-adjacent pair must agree between the capped
// Dinic running on ONE workspace reused via touched-arc resets and an exact
// push-relabel on a fresh workspace per pair (no reset path at all). The
// brute-force oracle double-checks a deterministic subset of pairs.
TEST(FlowWorkspaceDifferential, TouchedArcDinicVsExactPushRelabelVsBruteforce) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const int n = 6 + static_cast<int>(seed % 4);  // 6..9
        const graph::Digraph g = kademlia_like_graph(n, 2, seed);
        const std::vector<int> in_degrees = g.in_degrees();
        const FlowNetwork net = even_transform(g);
        FlowWorkspace reused(net);
        Dinic dinic;
        PushRelabel push_relabel;

        const auto pairs = non_adjacent_pairs(g);
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            const auto [u, v] = pairs[i];
            const int bound =
                std::min(g.out_degree(u), in_degrees[static_cast<std::size_t>(v)]);
            reused.reset();
            const int capped =
                dinic.max_flow(reused, out_vertex(u), in_vertex(v), bound);

            FlowWorkspace fresh(net);
            const int exact =
                push_relabel.max_flow(fresh, out_vertex(u), in_vertex(v));
            EXPECT_EQ(capped, exact)
                << "seed " << seed << " pair (" << u << "," << v << ")";

            if (i % 7 == 0) {  // oracle on a deterministic subset (it is slow)
                EXPECT_EQ(exact, test_support::pair_vertex_connectivity_bruteforce(g, u, v))
                    << "seed " << seed << " pair (" << u << "," << v << ")";
            }
        }
    }
}

// Reusing one workspace across pairs must be pure: recomputing a pair after
// arbitrary interleaved work gives the same κ as a fresh workspace, and a
// reset leaves every arc at its as-built capacity.
TEST(FlowWorkspacePurity, ReuseAcrossPairsMatchesFreshWorkspace) {
    const graph::Digraph g = kademlia_like_graph(12, 3, 42);
    const FlowNetwork net = even_transform(g);
    FlowWorkspace reused(net);
    const auto pairs = non_adjacent_pairs(g);
    ASSERT_GE(pairs.size(), 3u);

    // First sweep on the reused workspace.
    std::vector<int> first;
    for (const auto& [u, v] : pairs) {
        first.push_back(pair_vertex_connectivity(g, net, reused, u, v));
    }
    // Second sweep in reverse order: every value must replay identically.
    for (std::size_t i = pairs.size(); i-- > 0;) {
        const auto [u, v] = pairs[i];
        EXPECT_EQ(pair_vertex_connectivity(g, net, reused, u, v), first[i])
            << "pair (" << u << "," << v << ") not pure under reuse";
    }
    // And against fresh workspaces (the convenience overload).
    for (std::size_t i = 0; i < pairs.size(); i += 5) {
        const auto [u, v] = pairs[i];
        EXPECT_EQ(pair_vertex_connectivity(g, u, v), first[i]);
    }
    // After a final reset, the residual capacities are exactly as built.
    reused.reset();
    for (int a = 0; a < net.arc_count(); ++a) {
        ASSERT_EQ(reused.cap(a), net.original_cap(a)) << "arc " << a;
    }
}

TEST(FlowWorkspaceCounters, ResetIsTouchedNotFullSweep) {
    const graph::Digraph g = kademlia_like_graph(64, 4, 7);
    const FlowNetwork net = even_transform(g);
    FlowWorkspace ws(net);
    Dinic dinic;
    const auto pairs = non_adjacent_pairs(g);
    ASSERT_GE(pairs.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        ws.reset();
        (void)dinic.max_flow(ws, out_vertex(pairs[i].first),
                             in_vertex(pairs[i].second));
    }
    ws.reset();  // flush the last run
    const auto& stats = ws.stats();
    // Every counted reset had a non-empty log, shorter than the arc array:
    // the undo did strictly less work than m+n full sweeps would have.
    EXPECT_GT(stats.resets, 0u);
    EXPECT_EQ(stats.full_sweeps_avoided, stats.resets);
    EXPECT_LT(stats.arcs_touched,
              stats.resets * static_cast<std::uint64_t>(net.arc_count()));
}

// The counters surface through vertex_connectivity and are thread-count
// independent (per-pair work is deterministic; sums are commutative).
TEST(FlowWorkspaceCounters, SurfaceThroughConnectivityResult) {
    const graph::Digraph g = kademlia_like_graph(48, 4, 11);
    const auto r = vertex_connectivity(g);
    EXPECT_GT(r.pairs_evaluated, 0u);
    EXPECT_GT(r.arcs_touched, 0u);
    EXPECT_GT(r.full_resets_avoided, 0u);
    EXPECT_GT(r.arena_bytes, 0u);
}

}  // namespace
}  // namespace kadsim::flow
