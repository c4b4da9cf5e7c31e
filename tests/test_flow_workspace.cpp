// The touched-arc undo log: randomized differential testing of the
// shared-structure kernel (capped Dinic on a reused workspace vs. exact
// push-relabel on a fresh one vs. the brute-force oracle), workspace-reuse
// purity across pairs, the kernel counters' contract, and the κ witness
// decomposition that reads its flow through the log.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "connectivity_oracles.h"
#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "flow/flow_workspace.h"
#include "flow/push_relabel.h"
#include "flow/vertex_connectivity.h"
#include "flow/witness.h"
#include "graph/digraph.h"
#include "sweep_fixtures.h"
#include "witness_oracle.h"

namespace kadsim::flow {
namespace {

using test_support::kademlia_like_graph;

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

// The log-driven κ decomposition emits exactly the row walk's paths, in the
// same order, and leaves the flow and its scratch as it found them. Flows
// come from Dinic on a reused workspace, uncapped and capped, some on top of
// the sweep's common-neighbour warm start.
TEST(EvenFlowDecomposition, LogWalkMatchesRowWalk) {
    int decomposed = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const int n = 12 + static_cast<int>(seed % 5) * 20;  // 12..92
        const int deg = 2 + static_cast<int>(seed % 7) * 3;
        const graph::Digraph g =
            kademlia_like_graph(n, deg, seed * 101, seed % 2 == 0 ? 0.9 : 0.3);
        const FlowNetwork net = even_transform(g);
        FlowWorkspace ws(net);
        Dinic dinic;
        std::vector<int> next_arc(static_cast<std::size_t>(net.vertex_count()), 0);
        std::vector<int> on_path(next_arc.size(), 0);
        const auto pairs = non_adjacent_pairs(g);
        for (std::size_t i = 0; i < pairs.size(); i += 1 + pairs.size() / 40) {
            const auto [u, v] = pairs[i];
            ws.reset();
            const int seeded =
                i % 3 == 0 ? test_support::seed_common_neighbours(g, ws, u, v) : 0;
            const int limit = i % 2 == 0 ? Dinic::kUnbounded : 2;
            const int value =
                seeded + dinic.max_flow(ws, out_vertex(u), in_vertex(v), limit);
            std::vector<int> caps(static_cast<std::size_t>(net.arc_count()));
            for (int a = 0; a < net.arc_count(); ++a) {
                caps[static_cast<std::size_t>(a)] = ws.cap(a);
            }

            std::vector<int> witness;
            std::vector<int> offsets{0};
            decompose_even_flow(ws, n, out_vertex(u), in_vertex(v), value, next_arc,
                                witness, offsets);
            for (int a = 0; a < net.arc_count(); ++a) {
                ASSERT_EQ(ws.cap(a), caps[static_cast<std::size_t>(a)]) << "flow changed";
            }
            ASSERT_TRUE(std::all_of(next_arc.begin(), next_arc.end(),
                                    [](int x) { return x == 0; }));

            std::vector<int> rows_witness;
            std::vector<int> rows_offsets{0};
            test_support::decompose_even_flow_rows(ws, n, out_vertex(u), in_vertex(v),
                                                   value, on_path, rows_witness,
                                                   rows_offsets);
            EXPECT_EQ(witness, rows_witness)
                << "seed " << seed << " pair (" << u << "," << v << ")";
            EXPECT_EQ(offsets, rows_offsets)
                << "seed " << seed << " pair (" << u << "," << v << ")";
            ASSERT_EQ(offsets.size(), static_cast<std::size_t>(value) + 1);
            ++decomposed;
        }
    }
    EXPECT_GT(decomposed, 500);
}

}  // namespace
}  // namespace kadsim::flow
