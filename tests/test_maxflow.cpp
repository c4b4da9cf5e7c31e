// Max-flow solvers: known values, limits, workspace reuse, the
// cross-solver equality property (push-relabel ≡ Dinic ≡ Edmonds–Karp), and
// flow identity: the bidirectional Dinic leaves the one-sided Dinic's
// residual network, arc for arc.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dinic_oracle.h"
#include "edmonds_karp_oracle.h"
#include "flow/dinic.h"
#include "flow/edge_connectivity.h"
#include "flow/even_transform.h"
#include "flow/flow_network.h"
#include "flow/flow_workspace.h"
#include "flow/mincut.h"
#include "flow/push_relabel.h"
#include "graph/digraph.h"
#include "sweep_fixtures.h"
#include "util/rng.h"

namespace kadsim::flow {
namespace {

FlowNetwork diamond() {
    // s=0 → {1,2} → t=3, plus a cross edge 1→2.
    FlowNetwork net(4);
    net.add_arc(0, 1, 3);
    net.add_arc(0, 2, 2);
    net.add_arc(1, 3, 2);
    net.add_arc(2, 3, 3);
    net.add_arc(1, 2, 5);
    net.finalize();
    return net;
}

TEST(Dinic, DiamondValue) {
    const FlowNetwork net = diamond();
    FlowWorkspace ws(net);
    Dinic solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 3), 5);
}

TEST(EdmondsKarp, DiamondValue) {
    const FlowNetwork net = diamond();
    FlowWorkspace ws(net);
    test_support::EdmondsKarp solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 3), 5);
}

TEST(PushRelabel, DiamondValue) {
    const FlowNetwork net = diamond();
    FlowWorkspace ws(net);
    PushRelabel solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 3), 5);
}

TEST(Dinic, DisconnectedIsZero) {
    FlowNetwork net(4);
    net.add_arc(0, 1, 5);
    net.add_arc(2, 3, 5);
    net.finalize();
    FlowWorkspace ws(net);
    Dinic solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 3), 0);
}

TEST(Dinic, FlowLimitStopsEarly) {
    FlowNetwork net(2);
    net.add_arc(0, 1, 100);
    net.finalize();
    FlowWorkspace ws(net);
    Dinic solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 1, 7), 7);
}

TEST(EdmondsKarp, FlowLimitStopsEarly) {
    FlowNetwork net(2);
    net.add_arc(0, 1, 100);
    net.finalize();
    FlowWorkspace ws(net);
    test_support::EdmondsKarp solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 1, 7), 7);
}

TEST(FlowWorkspace, ResetRestoresCapacities) {
    const FlowNetwork net = diamond();
    FlowWorkspace ws(net);
    Dinic solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 3), 5);
    ws.reset();
    for (int a = 0; a < net.arc_count(); ++a) {
        EXPECT_EQ(ws.cap(a), net.original_cap(a)) << "arc " << a;
    }
    EXPECT_EQ(solver.max_flow(ws, 0, 3), 5);  // identical after reset
}

TEST(FlowWorkspace, ResetUndoesOnlyTouchedArcs) {
    const FlowNetwork net = diamond();
    FlowWorkspace ws(net);
    Dinic solver;
    (void)solver.max_flow(ws, 0, 3);
    ws.reset();
    const auto& stats = ws.stats();
    EXPECT_EQ(stats.resets, 1u);
    EXPECT_GT(stats.arcs_touched, 0u);
    EXPECT_LE(stats.arcs_touched, static_cast<std::uint64_t>(net.arc_count()));
    // A reset with nothing touched is free and uncounted.
    ws.reset();
    EXPECT_EQ(ws.stats().resets, 1u);
}

TEST(FlowWorkspace, FlowOnTracksSaturation) {
    FlowNetwork net(3);
    const int a01 = net.add_arc(0, 1, 4);
    const int a12 = net.add_arc(1, 2, 3);
    net.finalize();
    FlowWorkspace ws(net);
    Dinic solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 2), 3);
    EXPECT_EQ(ws.flow_on(a01), 3);
    EXPECT_EQ(ws.flow_on(a12), 3);
}

TEST(FlowNetwork, CsrAdjacencyPreservesArcOrderAndEndpoints) {
    const FlowNetwork net = diamond();
    // Vertex 0 emits forward arcs 0 (0→1) and 2 (0→2), in insertion order.
    const auto arcs0 = net.arcs_of(0);
    ASSERT_EQ(arcs0.size(), 2u);
    EXPECT_EQ(arcs0[0], 0);
    EXPECT_EQ(arcs0[1], 2);
    EXPECT_EQ(net.arc_to(0), 1);
    EXPECT_EQ(net.arc_to(2), 2);
    // Vertex 3 holds the reverse stubs of arcs 4 (1→3) and 6 (2→3).
    const auto arcs3 = net.arcs_of(3);
    ASSERT_EQ(arcs3.size(), 2u);
    EXPECT_EQ(arcs3[0], 5);
    EXPECT_EQ(arcs3[1], 7);
    // The tail of any arc is the head of its pair.
    for (int a = 0; a < net.arc_count(); ++a) {
        bool found = false;
        for (const int id : net.arcs_of(net.arc_to(a ^ 1))) found |= id == a;
        EXPECT_TRUE(found) << "arc " << a << " missing from its tail's row";
    }
}

TEST(Dinic, AntiparallelArcs) {
    FlowNetwork net(3);
    net.add_arc(0, 1, 2);
    net.add_arc(1, 0, 2);
    net.add_arc(1, 2, 1);
    net.finalize();
    FlowWorkspace ws(net);
    Dinic solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 2), 1);
}

TEST(Dinic, ParallelArcsAccumulate) {
    FlowNetwork net(2);
    net.add_arc(0, 1, 2);
    net.add_arc(0, 1, 3);
    net.finalize();
    FlowWorkspace ws(net);
    Dinic solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 1), 5);
}

TEST(PushRelabel, ZeroWhenSinkUnreachable) {
    FlowNetwork net(3);
    net.add_arc(1, 0, 4);  // wrong direction
    net.add_arc(1, 2, 4);
    net.finalize();
    FlowWorkspace ws(net);
    PushRelabel solver;
    EXPECT_EQ(solver.max_flow(ws, 0, 2), 0);
}

TEST(PushRelabel, LongChain) {
    const int n = 50;
    FlowNetwork net(n);
    for (int i = 0; i + 1 < n; ++i) net.add_arc(i, i + 1, 2 + (i % 3));
    net.finalize();
    FlowWorkspace ws(net);
    PushRelabel solver;
    EXPECT_EQ(solver.max_flow(ws, 0, n - 1), 2);
}

/// Random graph generator for cross-solver property tests.
FlowNetwork random_network(util::Rng& rng, int n, double p, int max_cap) {
    FlowNetwork net(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v && rng.next_bool(p)) {
                net.add_arc(u, v, 1 + static_cast<int>(rng.next_below(
                                          static_cast<std::uint64_t>(max_cap))));
            }
        }
    }
    net.finalize();
    return net;
}

class CrossSolverTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossSolverTest, AllSolversAgreeOnRandomGraphs) {
    const int seed = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(seed));
    const int n = 6 + static_cast<int>(rng.next_below(20));
    const double p = 0.1 + rng.next_double() * 0.4;
    const FlowNetwork base = random_network(rng, n, p, 5);

    Dinic dinic;
    test_support::EdmondsKarp ek;
    PushRelabel pr;
    // One workspace per solver, shared across trials: exercises the
    // touched-arc reset path the connectivity sweep depends on.
    FlowWorkspace ws1(base);
    FlowWorkspace ws2(base);
    FlowWorkspace ws3(base);
    for (int trial = 0; trial < 4; ++trial) {
        const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        int t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (t == s) t = (t + 1) % n;

        ws1.reset();
        ws2.reset();
        ws3.reset();
        const int f1 = dinic.max_flow(ws1, s, t);
        const int f2 = ek.max_flow(ws2, s, t);
        const int f3 = pr.max_flow(ws3, s, t);
        EXPECT_EQ(f1, f2) << "dinic vs edmonds-karp, seed " << seed;
        EXPECT_EQ(f1, f3) << "dinic vs push-relabel, seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CrossSolverTest, ::testing::Range(1, 26));

TEST(CrossSolver, UnitCapacityDenseGraph) {
    util::Rng rng(999);
    const FlowNetwork base = random_network(rng, 30, 0.3, 1);
    Dinic dinic;
    PushRelabel pr;
    FlowWorkspace a(base);
    FlowWorkspace b(base);
    EXPECT_EQ(dinic.max_flow(a, 0, 29), pr.max_flow(b, 0, 29));
}

// --- flow identity: bidirectional phases vs the one-sided oracle ----------

/// Runs both Dinics from the same residual state (`fresh` and `oracle`
/// hold equal capacities), expects the same value and the same residual
/// capacity on every arc, and returns the value.
int expect_same_flow(FlowWorkspace& fresh, FlowWorkspace& oracle, int s, int t,
                     int limit, const std::string& where) {
    Dinic dinic;
    test_support::ForwardDinic forward;
    const int got = dinic.max_flow(fresh, s, t, limit);
    const int want = forward.max_flow(oracle, s, t, limit);
    EXPECT_EQ(got, want) << where;
    int differing_arcs = 0;
    for (int a = 0; a < fresh.network().arc_count(); ++a) {
        if (fresh.cap(a) != oracle.cap(a)) ++differing_arcs;
    }
    EXPECT_EQ(differing_arcs, 0) << where;
    return got;
}

// Even networks (κ), witness networks (the daemon's PAIR cut) and unit
// networks (λ) of Kademlia-like graphs across sizes, degrees and
// reciprocities: uncapped, capped at the degree bound, and — on the Even
// layouts — topped up from the sweep's common-neighbour seeding, each on
// one reused workspace per solver.
TEST(DinicFlowIdentity, KademliaNetworksMatchForwardDinicArcForArc) {
    const int sizes[] = {10, 30, 75, 140, 210};
    const int degrees[] = {1, 3, 8, 16, 30};
    int flows = 0;
    for (const int n : sizes) {
        for (const int deg : degrees) {
            for (const double reciprocity : {0.3, 0.9}) {
                const auto seed = static_cast<std::uint64_t>(n * 1000 + deg) +
                                  (reciprocity < 0.5 ? 0 : 500000);
                const graph::Digraph g =
                    test_support::kademlia_like_graph(n, deg, seed, reciprocity);
                const std::vector<int> in_degrees = g.in_degrees();
                util::Rng rng(seed);
                for (int kind = 0; kind < 3; ++kind) {
                    const bool unit = kind == 2;
                    const FlowNetwork net = kind == 0   ? even_transform(g)
                                            : kind == 1 ? mincut_witness_network(g)
                                                        : unit_capacity_network(g);
                    FlowWorkspace fresh(net);
                    FlowWorkspace oracle(net);
                    for (int trial = 0; trial < 8; ++trial) {
                        const auto u = static_cast<int>(
                            rng.next_below(static_cast<std::uint64_t>(n)));
                        const auto v = static_cast<int>(
                            rng.next_below(static_cast<std::uint64_t>(n)));
                        if (u == v || (!unit && g.has_edge(u, v))) continue;
                        const int s = unit ? u : out_vertex(u);
                        const int t = unit ? v : in_vertex(v);
                        const int bound = std::min(g.out_degree(u),
                                                   in_degrees[static_cast<std::size_t>(v)]);
                        for (int mode = 0; mode < (unit ? 2 : 4); ++mode) {
                            fresh.reset();
                            oracle.reset();
                            int seeded = 0;
                            if (mode >= 2) {
                                using test_support::seed_common_neighbours;
                                seeded = seed_common_neighbours(g, fresh, u, v);
                                ASSERT_EQ(seed_common_neighbours(g, oracle, u, v), seeded);
                            }
                            const bool capped = mode % 2 == 1;
                            if (capped && seeded >= bound) continue;
                            const int limit = capped ? bound - seeded : Dinic::kUnbounded;
                            expect_same_flow(fresh, oracle, s, t, limit,
                                             "n=" + std::to_string(n) +
                                                 " deg=" + std::to_string(deg) +
                                                 " r=" + std::to_string(reciprocity) +
                                                 " kind=" + std::to_string(kind) +
                                                 " pair=(" + std::to_string(u) + "," +
                                                 std::to_string(v) + ")" +
                                                 " mode=" + std::to_string(mode));
                            ++flows;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(flows, 1000);
}

// General capacities, antiparallel arcs, arbitrary (s, t): the random
// networks of the cross-solver test, capped and uncapped.
TEST(DinicFlowIdentity, RandomNetworksMatchForwardDinicArcForArc) {
    for (int seed = 1; seed <= 60; ++seed) {
        util::Rng rng(static_cast<std::uint64_t>(seed) * 7919);
        const int n = 4 + static_cast<int>(rng.next_below(40));
        const double p = 0.05 + rng.next_double() * 0.35;
        const FlowNetwork net = random_network(rng, n, p, 1 + seed % 6);
        FlowWorkspace fresh(net);
        FlowWorkspace oracle(net);
        for (int trial = 0; trial < 6; ++trial) {
            const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            int t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (t == s) t = (t + 1) % n;
            const int limit = trial % 2 == 0 ? Dinic::kUnbounded : 1 + trial;
            fresh.reset();
            oracle.reset();
            expect_same_flow(fresh, oracle, s, t, limit,
                             "seed " + std::to_string(seed) + " trial " +
                                 std::to_string(trial));
        }
    }
}

// The sink has no residual in-arc: the backward frontier (smaller once the
// source's row has been expanded) empties first, and the flow is zero.
TEST(DinicFlowIdentity, BackwardFrontierRunsOutFirst) {
    FlowNetwork net(5);
    net.add_arc(0, 1, 1);
    net.add_arc(0, 2, 1);
    net.add_arc(1, 3, 1);
    net.add_arc(4, 0, 1);  // the sink's only arc leaves it
    net.finalize();
    FlowWorkspace fresh(net);
    FlowWorkspace oracle(net);
    EXPECT_EQ(expect_same_flow(fresh, oracle, 0, 4, Dinic::kUnbounded, "t without in-arcs"),
              0);
    EXPECT_TRUE(fresh.touched().empty());
}

// The source has no residual out-arc: the forward frontier (expanded first
// on a tie) empties first, and the flow is zero.
TEST(DinicFlowIdentity, ForwardFrontierRunsOutFirst) {
    FlowNetwork net(4);
    net.add_arc(1, 0, 2);  // the source's only arc enters it
    net.add_arc(1, 3, 2);
    net.add_arc(2, 3, 2);
    net.finalize();
    FlowWorkspace fresh(net);
    FlowWorkspace oracle(net);
    EXPECT_EQ(expect_same_flow(fresh, oracle, 0, 3, Dinic::kUnbounded, "s without out-arcs"),
              0);
    EXPECT_TRUE(fresh.touched().empty());
}

// A direct s→t arc is a distance-1 phase (the forward BFS meets t at once);
// the longer paths follow in later phases, and a cap can stop either.
TEST(DinicFlowIdentity, DirectArcToSink) {
    FlowNetwork net(4);
    net.add_arc(0, 3, 3);
    net.add_arc(0, 1, 2);
    net.add_arc(1, 2, 2);
    net.add_arc(2, 3, 1);
    net.add_arc(1, 3, 1);
    net.finalize();
    for (const int limit : {Dinic::kUnbounded, 2, 4}) {
        FlowWorkspace fresh(net);
        FlowWorkspace oracle(net);
        EXPECT_EQ(expect_same_flow(fresh, oracle, 0, 3, limit,
                                   "limit " + std::to_string(limit)),
                  std::min(limit, 5));
    }
}

}  // namespace
}  // namespace kadsim::flow
