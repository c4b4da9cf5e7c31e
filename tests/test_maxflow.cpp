// Max-flow solvers: known values, limits, workspace reuse, and the
// cross-solver equality property (push-relabel ≡ Dinic ≡ Edmonds–Karp).
#include <gtest/gtest.h>

#include "edmonds_karp_oracle.h"
#include "flow/dinic.h"
#include "flow/flow_network.h"
#include "flow/flow_workspace.h"
#include "flow/push_relabel.h"
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

}  // namespace
}  // namespace kadsim::flow
