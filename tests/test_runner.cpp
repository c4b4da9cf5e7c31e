// Scenario runner: staggered bootstrap, churn bookkeeping, snapshots,
// determinism.
#include <gtest/gtest.h>

#include "scen/runner.h"

namespace kadsim::scen {
namespace {

ScenarioConfig small_scenario(int size = 30, std::uint64_t seed = 5) {
    ScenarioConfig cfg;
    cfg.initial_size = size;
    cfg.seed = seed;
    cfg.kad.k = 8;
    cfg.kad.s = 1;
    cfg.phases.end = sim::minutes(240);
    return cfg;
}

TEST(Runner, AllInitialNodesJoinWithinSetupPhase) {
    Runner runner(small_scenario());
    runner.step_to(sim::minutes(30));
    EXPECT_EQ(runner.live_count(), 30);
    const auto totals = runner.totals();
    EXPECT_EQ(totals.joins, 30u);
    EXPECT_EQ(totals.crashes, 0u);
}

TEST(Runner, JoinsAreStaggeredNotInstant) {
    Runner runner(small_scenario(30));
    runner.step_to(sim::minutes(10));
    const int early = runner.live_count();
    EXPECT_GT(early, 0);
    EXPECT_LT(early, 30);
}

TEST(Runner, ZeroOneChurnDrainsOnePerMinute) {
    ScenarioConfig cfg = small_scenario(30);
    cfg.fault.churn = ChurnSpec{0, 1};
    Runner runner(cfg);
    runner.step_to(sim::minutes(120));
    EXPECT_EQ(runner.live_count(), 30);
    runner.step_to(sim::minutes(130));
    // 10 churn minutes → 9–10 removals depending on sub-minute offsets.
    EXPECT_LE(runner.live_count(), 21);
    EXPECT_GE(runner.live_count(), 19);
}

TEST(Runner, SymmetricChurnKeepsSizeRoughlyConstant) {
    ScenarioConfig cfg = small_scenario(30);
    cfg.fault.churn = ChurnSpec{1, 1};
    Runner runner(cfg);
    runner.step_to(sim::minutes(200));
    EXPECT_NEAR(runner.live_count(), 30, 2);
    const auto totals = runner.totals();
    EXPECT_GT(totals.crashes, 50u);
    EXPECT_EQ(totals.joins, 30u + totals.crashes +
                                static_cast<std::uint64_t>(runner.live_count()) - 30u);
}

TEST(Runner, ChurnStartsOnlyAfterStabilization) {
    ScenarioConfig cfg = small_scenario(30);
    cfg.fault.churn = ChurnSpec{10, 10};
    Runner runner(cfg);
    runner.step_to(sim::minutes(119));
    EXPECT_EQ(runner.totals().crashes, 0u);
}

TEST(Runner, SnapshotCoversExactlyLiveNodes) {
    ScenarioConfig cfg = small_scenario(25);
    cfg.fault.churn = ChurnSpec{0, 1};
    Runner runner(cfg);
    runner.step_to(sim::minutes(150));
    const auto snap = runner.snapshot();
    EXPECT_EQ(static_cast<int>(snap.nodes.size()), runner.live_count());
    EXPECT_EQ(snap.time_ms, sim::minutes(150));
}

TEST(Runner, TrafficGeneratesLookupsAndData) {
    ScenarioConfig cfg = small_scenario(20);
    cfg.traffic.enabled = true;
    Runner runner(cfg);
    runner.step_to(sim::minutes(60));
    const auto totals = runner.totals();
    // ~20 nodes × 11 ops × ~30 minutes of operation.
    EXPECT_GT(totals.protocol.lookups_started, 1000u);
    EXPECT_GT(totals.protocol.stores_sent, 0u);
    EXPECT_GT(totals.protocol.values_found, 0u);
    EXPECT_FALSE(runner.data_registry().empty());
}

TEST(Runner, NoTrafficStillHasMaintenanceLookups) {
    Runner runner(small_scenario(20));
    runner.step_to(sim::minutes(120));
    const auto totals = runner.totals();
    // Joins + hourly bucket refreshes.
    EXPECT_GT(totals.protocol.lookups_started, 20u);
}

TEST(Runner, SizeSeriesIsRecordedPerMinute) {
    Runner runner(small_scenario(15));
    runner.step_to(sim::minutes(50));
    const auto& series = runner.size_series();
    ASSERT_GE(series.size(), 50u);
    EXPECT_DOUBLE_EQ(series.times().front(), 0.0);
    // After setup the series tracks the live count.
    EXPECT_DOUBLE_EQ(series.values().back(), 15.0);
}

TEST(Runner, DeterministicAcrossRunsWithSameSeed) {
    ScenarioConfig cfg = small_scenario(25, 77);
    cfg.traffic.enabled = true;
    cfg.fault.churn = ChurnSpec{1, 1};

    Runner a(cfg);
    Runner b(cfg);
    a.step_to(sim::minutes(150));
    b.step_to(sim::minutes(150));

    EXPECT_EQ(a.live_count(), b.live_count());
    const auto ta = a.totals();
    const auto tb = b.totals();
    EXPECT_EQ(ta.network.sent, tb.network.sent);
    EXPECT_EQ(ta.protocol.rpcs_sent, tb.protocol.rpcs_sent);
    EXPECT_EQ(ta.events_executed, tb.events_executed);

    const auto sa = a.snapshot();
    const auto sb = b.snapshot();
    ASSERT_EQ(sa.nodes.size(), sb.nodes.size());
    EXPECT_TRUE(sa.nodes.flat() == sb.nodes.flat());
}

TEST(Runner, DifferentSeedsDiverge) {
    ScenarioConfig cfg_a = small_scenario(25, 1);
    ScenarioConfig cfg_b = small_scenario(25, 2);
    cfg_a.traffic.enabled = cfg_b.traffic.enabled = true;
    Runner a(cfg_a);
    Runner b(cfg_b);
    a.step_to(sim::minutes(60));
    b.step_to(sim::minutes(60));
    EXPECT_NE(a.totals().network.sent, b.totals().network.sent);
}

TEST(Runner, RunInvokesSnapshotCallbackAtInterval) {
    ScenarioConfig cfg = small_scenario(15);
    cfg.phases.stabilization_end = sim::minutes(90);
    cfg.phases.end = sim::minutes(100);
    Runner runner(cfg);
    std::vector<double> times;
    runner.run(sim::minutes(25), [&times](const graph::RoutingSnapshot& snap) {
        times.push_back(static_cast<double>(snap.time_ms) / 60000.0);
    });
    EXPECT_EQ(times, (std::vector<double>{25, 50, 75, 100}));
}

TEST(Runner, ValidatesConfig) {
    ScenarioConfig cfg = small_scenario();
    cfg.initial_size = 0;
    EXPECT_THROW(Runner{cfg}, std::invalid_argument);

    ScenarioConfig bad_phases = small_scenario();
    bad_phases.phases.end = sim::minutes(10);  // before stabilization_end
    EXPECT_THROW(Runner{bad_phases}, std::invalid_argument);

    ScenarioConfig bad_kad = small_scenario();
    bad_kad.kad.k = 0;
    EXPECT_THROW(Runner{bad_kad}, std::invalid_argument);
}

TEST(Runner, RejectsTimersThatWouldHangOrAbort) {
    // storage_expiry = 1 would re-arm the storage GC every 0 ms, forever.
    ScenarioConfig gc_period_zero = small_scenario();
    gc_period_zero.kad.storage_expiry = 1;
    EXPECT_THROW(Runner{gc_period_zero}, std::invalid_argument);
    gc_period_zero.kad.storage_expiry = 2;
    EXPECT_NO_THROW(Runner{gc_period_zero});

    // refresh_spread = 0 would draw a refresh delay below 0.
    ScenarioConfig no_spread = small_scenario();
    no_spread.kad.refresh_spread = 0;
    EXPECT_THROW(Runner{no_spread}, std::invalid_argument);
    no_spread.kad.refresh_spread = 1;
    EXPECT_NO_THROW(Runner{no_spread});
}

TEST(Runner, DrainToEmptyNetworkIsSafe) {
    ScenarioConfig cfg = small_scenario(10);
    cfg.fault.churn = ChurnSpec{0, 2};
    cfg.phases.end = sim::minutes(140);
    Runner runner(cfg);
    runner.step_to(sim::minutes(140));
    EXPECT_EQ(runner.live_count(), 0);
    const auto snap = runner.snapshot();
    EXPECT_TRUE(snap.nodes.empty());
    EXPECT_EQ(snap.removed_total, 10u);
}

TEST(Runner, SnapshotRecordsCumulativeRemovals) {
    ScenarioConfig cfg = small_scenario(30);
    cfg.fault.churn = ChurnSpec{0, 1};
    Runner runner(cfg);
    runner.step_to(sim::minutes(120));
    EXPECT_EQ(runner.snapshot().removed_total, 0u);
    runner.step_to(sim::minutes(150));
    const auto snap = runner.snapshot();
    EXPECT_EQ(snap.removed_total, runner.totals().crashes);
    EXPECT_GT(snap.removed_total, 0u);
}

TEST(Runner, DegreeAttackRemovesAtTheConfiguredRate) {
    ScenarioConfig cfg = small_scenario(30);
    cfg.fault.model = fault::ModelKind::kDegreeAttack;
    cfg.fault.churn = ChurnSpec{0, 2};
    Runner runner(cfg);
    runner.step_to(sim::minutes(120));
    EXPECT_EQ(runner.totals().crashes, 0u);
    runner.step_to(sim::minutes(130));
    // 10 attack minutes at 2/min → 19–20 removals depending on offsets.
    EXPECT_GE(runner.totals().crashes, 19u);
    EXPECT_LE(runner.totals().crashes, 20u);
    EXPECT_EQ(runner.totals().joins, 30u);  // no arrivals
}

TEST(Runner, TargetedAttacksAreDeterministicPerSeed) {
    for (const fault::ModelKind kind :
         {fault::ModelKind::kDegreeAttack, fault::ModelKind::kKappaAttack}) {
        ScenarioConfig cfg = small_scenario(25, 7);
        cfg.fault.model = kind;
        cfg.fault.churn = ChurnSpec{0, 1};
        Runner a(cfg);
        Runner b(cfg);
        a.step_to(sim::minutes(160));
        b.step_to(sim::minutes(160));
        EXPECT_EQ(a.totals().crashes, b.totals().crashes);
        EXPECT_EQ(a.totals().events_executed, b.totals().events_executed);
        const auto sa = a.snapshot();
        const auto sb = b.snapshot();
        ASSERT_EQ(sa.nodes.size(), sb.nodes.size());
        EXPECT_TRUE(sa.nodes.flat() == sb.nodes.flat());
    }
}

TEST(Runner, RegionOutageCutsExactlyTheRegionAtTheInstant) {
    ScenarioConfig cfg = small_scenario(40);
    cfg.fault.model = fault::ModelKind::kRegionOutage;
    cfg.fault.outage_at = sim::minutes(150);
    cfg.fault.outage_prefix_bits = 1;
    cfg.fault.outage_prefix = 1;  // top id bit set → about half the nodes
    Runner runner(cfg);

    runner.step_to(sim::minutes(150) - 1);
    EXPECT_EQ(runner.totals().crashes, 0u);
    const int before = runner.live_count();

    // Count live region members just before the cut.
    int in_region = 0;
    for (const net::Address address : runner.live_addresses()) {
        if (runner.node(address)->id().get_bit(cfg.kad.b - 1)) ++in_region;
    }
    ASSERT_GT(in_region, 0);

    runner.step_to(sim::minutes(151));
    EXPECT_EQ(runner.totals().crashes, static_cast<std::uint64_t>(in_region));
    EXPECT_EQ(runner.live_count(), before - in_region);
    // Every survivor is outside the region; the cut fires exactly once.
    for (const net::Address address : runner.live_addresses()) {
        EXPECT_FALSE(runner.node(address)->id().get_bit(cfg.kad.b - 1));
    }
    runner.step_to(sim::minutes(200));
    EXPECT_EQ(runner.totals().crashes, static_cast<std::uint64_t>(in_region));
}

TEST(Runner, RegionOutageOutsideFaultPhaseIsRejected) {
    ScenarioConfig cfg = small_scenario(10);
    cfg.fault.model = fault::ModelKind::kRegionOutage;
    cfg.fault.outage_at = sim::minutes(60);  // before stabilization_end
    EXPECT_THROW(Runner{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace kadsim::scen
