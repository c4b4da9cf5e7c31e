// Message layer: latency bounds, Table-1 loss probabilities, crash
// semantics, accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "net/latency.h"
#include "net/loss.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace kadsim::net {
namespace {

TEST(LossModel, Table1OneWayProbabilities) {
    // Paper Table 1: none 0%, low 2.5%, medium 13.4%, high 29.3% (one-way).
    EXPECT_DOUBLE_EQ(LossModel::from_level(LossLevel::kNone).p_one_way, 0.0);
    EXPECT_NEAR(LossModel::from_level(LossLevel::kLow).p_one_way, 0.025, 0.0006);
    EXPECT_NEAR(LossModel::from_level(LossLevel::kMedium).p_one_way, 0.134, 0.0006);
    EXPECT_NEAR(LossModel::from_level(LossLevel::kHigh).p_one_way, 0.293, 0.0006);
}

TEST(LossModel, TwoWayRoundTrips) {
    for (const double p2 : {0.0, 0.05, 0.25, 0.50}) {
        EXPECT_NEAR(LossModel::from_two_way(p2).p_two_way(), p2, 1e-12);
    }
}

TEST(LossLevel, Names) {
    EXPECT_EQ(to_string(LossLevel::kNone), "none");
    EXPECT_EQ(to_string(LossLevel::kHigh), "high");
}

TEST(LatencyModel, SamplesWithinBounds) {
    sim::Simulator sim(3);
    auto rng = sim.split_rng();
    LatencyModel lat{10, 100};
    for (int i = 0; i < 2000; ++i) {
        const auto d = lat.sample(rng);
        ASSERT_GE(d, 10);
        ASSERT_LE(d, 100);
    }
    LatencyModel fixed{40, 40};
    EXPECT_EQ(fixed.sample(rng), 40);
}

TEST(Network, DeliversWithLatencyInBounds) {
    sim::Simulator sim(5);
    Network net(sim, LatencyModel{10, 100}, LossModel{});
    const Address a = net.register_endpoint();
    const Address b = net.register_endpoint();
    sim::SimTime delivered_at = -1;
    net.transmit(a, b, [&] { delivered_at = sim.now(); });
    sim.run_until(sim::seconds(1));
    ASSERT_GE(delivered_at, 10);
    ASSERT_LE(delivered_at, 100);
    EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Network, MessageToCrashedNodeIsDropped) {
    sim::Simulator sim(6);
    Network net(sim, LatencyModel{10, 10}, LossModel{});
    const Address a = net.register_endpoint();
    const Address b = net.register_endpoint();
    net.set_up(b, false);
    bool delivered = false;
    net.transmit(a, b, [&delivered] { delivered = true; });
    sim.run_until(sim::seconds(1));
    EXPECT_FALSE(delivered);
    EXPECT_EQ(net.counters().dropped_dead, 1u);
}

TEST(Network, CrashDuringFlightDropsMessage) {
    sim::Simulator sim(7);
    Network net(sim, LatencyModel{50, 50}, LossModel{});
    const Address a = net.register_endpoint();
    const Address b = net.register_endpoint();
    bool delivered = false;
    net.transmit(a, b, [&delivered] { delivered = true; });
    sim.schedule_at(20, [&net, b] { net.set_up(b, false); });  // crash mid-flight
    sim.run_until(sim::seconds(1));
    EXPECT_FALSE(delivered);
    EXPECT_EQ(net.counters().dropped_dead, 1u);
}

TEST(Network, CrashedSenderCannotTransmit) {
    sim::Simulator sim(8);
    Network net(sim, LatencyModel{10, 10}, LossModel{});
    const Address a = net.register_endpoint();
    const Address b = net.register_endpoint();
    net.set_up(a, false);
    bool delivered = false;
    net.transmit(a, b, [&delivered] { delivered = true; });
    sim.run_until(sim::seconds(1));
    EXPECT_FALSE(delivered);
}

// gtest prints a parameter that has no PrintTo as its raw bytes, and the
// discovered ctest names are built from that print. `zero` fills the four
// bytes between `level` and the double, which as padding were uninitialised
// and made the names differ from run to run.
struct LossCase {
    LossLevel level;
    std::uint32_t zero;
    double expected_one_way;
};
static_assert(sizeof(LossCase) == 16, "LossCase must have no padding");

class NetworkLossTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(NetworkLossTest, EmpiricalLossMatchesTable1) {
    const auto param = GetParam();
    sim::Simulator sim(9);
    Network net(sim, LatencyModel{1, 1}, LossModel::from_level(param.level));
    const Address a = net.register_endpoint();
    const Address b = net.register_endpoint();
    const int trials = 40000;
    int delivered = 0;
    for (int i = 0; i < trials; ++i) {
        net.transmit(a, b, [&delivered] { ++delivered; });
    }
    sim.run_until(sim::seconds(1));
    const double observed_loss = 1.0 - static_cast<double>(delivered) / trials;
    EXPECT_NEAR(observed_loss, param.expected_one_way, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, NetworkLossTest,
    ::testing::Values(LossCase{LossLevel::kNone, 0, 0.0},
                      LossCase{LossLevel::kLow, 0, 0.025},
                      LossCase{LossLevel::kMedium, 0, 0.134},
                      LossCase{LossLevel::kHigh, 0, 0.293}));

TEST(Network, CountersAddUp) {
    sim::Simulator sim(10);
    Network net(sim, LatencyModel{1, 1}, LossModel::from_two_way(0.25));
    const Address a = net.register_endpoint();
    const Address b = net.register_endpoint();
    const int trials = 10000;
    for (int i = 0; i < trials; ++i) net.transmit(a, b, [] {});
    sim.run_until(sim::seconds(1));
    const auto& c = net.counters();
    EXPECT_EQ(c.sent, static_cast<std::uint64_t>(trials));
    EXPECT_EQ(c.delivered + c.dropped_loss + c.dropped_dead, c.sent);
    EXPECT_GT(c.dropped_loss, 0u);
}

}  // namespace
}  // namespace kadsim::net
