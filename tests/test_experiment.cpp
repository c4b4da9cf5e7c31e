// End-to-end experiment driver on small networks.
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace kadsim::core {
namespace {

ExperimentConfig tiny_experiment(std::uint64_t seed = 3) {
    ExperimentConfig cfg;
    cfg.scenario.name = "tiny";
    cfg.scenario.initial_size = 25;
    cfg.scenario.seed = seed;
    cfg.scenario.kad.k = 8;
    cfg.scenario.kad.s = 1;
    cfg.scenario.traffic.enabled = true;
    cfg.scenario.phases.end = sim::minutes(150);
    cfg.snapshot_interval = sim::minutes(30);
    cfg.analyzer.sample_c = 1.0;  // exact on tiny graphs
    cfg.analyzer.threads = 2;
    return cfg;
}

TEST(Experiment, ProducesOneSamplePerInterval) {
    const auto series = run_experiment(tiny_experiment());
    ASSERT_EQ(series.samples.size(), 5u);  // 30,60,90,120,150
    EXPECT_DOUBLE_EQ(series.samples.front().time_min, 30.0);
    EXPECT_DOUBLE_EQ(series.samples.back().time_min, 150.0);
    EXPECT_EQ(series.name, "tiny");
}

TEST(Experiment, StabilizedSmallNetworkIsConnected) {
    const auto series = run_experiment(tiny_experiment());
    const auto& last = series.samples.back();
    EXPECT_EQ(last.n, 25);
    EXPECT_GT(last.kappa_min, 0);
    EXPECT_GE(last.kappa_avg, last.kappa_min);
    EXPECT_EQ(last.scc_count, 1);
    // §5.2: the connectivity graph is nearly undirected.
    EXPECT_GT(last.reciprocity, 0.8);
}

TEST(Experiment, ProgressCallbackSeesEverySample) {
    int calls = 0;
    const auto series = run_experiment(tiny_experiment(),
                                       [&calls](const ResilienceSample&) { ++calls; });
    EXPECT_EQ(calls, static_cast<int>(series.samples.size()));
}

TEST(Experiment, DeterministicSeriesForSameSeed) {
    const auto a = run_experiment(tiny_experiment(9));
    const auto b = run_experiment(tiny_experiment(9));
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].kappa_min, b.samples[i].kappa_min);
        EXPECT_DOUBLE_EQ(a.samples[i].kappa_avg, b.samples[i].kappa_avg);
        EXPECT_EQ(a.samples[i].n, b.samples[i].n);
        EXPECT_EQ(a.samples[i].m, b.samples[i].m);
    }
}

TEST(Experiment, SeriesAccessorsAlign) {
    const auto series = run_experiment(tiny_experiment());
    const auto kmin = series.kappa_min_series();
    const auto kavg = series.kappa_avg_series();
    const auto size = series.size_at_samples();
    ASSERT_EQ(kmin.size(), series.samples.size());
    ASSERT_EQ(kavg.size(), series.samples.size());
    ASSERT_EQ(size.size(), series.samples.size());
    for (std::size_t i = 0; i < kmin.size(); ++i) {
        EXPECT_DOUBLE_EQ(kmin.time_at(i), series.samples[i].time_min);
        EXPECT_DOUBLE_EQ(kmin.value_at(i), series.samples[i].kappa_min);
    }
    // Network-size series recorded every minute.
    EXPECT_GE(series.network_size.size(), 150u);
}

TEST(Experiment, SummariesSelectTimeWindow) {
    const auto series = run_experiment(tiny_experiment());
    const auto all = series.kappa_min_summary(0.0, 1e9);
    EXPECT_EQ(all.count(), series.samples.size());
    const auto late = series.kappa_min_summary(120.0, 1e9);
    EXPECT_EQ(late.count(), 2u);  // samples at 120 and 150
    const auto none = series.kappa_min_summary(1000.0, 2000.0);
    EXPECT_EQ(none.count(), 0u);
}

}  // namespace
}  // namespace kadsim::core
