// Determinism under parallelism: the pipelined experiment engine and the
// batch runner must produce series bit-identical to the sequential run —
// same κ_min/κ_avg/pairs per sample, CSV-byte-equal — for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/experiment.h"
#include "exec/thread_pool.h"

namespace kadsim::core {
namespace {

ExperimentConfig tiny_experiment(std::uint64_t seed, int threads) {
    ExperimentConfig cfg;
    cfg.scenario.name = "tiny-par";
    cfg.scenario.initial_size = 25;
    cfg.scenario.seed = seed;
    cfg.scenario.kad.k = 8;
    cfg.scenario.kad.s = 1;
    cfg.scenario.traffic.enabled = true;
    cfg.scenario.phases.end = sim::minutes(150);
    cfg.snapshot_interval = sim::minutes(30);
    cfg.analyzer.sample_c = 1.0;  // exact on tiny graphs
    cfg.analyzer.threads = threads;
    return cfg;
}

/// Byte-exact serialization of everything the figures consume — the CSV
/// format of the bench cache.
std::string to_csv(const ExperimentSeries& series) {
    std::ostringstream csv;
    csv << "time_min,n,m,kappa_min,kappa_avg,scc,reciprocity,pairs\n";
    for (const auto& s : series.samples) {
        csv << s.time_min << ',' << s.n << ',' << s.m << ',' << s.kappa_min << ','
            << s.kappa_avg << ',' << s.scc_count << ',' << s.reciprocity << ','
            << s.pairs_evaluated << '\n';
    }
    return csv.str();
}

void expect_identical(const ExperimentSeries& a, const ExperimentSeries& b) {
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].kappa_min, b.samples[i].kappa_min) << "sample " << i;
        EXPECT_DOUBLE_EQ(a.samples[i].kappa_avg, b.samples[i].kappa_avg)
            << "sample " << i;
        EXPECT_EQ(a.samples[i].pairs_evaluated, b.samples[i].pairs_evaluated)
            << "sample " << i;
        EXPECT_EQ(a.samples[i].n, b.samples[i].n) << "sample " << i;
        EXPECT_EQ(a.samples[i].m, b.samples[i].m) << "sample " << i;
    }
    EXPECT_EQ(to_csv(a), to_csv(b));  // CSV-byte-equal
    EXPECT_EQ(a.network_size.size(), b.network_size.size());
}

TEST(ExperimentParallel, PipelinedSeriesBitIdenticalAcrossThreadCounts) {
    const auto sequential = run_experiment(tiny_experiment(11, 1));
    const auto pipelined = run_experiment(tiny_experiment(11, 4));
    expect_identical(sequential, pipelined);
}

TEST(ExperimentParallel, ShardedScenarioSeriesBitIdenticalAcrossShardThreads) {
    // Region-sharded simulation feeding the full experiment pipeline: the
    // shard thread count must not leak into any analyzed sample.
    const auto run_with = [](int shard_threads) {
        ExperimentConfig cfg = tiny_experiment(13, 1);
        cfg.scenario.initial_size = 32;
        cfg.scenario.regions = 4;
        cfg.scenario.shard_threads = shard_threads;
        return run_experiment(cfg);
    };
    const auto serial = run_with(1);
    expect_identical(serial, run_with(2));
    expect_identical(serial, run_with(4));
}

TEST(ExperimentParallel, CallerSuppliedPoolMatchesSequential) {
    const auto sequential = run_experiment(tiny_experiment(12, 1));
    exec::ThreadPool pool(4);
    const auto pipelined = run_experiment(tiny_experiment(12, 1), nullptr, &pool);
    expect_identical(sequential, pipelined);
}

TEST(ExperimentParallel, PipelinedProgressIsInSnapshotOrder) {
    std::vector<double> times;
    const auto series = run_experiment(
        tiny_experiment(13, 4),
        [&times](const ResilienceSample& s) { times.push_back(s.time_min); });
    ASSERT_EQ(times.size(), series.samples.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_DOUBLE_EQ(times[i], series.samples[i].time_min);
    }
    for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GT(times[i], times[i - 1]);
}

TEST(ExperimentParallel, BatchSeriesBitIdenticalAcrossThreadCounts) {
    std::vector<ExperimentConfig> configs;
    configs.push_back(tiny_experiment(21, 1));
    configs.push_back(tiny_experiment(22, 1));
    configs.push_back(tiny_experiment(23, 1));

    // threads=1: no pool — plain sequential loop.
    const auto sequential = run_experiment_batch(configs);
    // 3 configs ≥ 2 workers: whole experiments run as concurrent pool tasks.
    exec::ThreadPool two(2);
    const auto config_level = run_experiment_batch(configs, &two);
    // 3 configs < 4 workers: each experiment pipelines over the whole pool.
    exec::ThreadPool four(4);
    const auto pipelined = run_experiment_batch(configs, &four);

    ASSERT_EQ(sequential.size(), configs.size());
    ASSERT_EQ(config_level.size(), configs.size());
    ASSERT_EQ(pipelined.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        expect_identical(sequential[i], config_level[i]);
        expect_identical(sequential[i], pipelined[i]);
    }
}

TEST(ExperimentParallel, BatchCollectsInConfigOrder) {
    std::vector<ExperimentConfig> configs;
    configs.push_back(tiny_experiment(31, 1));
    configs.push_back(tiny_experiment(32, 1));
    configs[0].scenario.name = "first";
    configs[1].scenario.name = "second";
    exec::ThreadPool pool(2);
    const auto results = run_experiment_batch(configs, &pool);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].name, "first");
    EXPECT_EQ(results[1].name, "second");
}

TEST(ExperimentParallel, BatchProgressSeesEverySampleOfEveryConfig) {
    std::vector<ExperimentConfig> configs;
    configs.push_back(tiny_experiment(41, 1));
    configs.push_back(tiny_experiment(42, 1));
    exec::ThreadPool pool(2);  // configs ≥ workers: config-level task path
    std::atomic<int> calls{0};
    std::atomic<int> bad_index{0};
    const auto results = run_experiment_batch(
        configs, &pool,
        [&](std::size_t index, const ResilienceSample&) {
            if (index >= 2) ++bad_index;
            ++calls;
        });
    std::size_t total = 0;
    for (const auto& series : results) total += series.samples.size();
    EXPECT_EQ(static_cast<std::size_t>(calls.load()), total);
    EXPECT_EQ(bad_index.load(), 0);
}

TEST(ExperimentParallel, BatchOnCompleteFiresInConfigOrderAsResultsArrive) {
    std::vector<ExperimentConfig> configs;
    configs.push_back(tiny_experiment(71, 1));
    configs.push_back(tiny_experiment(72, 1));
    exec::ThreadPool pool(2);
    std::vector<std::size_t> completed;
    const auto results = run_experiment_batch(
        configs, &pool, nullptr,
        [&completed](std::size_t index, const ExperimentSeries& series) {
            EXPECT_FALSE(series.samples.empty());
            completed.push_back(index);  // caller thread, in config order
        });
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed[0], 0u);
    EXPECT_EQ(completed[1], 1u);
    EXPECT_EQ(results.size(), 2u);
}

TEST(ExperimentParallel, ProgressExceptionPropagatesInsteadOfHanging) {
    // A throwing progress callback kills the analyzer consumers; the dying
    // consumers must keep draining the bounded queue so the producer can
    // finish and the exception surfaces (instead of wedging on a full queue).
    EXPECT_THROW(
        {
            const auto series = run_experiment(
                tiny_experiment(61, 2), [](const ResilienceSample&) {
                    throw std::runtime_error("progress failed");
                });
            (void)series;
        },
        std::runtime_error);
}

TEST(ExperimentParallel, BatchWithoutPoolStillRunsEverything) {
    std::vector<ExperimentConfig> configs;
    configs.push_back(tiny_experiment(51, 2));
    const auto results = run_experiment_batch(configs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].samples.size(), 5u);  // 30,60,90,120,150
}

}  // namespace
}  // namespace kadsim::core
