#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "exec/bounded_queue.h"
#include "exec/thread_pool.h"
#include "scen/runner.h"
#include "util/assert.h"

namespace kadsim::core {

stats::TimeSeries ExperimentSeries::kappa_min_series() const {
    stats::TimeSeries s;
    for (const auto& sample : samples) s.add(sample.time_min, sample.kappa_min);
    return s;
}

stats::TimeSeries ExperimentSeries::kappa_avg_series() const {
    stats::TimeSeries s;
    for (const auto& sample : samples) s.add(sample.time_min, sample.kappa_avg);
    return s;
}

stats::TimeSeries ExperimentSeries::lambda_min_series() const {
    stats::TimeSeries s;
    for (const auto& sample : samples) s.add(sample.time_min, sample.lambda_min);
    return s;
}

stats::TimeSeries ExperimentSeries::size_at_samples() const {
    stats::TimeSeries s;
    for (const auto& sample : samples) s.add(sample.time_min, sample.n);
    return s;
}

stats::Summary ExperimentSeries::kappa_min_summary(double begin_min,
                                                   double end_min) const {
    stats::Summary s;
    for (const auto& sample : samples) {
        if (sample.time_min >= begin_min && sample.time_min < end_min) {
            s.add(sample.kappa_min);
        }
    }
    return s;
}

stats::Summary ExperimentSeries::kappa_avg_summary(double begin_min,
                                                   double end_min) const {
    stats::Summary s;
    for (const auto& sample : samples) {
        if (sample.time_min >= begin_min && sample.time_min < end_min) {
            s.add(sample.kappa_avg);
        }
    }
    return s;
}

stats::Summary ExperimentSeries::lambda_min_summary(double begin_min,
                                                    double end_min) const {
    stats::Summary s;
    for (const auto& sample : samples) {
        if (sample.time_min >= begin_min && sample.time_min < end_min) {
            s.add(sample.lambda_min);
        }
    }
    return s;
}

namespace {

using ProgressFn = std::function<void(const ResilienceSample&)>;

/// The original engine: simulate and analyze alternately on one thread.
/// Also the per-task body of run_experiment_batch (with `pool` null) — then
/// it never blocks on the pool, which is what makes batch tasks safe to run
/// *on* pool workers. A non-null `pool` parallelizes *within* each snapshot
/// while snapshots stay strictly ordered — the mode the snapshot-delta
/// cache requires (analyze() under use_delta must see the series in order).
ExperimentSeries run_sequential(const ExperimentConfig& config,
                                const ProgressFn& on_progress,
                                exec::ThreadPool* pool = nullptr) {
    ExperimentSeries series;
    series.name = config.scenario.name;

    scen::Runner runner(config.scenario);
    const ConnectivityAnalyzer analyzer(config.analyzer);

    runner.run(config.snapshot_interval,
               [&](const graph::RoutingSnapshot& snap) {
                   ResilienceSample sample = analyzer.analyze(snap, pool);
                   if (on_progress) on_progress(sample);
                   series.samples.push_back(sample);
               });
    series.network_size = runner.size_series();
    series.snapshot_capture_us = runner.snapshot_capture_us();
    return series;
}

/// One snapshot travelling from the simulator to an analyzer worker.
struct PendingSnapshot {
    std::size_t index = 0;
    graph::RoutingSnapshot snap;
};

/// Completed samples, re-ordered to snapshot order for emission. Workers
/// finish out of order; `emit_ready` advances a cursor over the contiguous
/// completed prefix so on_progress observes the same sequence a sequential
/// run would produce.
class OrderedEmitter {
public:
    void complete(std::size_t index, ResilienceSample sample,
                  const ProgressFn& on_progress) {
        std::lock_guard lock(mutex_);
        if (index >= done_.size()) done_.resize(index + 1);
        done_[index] = std::move(sample);
        while (next_ < done_.size() && done_[next_].has_value()) {
            // Advance before invoking: a throwing callback must not see the
            // same sample re-delivered by the next completion.
            const ResilienceSample& ready = *done_[next_];
            ++next_;
            if (on_progress) on_progress(ready);
        }
    }

    /// All samples in snapshot order (call after every worker joined).
    std::vector<ResilienceSample> take() {
        std::vector<ResilienceSample> samples;
        samples.reserve(done_.size());
        for (auto& sample : done_) {
            KADSIM_ASSERT_MSG(sample.has_value(), "pipeline lost a snapshot");
            samples.push_back(std::move(*sample));
        }
        return samples;
    }

private:
    std::mutex mutex_;
    std::vector<std::optional<ResilienceSample>> done_;
    std::size_t next_ = 0;
};

/// The pipelined engine: the caller thread runs the deterministic simulation
/// and feeds value-type snapshots through a bounded queue (backpressure caps
/// the snapshots alive at once) to analyzer workers on `pool`.
ExperimentSeries run_pipelined(const ExperimentConfig& config,
                               const ProgressFn& on_progress,
                               exec::ThreadPool& pool) {
    ExperimentSeries series;
    series.name = config.scenario.name;

    scen::Runner runner(config.scenario);
    const ConnectivityAnalyzer analyzer(config.analyzer);

    const int workers = pool.size();
    exec::BoundedQueue<PendingSnapshot> queue(2 * static_cast<std::size_t>(workers));
    OrderedEmitter emitter;

    // Consumer submission and the producer share one try block: however we
    // leave it, the queue gets closed and every submitted consumer joined
    // before the stack-allocated queue/emitter unwind.
    std::vector<std::future<void>> consumers;
    consumers.reserve(static_cast<std::size_t>(workers));
    std::exception_ptr error;
    try {
        for (int i = 0; i < workers; ++i) {
            consumers.push_back(
                pool.submit([&queue, &emitter, &analyzer, &on_progress] {
                    try {
                        while (auto item = queue.pop()) {
                            emitter.complete(item->index,
                                             analyzer.analyze(item->snap),
                                             on_progress);
                        }
                    } catch (...) {
                        // Keep draining (discarding) until the producer
                        // closes the queue: if every consumer died with the
                        // queue full, the producer would otherwise block in
                        // push() forever and the exception never surface.
                        while (queue.pop()) {
                        }
                        throw;
                    }
                }));
        }

        std::size_t index = 0;
        runner.run(config.snapshot_interval,
                   [&queue, &index](const graph::RoutingSnapshot& snap) {
                       queue.push({index++, snap});
                   });
    } catch (...) {
        error = std::current_exception();
    }
    queue.close();
    for (auto& consumer : consumers) {
        try {
            pool.wait_get(consumer);
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    if (error) std::rethrow_exception(error);

    series.samples = emitter.take();
    series.network_size = runner.size_series();
    series.snapshot_capture_us = runner.snapshot_capture_us();
    return series;
}

}  // namespace

ExperimentSeries run_experiment(const ExperimentConfig& config,
                                const ProgressFn& on_progress,
                                exec::ThreadPool* pool) {
    const auto start = std::chrono::steady_clock::now();
    ExperimentSeries series;
    // The pipelined engine analyzes snapshots concurrently and out of order,
    // which the snapshot-delta cache cannot accept (its reuse rate — and its
    // one-analysis-in-flight contract — depend on consecutive snapshots).
    // Under use_delta, run sequentially but keep the pool for within-snapshot
    // parallelism.
    const bool delta = config.analyzer.use_delta;
    // Pipelining needs a free caller thread to drive the simulator; from
    // inside a pool task (e.g. a batch experiment), run sequentially instead.
    if (exec::ThreadPool::in_worker()) {
        series = run_sequential(config, on_progress);
    } else if (pool != nullptr) {
        series = delta ? run_sequential(config, on_progress, pool)
                       : run_pipelined(config, on_progress, *pool);
    } else if (config.analyzer.threads > 1) {
        // No caller-supplied engine: own a pool for the duration of the run
        // (persistent across snapshots — never per-snapshot spawn/join).
        exec::ThreadPool owned(config.analyzer.threads);
        series = delta ? run_sequential(config, on_progress, &owned)
                       : run_pipelined(config, on_progress, owned);
    } else {
        series = run_sequential(config, on_progress);
    }
    series.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return series;
}

std::vector<ExperimentSeries> run_experiment_batch(
    std::span<const ExperimentConfig> configs, exec::ThreadPool* pool,
    const BatchProgress& on_progress, const BatchComplete& on_complete) {
    std::vector<ExperimentSeries> results(configs.size());
    if (configs.empty()) return results;

    const auto progress_for = [&on_progress](std::size_t index) -> ProgressFn {
        if (!on_progress) return nullptr;
        return [&on_progress, index](const ResilienceSample& sample) {
            on_progress(index, sample);
        };
    };

    // Config-level tasks only pay off when they can cover the workers; with
    // fewer configs than workers (or no usable pool at all) defer to
    // run_experiment per config, whose snapshot pipeline spreads each single
    // run across the whole pool instead of leaving workers idle.
    if (pool == nullptr || pool->size() <= 1 ||
        configs.size() < static_cast<std::size_t>(pool->size()) ||
        exec::ThreadPool::in_worker()) {
        for (std::size_t i = 0; i < configs.size(); ++i) {
            results[i] = run_experiment(configs[i], progress_for(i), pool);
            if (on_complete) on_complete(i, results[i]);
        }
        return results;
    }

    std::vector<std::future<ExperimentSeries>> futures;
    futures.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        futures.push_back(pool->submit(
            [&config = configs[i], progress = progress_for(i)] {
                const auto start = std::chrono::steady_clock::now();
                ExperimentSeries series = run_sequential(config, progress);
                series.wall_seconds = std::chrono::duration<double>(
                                          std::chrono::steady_clock::now() - start)
                                          .count();
                return series;
            }));
    }
    // Deterministic, config-order collection; the caller helps run queued
    // experiments while waiting. Each success reaches on_complete as it is
    // collected; the first failure is rethrown only after every task
    // finished (no task outlives `configs`, and completed work is not lost).
    std::exception_ptr error;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        try {
            results[i] = pool->wait_get(futures[i]);
            if (on_complete) on_complete(i, results[i]);
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    if (error) std::rethrow_exception(error);
    return results;
}

}  // namespace kadsim::core
