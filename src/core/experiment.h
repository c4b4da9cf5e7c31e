// Experiment driver: scenario simulation × periodic connectivity analysis →
// the time series behind every figure, plus churn-phase summaries (Table 2).
//
// Execution model: the simulation itself is single-threaded and
// deterministic (scen::Runner on one virtual clock), but the per-snapshot
// connectivity analysis — the n(n−1) max-flow bottleneck of §5.2 — is
// pipelined onto an exec::ThreadPool: the runner produces value-type
// RoutingSnapshots into a bounded queue while analyzer workers drain it
// concurrently. run_experiment_batch additionally runs *independent*
// experiments (each with its own Runner + RNG) concurrently. Both paths
// produce series bit-identical to the sequential run for any thread count.
#ifndef KADSIM_CORE_EXPERIMENT_H
#define KADSIM_CORE_EXPERIMENT_H

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "scen/scenario.h"
#include "stats/summary.h"
#include "stats/timeseries.h"

namespace kadsim::exec {
class ThreadPool;
}  // namespace kadsim::exec

namespace kadsim::core {

struct ExperimentConfig {
    scen::ScenarioConfig scenario;
    sim::SimTime snapshot_interval = sim::minutes(30);
    AnalyzerOptions analyzer;
};

/// The analyzed output of one simulation run.
struct ExperimentSeries {
    std::string name;
    std::vector<ResilienceSample> samples;
    stats::TimeSeries network_size;  // per simulated minute
    /// Wall-clock cost of producing this series (not part of the result
    /// data; 0 when the series was loaded from a cache).
    double wall_seconds = 0.0;
    /// Cumulative runner time spent capturing routing snapshots (same
    /// caveat: measurement metadata, 0 when cache-loaded).
    std::uint64_t snapshot_capture_us = 0;

    [[nodiscard]] stats::TimeSeries kappa_min_series() const;
    [[nodiscard]] stats::TimeSeries kappa_avg_series() const;
    [[nodiscard]] stats::TimeSeries lambda_min_series() const;
    [[nodiscard]] stats::TimeSeries size_at_samples() const;

    /// Summary of κ_min over samples taken in [begin_min, end_min) — the
    /// Table 2 aggregation when applied to the churn phase.
    [[nodiscard]] stats::Summary kappa_min_summary(double begin_min,
                                                   double end_min) const;
    [[nodiscard]] stats::Summary kappa_avg_summary(double begin_min,
                                                   double end_min) const;
    [[nodiscard]] stats::Summary lambda_min_summary(double begin_min,
                                                    double end_min) const;
};

/// Runs the scenario to completion, analyzing a snapshot every
/// `snapshot_interval`. `on_progress` (optional) is invoked after each
/// analyzed snapshot, in snapshot order — benches use it for live narration.
///
/// Execution: with `pool` (or, when no pool is given, config.analyzer.threads
/// > 1, in which case the engine owns a pool for the run), snapshots are
/// analyzed concurrently with the simulation via a bounded queue; otherwise
/// everything runs inline on the caller. The returned series is bit-identical
/// across all of these modes.
[[nodiscard]] ExperimentSeries run_experiment(
    const ExperimentConfig& config,
    const std::function<void(const ResilienceSample&)>& on_progress = nullptr,
    exec::ThreadPool* pool = nullptr);

/// Per-sample progress for a batch: (config index, sample). May be invoked
/// concurrently for *different* configs; per config it is in snapshot order.
using BatchProgress =
    std::function<void(std::size_t config_index, const ResilienceSample&)>;

/// Per-config completion for a batch, invoked on the calling thread in
/// config order as results are collected — cache layers persist finished
/// experiments as they arrive instead of only after the whole batch.
using BatchComplete =
    std::function<void(std::size_t config_index, const ExperimentSeries&)>;

/// Runs independent experiments concurrently on `pool` (each config gets its
/// own Runner and RNG streams; a config's whole run executes sequentially
/// inside one pool task, so experiments never contend on shared state).
/// Results are collected in config order and are bit-identical to running
/// each config through run_experiment by itself. If a config fails, its
/// exception is rethrown only after every other config finished (and
/// reached `on_complete`).
[[nodiscard]] std::vector<ExperimentSeries> run_experiment_batch(
    std::span<const ExperimentConfig> configs, exec::ThreadPool* pool = nullptr,
    const BatchProgress& on_progress = nullptr,
    const BatchComplete& on_complete = nullptr);

}  // namespace kadsim::core

#endif  // KADSIM_CORE_EXPERIMENT_H
