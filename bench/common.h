// Shared harness for the figure/table reproduction binaries.
//
// A figure is a FigureSpec (paper id, expectation, scenario configs) handed
// to run_figure() — bench/figures.cpp holds the paper's sweeps as one table,
// and the benches with their own gates declare theirs. The harness runs each
// simulation (or loads it from the deterministic on-disk cache — figures
// share simulations, e.g. Table 2 aggregates the runs behind Figures 6–9),
// prints the paper-style series table, ASCII renderings of the figure,
// churn-phase summaries, and writes CSV plus a machine-readable
// BENCH_<id>.json summary under bench_out/.
//
// Multi-config figures (k/α/s sweeps, loss×s grids) execute their uncached
// configs concurrently through core::run_experiment_batch on one
// exec::ThreadPool sized by REPRO_THREADS; narration goes through a
// thread-safe ProgressSink so interleaved runs still emit whole lines. The
// series data is bit-identical to a sequential run — only the wall clock
// changes, and BENCH_<id>.json records it alongside the thread count.
#ifndef KADSIM_BENCH_COMMON_H
#define KADSIM_BENCH_COMMON_H

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/registry.h"

namespace kadsim::bench {

struct SeriesRun {
    std::string label;                 ///< short per-config label (e.g. "k=20")
    core::ExperimentConfig config;
    core::ExperimentSeries series;     ///< filled by run_figure
    double wall_seconds = 0.0;
};

struct FigureSpec {
    std::string id;            ///< e.g. "fig06" (also the CSV file stem)
    std::string paper_ref;     ///< e.g. "Figure 6 (Simulation E)"
    std::string description;   ///< one line: scenario in paper terms
    std::string expectation;   ///< the paper's qualitative result to compare to
    std::vector<SeriesRun> runs;
    /// Filled by run_figure, recorded in BENCH_<id>.json: elapsed wall clock
    /// across the whole (concurrent) batch, and the worker count used.
    double wall_seconds = 0.0;
    int threads = 1;
};

/// Thread-safe narration: serializes whole lines onto stdout so concurrent
/// experiment tasks never interleave characters.
class ProgressSink {
public:
    /// `[label] <text>` as one atomic line.
    void line(const std::string& label, const std::string& text);
    /// The standard per-snapshot narration line.
    void sample(const std::string& label, const core::ConnectivitySample& s);

private:
    std::mutex mutex_;
};

/// Runs (or loads cached) simulations — uncached configs concurrently on one
/// pool — prints everything, writes CSV. Returns 0 (bench main() convention);
/// throws std::runtime_error when an output file cannot be written.
int run_figure(FigureSpec& spec);

/// The combined series table run_figure prints: one row per sample time in
/// the union of all runs' times, "-" where a run has no sample at that time.
[[nodiscard]] std::string series_table(const std::vector<SeriesRun>& runs);

/// Runs one experiment through the cache (bench_out/cache/<key>.csv).
core::ExperimentSeries run_cached(const core::ExperimentConfig& config,
                                  const std::string& narrate_label);

/// Runs a set of experiments through the cache, executing the misses
/// concurrently on an execution pool of `threads` workers (created only if
/// anything actually missed; 1 = one experiment at a time). Series are
/// returned in config order; `labels` (same length) prefix the narration.
/// A fresh series is returned as its cache entry stores it, so a cold run
/// reports exactly what a later cache hit loads.
std::vector<core::ExperimentSeries> run_cached_batch(
    const std::vector<core::ExperimentConfig>& configs,
    const std::vector<std::string>& labels, int threads);

/// Prints the standard bench header (scale, seed, env knobs).
void print_header(const FigureSpec& spec, const core::ReproScale& scale);

/// Escapes `"` and `\` for embedding in the BENCH_<id>.json writers.
[[nodiscard]] std::string json_escape(const std::string& in);

/// Replaces the file at `path` with `text`. Throws std::runtime_error naming
/// the path when the file cannot be opened, written or flushed.
void write_file(const std::string& path, const std::string& text);

/// Peak resident set size of this process so far (getrusage ru_maxrss),
/// bytes. Every BENCH_<id>.json records it alongside wall time so memory
/// regressions show up in the same artifact as throughput regressions.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Parses one cache-CSV data row (the 28-column ResilienceSample
/// serialization of store_cached) into `out`. Returns false on any
/// malformed, short, or over-long row — the caller treats that as a cache
/// miss. std::from_chars end to end: parsing allocates nothing, which keeps
/// cache probing linear and allocation-free even for multi-thousand-row
/// series (tests/test_bench_cache.cpp pins the allocation count).
[[nodiscard]] bool parse_sample_row(std::string_view line,
                                    core::ResilienceSample& out);

/// Output directory ("bench_out", created on demand).
std::string output_dir();

}  // namespace kadsim::bench

#endif  // KADSIM_BENCH_COMMON_H
