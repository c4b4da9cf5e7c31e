#include "bench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.h"
#include "serve/result_cache.h"
#include "util/ascii_plot.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/table.h"

namespace kadsim::bench {

namespace {

/// Deterministic cache key: every parameter that influences the series.
std::string cache_key(const core::ExperimentConfig& cfg) {
    std::ostringstream key;
    const auto& s = cfg.scenario;
    key << s.name << "|n=" << s.initial_size << "|seed=" << s.seed
        << "|k=" << s.kad.k << "|b=" << s.kad.b << "|a=" << s.kad.alpha
        << "|s=" << s.kad.s << "|loss=" << net::to_string(s.loss)
        << "|fault=" << s.fault.label() << "|traffic=" << s.traffic.enabled
        << "|lpm=" << s.traffic.lookups_per_minute
        << "|dpm=" << s.traffic.disseminations_per_minute
        << "|end=" << s.phases.end << "|snap=" << cfg.snapshot_interval
        << "|c=" << cfg.analyzer.sample_c << "|minsrc=" << cfg.analyzer.min_sources
        << "|policy=" << static_cast<int>(s.kad.bucket_policy)
        << "|refresh=" << static_cast<int>(s.kad.refresh_policy)
        << "|boost=" << s.kad.lookup_boost
        << "|probes=" << s.traffic.probes_per_snapshot;
    return key.str();
}

/// The shared content-addressed cache (serve/result_cache.h), rooted at the
/// same bench_out/cache/ directory and key scheme as the pre-promotion
/// per-process cache — existing entries stay byte-valid.
serve::ResultCache& result_cache() {
    static serve::ResultCache cache(output_dir() + "/cache");
    return cache;
}

/// The cache protocol, config-keyed: every load/store goes through these two.
bool try_load_cached(const core::ExperimentConfig& config,
                     core::ExperimentSeries& out) {
    return result_cache().load(cache_key(config), out);
}

void store_to_cache(const core::ExperimentConfig& config,
                    const core::ExperimentSeries& series) {
    if (!result_cache().store(cache_key(config), series)) {
        std::fprintf(stderr, "warning: cache store failed for %s (disk full or "
                             "unwritable %s)\n",
                     config.scenario.name.c_str(), result_cache().root().c_str());
    }
}

/// `"name": [v0,v1,...], ` over one sample field, in snapshot order.
template <class Field>
void write_series(std::ostream& out, const char* name,
                  const std::vector<core::ResilienceSample>& samples,
                  Field core::ResilienceSample::*field) {
    out << '"' << name << "\": [";
    for (std::size_t j = 0; j < samples.size(); ++j) {
        out << (j > 0 ? "," : "") << samples[j].*field;
    }
    out << "], ";
}

/// Machine-readable run summary next to the CSV: bench_out/BENCH_<id>.json.
std::string write_bench_json(const FigureSpec& spec) {
    const std::string path = output_dir() + "/BENCH_" + spec.id + ".json";
    const double churn_start = core::PaperScenarios::churn_start_min();
    std::ostringstream out;
    out << "{\n"
        << "  \"id\": \"" << json_escape(spec.id) << "\",\n"
        << "  \"paper_ref\": \"" << json_escape(spec.paper_ref) << "\",\n"
        << "  \"threads\": " << spec.threads << ",\n"
        << "  \"wall_seconds\": " << spec.wall_seconds << ",\n"
        << "  \"peak_rss_bytes\": " << peak_rss_bytes() << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < spec.runs.size(); ++i) {
        const auto& run = spec.runs[i];
        const auto& samples = run.series.samples;
        const auto s = run.series.kappa_min_summary(churn_start, 1e18);
        const auto a = run.series.kappa_avg_summary(churn_start, 1e18);
        const auto l = run.series.lambda_min_summary(churn_start, 1e18);
        // Fault metadata keeps the resilience trajectory comparable across
        // PRs: the model, its total removal budget, and the cumulative
        // removed-node count at every snapshot.
        const auto& fault = run.config.scenario.fault;
        std::uint64_t budget = 0;
        // Lookup-workload crossover instants: first snapshot where κ_min hit
        // zero vs. first where probe success dropped below one half (-1 =
        // never happened in this run).
        double kappa_zero_at = -1.0;
        double degraded_at = -1.0;
        for (const auto& sample : samples) {
            budget = std::max(budget, sample.removed_total);
            if (kappa_zero_at < 0.0 && sample.n > 0 && sample.kappa_min == 0) {
                kappa_zero_at = sample.time_min;
            }
            if (degraded_at < 0.0 && sample.probes_done > 0 &&
                sample.probe_success_rate < 0.5) {
                degraded_at = sample.time_min;
            }
        }
        out << "    {\"label\": \"" << json_escape(run.label) << "\", "
            << "\"samples\": " << samples.size() << ", "
            << "\"kappa_min_mean\": " << s.mean() << ", "
            << "\"kappa_min_rv\": " << s.relative_variance() << ", "
            << "\"kappa_avg_mean\": " << a.mean() << ", "
            << "\"lambda_min_mean\": " << l.mean() << ", "
            << "\"fault\": \"" << json_escape(fault.label()) << "\", "
            << "\"removal_budget\": " << budget << ", ";
        // Per-snapshot series, all in the same snapshot order: removals, the
        // analysis-layer metrics beyond κ (sampled λ_min, largest-SCC
        // fraction, articulation points), and the lookup workload (does the
        // overlay still resolve lookups as κ degrades?).
        using core::ResilienceSample;
        write_series(out, "removed", samples, &ResilienceSample::removed_total);
        write_series(out, "lambda_min", samples, &ResilienceSample::lambda_min);
        write_series(out, "scc_frac", samples, &ResilienceSample::scc_frac);
        write_series(out, "articulation", samples,
                     &ResilienceSample::articulation_points);
        write_series(out, "lookup_success", samples,
                     &ResilienceSample::lookup_success_rate);
        write_series(out, "probe_success", samples,
                     &ResilienceSample::probe_success_rate);
        write_series(out, "probe_hop_p50", samples, &ResilienceSample::probe_hop_p50);
        out << "\"kappa_zero_at_min\": " << kappa_zero_at << ", "
            << "\"lookup_degraded_at_min\": " << degraded_at << ", "
            << "\"wall_seconds\": " << run.wall_seconds << ", "
            << "\"snapshot_capture_us\": " << run.series.snapshot_capture_us << "}"
            << (i + 1 < spec.runs.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    write_file(path, out.str());
    return path;
}

}  // namespace

std::string output_dir() {
    const std::string dir = "bench_out";
    util::ensure_directory(dir);
    return dir;
}

std::uint64_t peak_rss_bytes() {
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << text;
    out.close();
    if (!out) throw std::runtime_error("write failed: " + path);
}

std::string json_escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

void ProgressSink::line(const std::string& label, const std::string& text) {
    std::lock_guard lock(mutex_);
    std::printf("  [%s] %s\n", label.c_str(), text.c_str());
    std::fflush(stdout);
}

void ProgressSink::sample(const std::string& label,
                          const core::ResilienceSample& s) {
    std::lock_guard lock(mutex_);
    std::printf("  [%s] t=%6.0f min  n=%5d  kappa_min=%4d  kappa_avg=%7.2f  "
                "lambda_min=%4d  scc=%.3f\n",
                label.c_str(), s.time_min, s.n, s.kappa_min, s.kappa_avg,
                s.lambda_min, s.scc_frac);
    std::fflush(stdout);
}

core::ExperimentSeries run_cached(const core::ExperimentConfig& config,
                                  const std::string& narrate_label) {
    return std::move(run_cached_batch({config}, {narrate_label}, 1).front());
}

std::vector<core::ExperimentSeries> run_cached_batch(
    const std::vector<core::ExperimentConfig>& configs,
    const std::vector<std::string>& labels, int threads) {
    KADSIM_ASSERT(configs.size() == labels.size());
    std::vector<core::ExperimentSeries> results(configs.size());
    ProgressSink sink;

    // Resolve the deterministic cache first; everything it misses runs as
    // one concurrent batch (the configs are independent simulations).
    std::vector<std::size_t> missing;
    std::vector<core::ExperimentConfig> to_run;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        results[i].name = configs[i].scenario.name;
        if (try_load_cached(configs[i], results[i])) {
            sink.line(labels[i], "loaded " + std::to_string(results[i].samples.size()) +
                                     " snapshots from cache");
        } else {
            sink.line(labels[i], "simulating: " + configs[i].scenario.name);
            missing.push_back(i);
            to_run.push_back(configs[i]);
        }
    }
    if (to_run.empty()) return results;

    // The pool exists only while there are misses to execute — pure cache
    // replays never spawn a thread. Stores happen as each experiment
    // completes, so a mid-batch failure keeps the finished configs cached.
    std::optional<exec::ThreadPool> pool;
    if (threads > 1) pool.emplace(threads);
    auto fresh = core::run_experiment_batch(
        to_run, pool ? &*pool : nullptr,
        [&](std::size_t index, const core::ResilienceSample& s) {
            sink.sample(labels[missing[index]], s);
        },
        [&](std::size_t index, const core::ExperimentSeries& series) {
            store_to_cache(configs[missing[index]], series);
        });
    for (std::size_t j = 0; j < missing.size(); ++j) {
        // The cache row keeps ostream's default 6 significant digits; pass
        // each fresh sample through it so cold and warm runs agree byte for
        // byte.
        for (auto& sample : fresh[j].samples) {
            const bool parsed = serve::ResultCache::parse_sample_row(
                serve::ResultCache::format_sample_row(sample), sample);
            KADSIM_ASSERT(parsed);
        }
        results[missing[j]] = std::move(fresh[j]);
    }
    return results;
}

std::string series_table(const std::vector<SeriesRun>& runs) {
    std::vector<std::string> header{"t(min)"};
    std::vector<double> times;
    for (const auto& run : runs) {
        header.push_back("n " + run.label);
        header.push_back("Min " + run.label);
        header.push_back("Avg " + run.label);
        for (const auto& s : run.series.samples) times.push_back(s.time_min);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());

    util::TextTable table(header);
    for (const double t : times) {
        std::vector<std::string> row{util::TextTable::num(static_cast<long long>(t))};
        for (const auto& run : runs) {
            const auto& samples = run.series.samples;
            const auto it = std::find_if(samples.begin(), samples.end(),
                                         [t](const auto& s) { return s.time_min == t; });
            if (it != samples.end()) {
                row.push_back(util::TextTable::num(static_cast<long long>(it->n)));
                row.push_back(util::TextTable::num(static_cast<long long>(it->kappa_min)));
                row.push_back(util::TextTable::num(it->kappa_avg, 1));
            } else {
                row.insert(row.end(), {"-", "-", "-"});
            }
        }
        table.add_row(std::move(row));
    }
    return table.to_string();
}

void print_header(const FigureSpec& spec, const core::ReproScale& scale) {
    std::printf("================================================================\n");
    std::printf("%s — %s\n", spec.paper_ref.c_str(), spec.description.c_str());
    std::printf("================================================================\n");
    std::printf("scale: %s  (small=%d large=%d horizon=%lld min, snapshots every %lld "
                "min, c=%.3f, seed=%llu, threads=%d)\n",
                util::repro_scale() == util::ReproScale::kFull     ? "full"
                : util::repro_scale() == util::ReproScale::kPaper ? "paper"
                                                                  : "quick",
                scale.size_small, scale.size_large,
                static_cast<long long>(scale.churn_figs_end / sim::kMinute),
                static_cast<long long>(scale.snapshot_interval / sim::kMinute),
                scale.sample_c, static_cast<unsigned long long>(scale.seed),
                scale.threads);
    std::printf("paper expectation: %s\n\n", spec.expectation.c_str());
}

int run_figure(FigureSpec& spec) {
    const auto scale = core::ReproScale::from_env();
    print_header(spec, scale);
    spec.threads = std::max(1, scale.threads);

    const auto batch_start = std::chrono::steady_clock::now();
    {
        std::vector<core::ExperimentConfig> configs;
        std::vector<std::string> labels;
        configs.reserve(spec.runs.size());
        labels.reserve(spec.runs.size());
        for (const auto& run : spec.runs) {
            configs.push_back(run.config);
            labels.push_back(run.label);
        }
        auto series = run_cached_batch(configs, labels, spec.threads);
        for (std::size_t i = 0; i < spec.runs.size(); ++i) {
            spec.runs[i].series = std::move(series[i]);
        }
    }
    for (auto& run : spec.runs) run.wall_seconds = run.series.wall_seconds;
    spec.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - batch_start)
            .count();

    std::printf("\n%s\n", series_table(spec.runs).c_str());

    // --- ASCII figures ----------------------------------------------------
    static constexpr char kGlyphs[] = {'o', '*', '+', 'x', '#', '@', '%', '&'};
    util::AsciiPlot min_plot(96, 20);
    min_plot.set_title(spec.paper_ref + " — Minimum connectivity over time");
    util::AsciiPlot avg_plot(96, 20);
    avg_plot.set_title(spec.paper_ref + " — Average connectivity over time");
    for (std::size_t r = 0; r < spec.runs.size(); ++r) {
        const auto& run = spec.runs[r];
        util::PlotSeries min_series{"Min " + run.label,
                                    kGlyphs[r % sizeof(kGlyphs)], {}, {}};
        util::PlotSeries avg_series{"Avg " + run.label,
                                    kGlyphs[r % sizeof(kGlyphs)], {}, {}};
        for (const auto& s : run.series.samples) {
            min_series.x.push_back(s.time_min);
            min_series.y.push_back(s.kappa_min);
            avg_series.x.push_back(s.time_min);
            avg_series.y.push_back(s.kappa_avg);
        }
        min_plot.add_series(std::move(min_series));
        avg_plot.add_series(std::move(avg_series));
    }
    std::printf("%s\n", min_plot.render().c_str());
    std::printf("%s\n", avg_plot.render().c_str());

    // --- churn-phase summary (Table-2 style) ------------------------------
    const double churn_start = core::PaperScenarios::churn_start_min();
    util::TextTable summary(
        {"config", "mean(Min)", "RV(Min)", "mean(Avg)", "min(Min)", "max(Min)"});
    for (const auto& run : spec.runs) {
        const auto s = run.series.kappa_min_summary(churn_start, 1e18);
        const auto a = run.series.kappa_avg_summary(churn_start, 1e18);
        summary.add_row({run.label, util::TextTable::num(s.mean(), 2),
                         util::TextTable::num(s.relative_variance(), 2),
                         util::TextTable::num(a.mean(), 2),
                         util::TextTable::num(s.min(), 0),
                         util::TextTable::num(s.max(), 0)});
    }
    std::printf("churn-phase (t >= %.0f min) summary:\n%s\n", churn_start,
                summary.to_string().c_str());

    // --- CSV ---------------------------------------------------------------
    const std::string csv_path = output_dir() + "/" + spec.id + ".csv";
    util::CsvWriter csv(csv_path);
    csv.write_row({"config", "time_min", "n", "m", "kappa_min", "kappa_avg", "scc",
                   "reciprocity", "pairs", "lambda_min", "lambda_avg", "scc_frac",
                   "wcc_frac", "articulation", "bridges", "kappa_gap", "lookups",
                   "lookup_ok", "lookup_hop_p50", "lookup_hop_p99", "lookup_lat_p50",
                   "lookup_lat_p99", "probes", "probe_ok", "probe_hop_p50",
                   "probe_hop_p99"});
    for (const auto& run : spec.runs) {
        for (const auto& s : run.series.samples) {
            csv.write_row({run.label, util::CsvWriter::field(s.time_min),
                           util::CsvWriter::field(static_cast<long long>(s.n)),
                           util::CsvWriter::field(static_cast<long long>(s.m)),
                           util::CsvWriter::field(static_cast<long long>(s.kappa_min)),
                           util::CsvWriter::field(s.kappa_avg),
                           util::CsvWriter::field(static_cast<long long>(s.scc_count)),
                           util::CsvWriter::field(s.reciprocity),
                           util::CsvWriter::field(
                               static_cast<long long>(s.pairs_evaluated)),
                           util::CsvWriter::field(static_cast<long long>(s.lambda_min)),
                           util::CsvWriter::field(s.lambda_avg),
                           util::CsvWriter::field(s.scc_frac),
                           util::CsvWriter::field(s.wcc_frac),
                           util::CsvWriter::field(
                               static_cast<long long>(s.articulation_points)),
                           util::CsvWriter::field(static_cast<long long>(s.bridges)),
                           util::CsvWriter::field(
                               static_cast<long long>(s.kappa_degree_gap)),
                           util::CsvWriter::field(
                               static_cast<long long>(s.lookups_done)),
                           util::CsvWriter::field(s.lookup_success_rate),
                           util::CsvWriter::field(s.lookup_hop_p50),
                           util::CsvWriter::field(s.lookup_hop_p99),
                           util::CsvWriter::field(s.lookup_latency_p50_ms),
                           util::CsvWriter::field(s.lookup_latency_p99_ms),
                           util::CsvWriter::field(
                               static_cast<long long>(s.probes_done)),
                           util::CsvWriter::field(s.probe_success_rate),
                           util::CsvWriter::field(s.probe_hop_p50),
                           util::CsvWriter::field(s.probe_hop_p99)});
        }
    }
    csv.close();  // surfaces full-disk / unwritable-path errors loudly
    std::printf("csv: %s\n", csv_path.c_str());
    std::printf("json: %s\n", write_bench_json(spec).c_str());
    double serial = 0.0;
    for (const auto& run : spec.runs) serial += run.wall_seconds;
    std::printf("wall time: %.1f s elapsed (%.1f s of simulation across %d threads)\n",
                spec.wall_seconds, serial, spec.threads);
    return 0;
}

}  // namespace kadsim::bench
