// kadbench — end-to-end and per-layer benchmark of kadsim.
//
//   kadbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--out FILE] [--trace-out FILE] [--workdir DIR] [--smoke]
//   kadbench --selftest
//
// One process runs one workload: it sets up several times (the median is
// setup_s), then runs the workload's closed loop of requests for at least
// --seconds and at least a fixed number of requests, then checks the
// outputs. The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; untraced runs report the end-to-end metrics, traced
// runs (--trace 1) the per-layer ones. --out writes the full record (output
// digest, exact counters, sample counts, machine) for compare.py.
//
// Workloads (README.md has the tables):
//   fig_sim_e        figure run: run_experiment(sim_e(20)) at quick scale.
//   analysis_series  offline κ/λ series: run_experiment of the metrics
//                    family at n = 300, delta off.
//   daemon_stream    live daemon: INGEST then METRICS per snapshot of
//                    churning n = 300 overlays, one a simulated minute.
//   daemon_replay    restarted daemon on a filled result cache: PAIR and
//                    METRICS queries over 24 snapshots.
//
// Threads: one driver thread plus a 3-worker pool (or the daemon's
// 3-thread analysis pool), so at most 4 run at once.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "exec/thread_pool.h"
#include "flow/mincut.h"
#include "flow/vertex_connectivity.h"
#include "graph/snapshot.h"
#include "scen/runner.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/sha1.h"
#include "replica.h"
#include "tracer.h"

#ifndef KADBENCH_BUILD_TYPE
#define KADBENCH_BUILD_TYPE "unknown"
#endif

namespace kadbench {
namespace {

using namespace kadsim;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 20170327;
/// serialize_full of Sim E at quick scale and the default seed
/// (tests/test_fault_equivalence.cpp pins the same bytes).
constexpr const char* kSimEGolden = "542860fcc1966fae1883a76f5354410efce8573d";
constexpr int kWorkers = 3;
constexpr int kSetupRepeats = 5;
/// The network of analysis_series and of the daemon workloads: the metrics
/// family's churning overlay at this size, which the daemon workloads
/// snapshot once a simulated minute from the start of churn.
constexpr int kOverlayNodes = 300;
constexpr int kSmokeNodes = 40;
constexpr long long kOverlayStartMin = 120;
/// Timed snapshots per overlay in daemon_stream, and daemon_replay's
/// overlays × snapshots (6 times the daemon's default LRU of 4).
constexpr int kStreamBlock = 30;
constexpr int kReplayOverlays = 4;
constexpr int kReplayBlock = 6;
/// Requests every run completes whatever --seconds says; output_sha1 and
/// the exact counters cover exactly these, so runs of one seed compare.
constexpr std::size_t kStreamPrefix = 10;
constexpr std::size_t kReplayPrefix = 200;
constexpr std::size_t kStreamCheckEvery = 10;
constexpr std::size_t kReplayCheckEvery = 50;

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;
    std::string out;
    std::string trace_out;
    std::string workdir = "build/kadbench/work";
};

double seconds_since(Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Linear interpolation between order statistics (0 for no samples).
double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string sha1_hex(std::string_view bytes) { return util::to_hex(util::sha1(bytes)); }

bool is_err(std::string_view response) { return response.starts_with("ERR"); }

std::string payload_of(std::string_view response) {
    return std::string(response.starts_with("OK ") ? response.substr(3) : response);
}

/// The full ResilienceSample serialization the Sim E golden pins.
std::string serialize_full(const core::ExperimentSeries& series) {
    std::ostringstream out;
    for (const auto& s : series.samples) {
        out << s.time_min << ',' << s.n << ',' << s.m << ',' << s.kappa_min << ','
            << s.kappa_avg << ',' << s.scc_count << ',' << s.reciprocity << ','
            << s.pairs_evaluated << ',' << s.removed_total << ',' << s.lambda_min
            << ',' << s.lambda_avg << ',' << s.scc_frac << ',' << s.wcc_frac << ','
            << s.articulation_points << ',' << s.bridges << ',' << s.out_degree_min
            << ',' << s.in_degree_min << ',' << s.kappa_degree_gap << '\n';
    }
    return out.str();
}

// ---------------------------------------------------------------------------
// Output checks. Each returns "" when the output is right, else a diagnostic.
// ---------------------------------------------------------------------------

std::string check_golden(const std::string& actual, const std::string& expected) {
    if (actual == expected) return {};
    return "series sha1 " + actual + " != golden " + expected;
}

/// What every sampled analysis guarantees. κ(u,v) <= λ(u,v) <= the degree
/// bound holds per pair, but the sampled minima are taken over different
/// pair sets (κ skips adjacent pairs), so κ_min <= λ_min is not checked:
/// dense graphs break it legitimately.
std::string check_invariants(const core::ResilienceSample& s, const std::string& label) {
    const int degree_min = std::min(s.out_degree_min, s.in_degree_min);
    if (s.n <= 0) return label + ": empty analysis";
    if (s.lambda_min > degree_min || s.lambda_min > s.lambda_avg ||
        s.kappa_min > s.kappa_avg || s.kappa_degree_gap != degree_min - s.kappa_min) {
        return label + ": lambda_min " + std::to_string(s.lambda_min) + " <= degree_min " +
               std::to_string(degree_min) + ", mins <= averages or the kappa gap " +
               std::to_string(s.kappa_degree_gap) + " does not hold";
    }
    return {};
}

std::string check_row(std::string_view daemon_row, const std::string& label) {
    core::ResilienceSample s;
    if (!serve::ResultCache::parse_sample_row(daemon_row, s)) {
        return label + ": METRICS row does not parse";
    }
    return check_invariants(s, label);
}

std::string check_row_equal(std::string_view daemon_row, std::string_view offline_row,
                            const std::string& label) {
    if (daemon_row == offline_row) return {};
    return label + ": METRICS row differs from the offline analyzer's";
}

/// A PAIR answer against κ(u,v) from the flow kernel's own pair function.
std::string check_pair(std::string_view answer, const graph::Digraph& g, int u, int v,
                       const std::string& label) {
    const int expected = flow::pair_vertex_connectivity(g, u, v);
    const std::string prefix = "OK kappa=" + std::to_string(expected) + " ";
    if (answer.starts_with(prefix)) return {};
    return label + ": PAIR " + std::to_string(u) + " " + std::to_string(v) +
           " answered '" + std::string(answer.substr(0, 40)) + "', kappa is " +
           std::to_string(expected);
}

// ---------------------------------------------------------------------------
// What a workload reports.
// ---------------------------------------------------------------------------

struct Report {
    std::string request;             ///< what one request is, for the printout
    std::vector<double> latency_ms;  ///< one per request
    double window_s = 0.0;
    std::vector<double> setup_s;     ///< one per set-up repetition
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::string digest;              ///< bytes behind output_sha1
    /// Tracer-clock ranges of the traced phases (trace.unattributed_s).
    std::vector<std::pair<std::int64_t, std::int64_t>> traced;

    void check(std::string problem) {
        if (!problem.empty() && problems.size() < 20) problems.push_back(std::move(problem));
        else if (!problem.empty()) problems.back() = "(more problems omitted)";
    }
    void count(std::string_view response) {
        ++attempted;
        if (is_err(response)) {
            ++failed;
            check("request failed: " + std::string(response.substr(0, 120)));
        }
    }
};

/// Records the time from construction to destruction as a traced phase.
class TracedRange {
public:
    TracedRange(Tracer* tracer, Report& rep)
        : tracer_(tracer), rep_(rep), from_(tracer != nullptr ? tracer->now_ns() : 0) {}
    ~TracedRange() {
        if (tracer_ != nullptr) rep_.traced.emplace_back(from_, tracer_->now_ns());
    }
    TracedRange(const TracedRange&) = delete;
    TracedRange& operator=(const TracedRange&) = delete;

private:
    Tracer* tracer_;
    Report& rep_;
    std::int64_t from_;
};

/// The measured phase: at least `min_requests`, and until `seconds` passed.
class Window {
public:
    Window(double seconds, std::size_t min_requests)
        : seconds_(seconds), min_requests_(min_requests), start_(Clock::now()) {}
    [[nodiscard]] bool more(std::size_t done) const {
        return done < min_requests_ || elapsed() < seconds_;
    }
    [[nodiscard]] double elapsed() const { return seconds_since(start_); }

private:
    double seconds_;
    std::size_t min_requests_;
    Clock::time_point start_;
};

core::ReproScale bench_scale(std::uint64_t seed) {
    core::ReproScale scale;  // quick-scale defaults; REPRO_* is not read
    scale.seed = seed;
    scale.threads = kWorkers;
    return scale;
}

core::ExperimentConfig sim_e_config(std::uint64_t seed, bool smoke) {
    core::ExperimentConfig config = core::PaperScenarios(bench_scale(seed)).sim_e(20);
    if (smoke) {
        config.scenario.initial_size = 24;
        config.scenario.phases.set_end(sim::minutes(90));
    }
    return config;
}

core::ExperimentConfig analysis_config(std::uint64_t seed, bool smoke) {
    core::ExperimentConfig config =
        core::PaperScenarios(bench_scale(seed)).metrics_1000();
    config.scenario.initial_size = smoke ? kSmokeNodes : kOverlayNodes;
    config.scenario.name = "METRICS-" + std::to_string(config.scenario.initial_size) +
                           ":churn=1/1,k=20";
    return config;
}

/// Binary snapshots of the churning overlay, one a minute from the start
/// of churn.
std::vector<std::string> overlay_snapshots(std::uint64_t seed, int nodes, int count) {
    scen::ScenarioConfig scenario = analysis_config(seed, false).scenario;
    scenario.name = "kadbench-overlay";
    scenario.initial_size = nodes;
    scenario.phases.set_end(sim::minutes(kOverlayStartMin + count));
    scen::Runner runner(scenario);
    std::vector<std::string> out;
    graph::RoutingSnapshot snap;
    for (int i = 0; i < count; ++i) {
        runner.step_to(sim::minutes(kOverlayStartMin + i));
        runner.capture(snap);
        std::ostringstream bytes(std::ios::binary);
        snap.save_binary(bytes);
        out.push_back(std::move(bytes).str());
    }
    return out;
}

graph::RoutingSnapshot parse_snapshot(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    return graph::RoutingSnapshot::parse(in);
}

// ---------------------------------------------------------------------------
// Offline workloads: fig_sim_e, analysis_series.
// ---------------------------------------------------------------------------

using ConfigFn = core::ExperimentConfig (*)(std::uint64_t seed, bool smoke);

/// Set-up: start the pool and run the workload's smoke-size series once, so
/// the measured series find code and allocator warm. The window runs whole
/// series with seeds --seed, --seed + 1, ... With `per_point` a request is
/// one result of a series (the wait since the previous result), otherwise
/// a whole series.
void run_offline(const Options& opt, Tracer* tracer, Report& rep, ConfigFn make_config,
                 bool per_point) {
    std::unique_ptr<exec::ThreadPool> pool;
    for (int r = 0; r < kSetupRepeats; ++r) {
        pool.reset();
        const auto t = Clock::now();
        pool = std::make_unique<exec::ThreadPool>(kWorkers);
        (void)core::run_experiment(make_config(opt.seed, true), nullptr, pool.get());
        rep.setup_s.push_back(seconds_since(t));
    }
    const TracedRange traced(tracer, rep);
    const Window window(opt.seconds, 1);
    for (std::size_t i = 0; window.more(i); ++i) {
        const core::ExperimentConfig config = make_config(opt.seed + i, opt.smoke);
        const auto expected =
            static_cast<std::uint64_t>(config.scenario.phases.end / config.snapshot_interval);
        rep.attempted += expected;
        const auto start = Clock::now();
        auto last = start;
        // Results arrive one at a time, in snapshot order, under the
        // engine's emitter lock.
        std::function<void(const core::ResilienceSample&)> on_result;
        if (per_point && tracer == nullptr) {
            on_result = [&rep, &last](const core::ResilienceSample&) {
                const auto now = Clock::now();
                rep.latency_ms.push_back(
                    std::chrono::duration<double, std::milli>(now - last).count());
                last = now;
            };
        }
        core::ExperimentSeries series;
        try {
            const Span span(tracer, "kadbench.series", i);
            series = tracer != nullptr ? run_pipelined(config, *pool, *tracer)
                                       : core::run_experiment(config, on_result, pool.get());
        } catch (const std::exception& e) {
            rep.failed += expected;
            rep.check("series " + std::to_string(i) + " threw: " + e.what());
            continue;
        }
        if (!on_result) rep.latency_ms.push_back(seconds_since(start) * 1e3);
        if (series.samples.size() != expected) {
            rep.failed += expected - std::min<std::uint64_t>(expected, series.samples.size());
            rep.check("series " + std::to_string(i) + " has " +
                      std::to_string(series.samples.size()) + " snapshots, expected " +
                      std::to_string(expected));
        }
        for (std::size_t k = 0; k < series.samples.size(); ++k) {
            rep.check(check_invariants(series.samples[k], "series " + std::to_string(i) +
                                                              " snapshot " + std::to_string(k)));
        }
        if (i == 0) {
            rep.digest = serialize_full(series);
            if (tracer != nullptr) tracer->mark_exact();
        }
    }
    rep.window_s = window.elapsed();
}

void run_fig_sim_e(const Options& opt, const std::string& /*dir*/, Tracer* tracer,
                   Report& rep) {
    rep.request = "one result of a Sim E figure series (k=20, n=250, 12 per series)";
    if (opt.smoke) rep.request = "one result of a smoke-size Sim E series";
    run_offline(opt, tracer, rep, sim_e_config, true);
    if (!opt.smoke && opt.seed == kDefaultSeed) {
        rep.check(check_golden(sha1_hex(rep.digest), kSimEGolden));
    }
}

void run_analysis(const Options& opt, const std::string& /*dir*/, Tracer* tracer,
                  Report& rep) {
    rep.request = "one offline series (n=" +
                  std::to_string(opt.smoke ? kSmokeNodes : kOverlayNodes) +
                  ", 6 snapshots, delta off)";
    run_offline(opt, tracer, rep, analysis_config, false);
}

// ---------------------------------------------------------------------------
// Daemon workloads.
// ---------------------------------------------------------------------------

/// One client connection to the daemon's socket.
class Client {
public:
    explicit Client(const std::string& socket_path) {
        std::string error;
        fd_ = serve::connect_unix(socket_path, error);
        if (fd_ < 0) throw std::runtime_error("connect: " + error);
    }
    ~Client() { ::close(fd_); }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    std::string request(std::string_view payload) {
        if (serve::write_frame(fd_, payload) != serve::FrameResult::kOk) {
            return "ERR kadbench: request not sent";
        }
        std::string response;
        if (serve::read_frame(fd_, response) != serve::FrameResult::kOk) {
            return "ERR kadbench: no response";
        }
        return response;
    }

private:
    int fd_ = -1;
};

/// A started daemon with one connected client; stops it on destruction.
struct LiveDaemon {
    explicit LiveDaemon(serve::DaemonConfig config)
        : daemon(std::make_unique<serve::Daemon>(std::move(config))) {
        daemon->start();
        client = std::make_unique<Client>(daemon->config().socket_path);
    }
    ~LiveDaemon() {
        client.reset();
        daemon->stop();
    }
    LiveDaemon(const LiveDaemon&) = delete;
    LiveDaemon& operator=(const LiveDaemon&) = delete;

    std::unique_ptr<serve::Daemon> daemon;
    std::unique_ptr<Client> client;
};

/// The daemon as resilience_daemon ships it (delta on), with the benchmark's
/// 3-thread analysis pool.
serve::DaemonConfig daemon_config(const std::string& dir, const std::string& name) {
    serve::DaemonConfig config;
    config.socket_path = dir + "/" + name + ".sock";
    config.cache_dir = dir + "/" + name + "-cache";
    config.analysis_threads = kWorkers;
    config.analyzer.use_delta = true;
    return config;
}

std::string ingest_request(std::size_t index, const std::string& bytes) {
    return "INGEST kadbench-" + std::to_string(index) + "\n" + bytes;
}

/// One snapshot the stream ingested: its overlay and position there, and the
/// METRICS row it got back. The stream holds one overlay's bytes at a time
/// and rebuilds an overlay from its seed when it needs the bytes again.
struct Ingested {
    std::uint64_t overlay = 0;
    std::size_t position = 0;
    std::string row;
};

/// INGEST, then METRICS of the returned hash (which waits for the
/// analysis). Returns the milliseconds from sending INGEST to the reply.
double ingest_and_answer(Client& client, Tracer* tracer, Report& rep, std::size_t index,
                         const std::string& bytes, std::string& row) {
    const auto t = Clock::now();
    std::string ingested;
    {
        const Span span(tracer, "serve.ingest", index);
        ingested = client.request(ingest_request(index, bytes));
    }
    std::string metrics;
    {
        const Span span(tracer, "serve.metrics", index);
        metrics = client.request("METRICS " + payload_of(ingested));
    }
    const double ms = seconds_since(t) * 1e3;
    rep.count(ingested);
    rep.count(metrics);
    row = payload_of(metrics);
    return ms;
}

/// The stream runs overlay after overlay (seeds --seed, --seed + 1, ...):
/// each overlay's first snapshot primes the daemon's delta cache untimed,
/// then each of its next snapshots is a request. Set-up: build the first
/// overlay, start the daemon, connect, and prime it.
void run_daemon_stream(const Options& opt, const std::string& dir, Tracer* tracer,
                       Report& rep) {
    const int nodes = opt.smoke ? kSmokeNodes : kOverlayNodes;
    const int block = opt.smoke ? 6 : kStreamBlock;
    rep.request = "INGEST + METRICS of one n=" + std::to_string(nodes) + " snapshot (" +
                  std::to_string(block) + " per overlay, after one priming snapshot)";
    const auto make_overlay = [&opt, nodes, block](std::uint64_t j) {
        return overlay_snapshots(opt.seed + j, nodes, block + 1);
    };
    std::vector<Ingested> log;
    std::vector<std::string> overlay;
    std::unique_ptr<LiveDaemon> live;
    for (int r = 0; r < kSetupRepeats; ++r) {
        live.reset();
        std::filesystem::remove_all(dir + "/stream-cache");
        log.clear();
        const auto t = Clock::now();
        overlay = make_overlay(0);
        live = std::make_unique<LiveDaemon>(daemon_config(dir, "stream"));
        rep.count(live->client->request("PING"));
        log.push_back({0, 0, {}});
        (void)ingest_and_answer(*live->client, nullptr, rep, 0, overlay[0], log.back().row);
        rep.setup_s.push_back(seconds_since(t));
    }
    const core::AnalyzerOptions analyzer = live->daemon->config().analyzer;

    {
        const TracedRange traced(tracer, rep);
        const Window window(opt.seconds, kStreamPrefix);
        while (window.more(rep.latency_ms.size())) {
            if (log.back().position + 1 == overlay.size()) {
                const std::uint64_t j = log.back().overlay + 1;
                overlay = make_overlay(j);
                log.push_back({j, 0, {}});
                (void)ingest_and_answer(*live->client, tracer, rep, log.size() - 1, overlay[0],
                                        log.back().row);
            }
            const std::size_t index = log.size();
            log.push_back({log.back().overlay, log.back().position + 1, {}});
            const Span span(tracer, "kadbench.request", index);
            if (tracer != nullptr) {
                const Span ping(tracer, "serve.ping", index);
                rep.count(live->client->request("PING"));
            }
            rep.latency_ms.push_back(ingest_and_answer(
                *live->client, tracer, rep, index, overlay[log.back().position], log.back().row));
        }
        rep.window_s = window.elapsed();
    }
    live.reset();

    // Walks the log in ingest order with each snapshot's bytes.
    const auto for_each_ingested = [&log, &make_overlay](const auto& visit) {
        std::vector<std::string> bytes;
        for (std::size_t i = 0; i < log.size(); ++i) {
            if (i == 0 || log[i].overlay != log[i - 1].overlay) bytes = make_overlay(log[i].overlay);
            visit(i, bytes[log[i].position]);
        }
    };
    exec::ThreadPool pool(kWorkers);
    if (tracer != nullptr) {
        std::vector<std::string> inputs;  // rebuilt before the traced replay
        for_each_ingested([&inputs](std::size_t, const std::string& b) { inputs.push_back(b); });
        DaemonReplica replica(dir + "/replica-cache", analyzer, pool,
                              serve::DaemonConfig{}.hot_capacity, *tracer);
        const TracedRange traced(tracer, rep);
        for (std::size_t i = 0; i < log.size(); ++i) {
            std::string row;
            (void)replica.ingest(inputs[i], i, row);
            if (row != log[i].row) rep.check("replayed row " + std::to_string(i) + " differs");
            if (i + 1 == kStreamPrefix) tracer->mark_exact();
        }
        tracer->add("analysis.delta.hit_ratio", replica.delta_hit_ratio());
    }

    core::AnalyzerOptions offline = analyzer;
    offline.use_delta = false;
    const core::ConnectivityAnalyzer reference(offline);
    for_each_ingested([&](std::size_t i, const std::string& bytes) {
        const std::string label = "snapshot " + std::to_string(i);
        rep.check(check_row(log[i].row, label));
        if (i % kStreamCheckEvery == 0 || i + 1 == log.size()) {
            const std::string expected = serve::ResultCache::format_sample_row(
                reference.analyze(parse_snapshot(bytes), &pool));
            rep.check(check_row_equal(log[i].row, expected, label));
        }
        if (i < kStreamPrefix) rep.digest += log[i].row + '\n';
    });
}

/// Inputs: short series of several overlays (seeds --seed, --seed + 1,
/// ...), which a throwaway daemon cold-analyzes into a result cache (not
/// timed: that cost is daemon_stream's). Set-up: a fresh daemon starts on
/// the cache and answers METRICS for every snapshot (setup_s is the median
/// restart). A request is one query: 80% PAIR of a non-adjacent pair, 20%
/// METRICS, on a uniformly drawn snapshot.
void run_daemon_replay(const Options& opt, const std::string& dir, Tracer* tracer,
                       Report& rep) {
    const int nodes = opt.smoke ? kSmokeNodes : kOverlayNodes;
    const int overlays = opt.smoke ? 2 : kReplayOverlays;
    const int block = opt.smoke ? 3 : kReplayBlock;
    std::vector<std::string> inputs;
    for (int j = 0; j < overlays; ++j) {
        for (auto& bytes : overlay_snapshots(opt.seed + j, nodes, block)) {
            inputs.push_back(std::move(bytes));
        }
    }
    rep.request = "one PAIR (80%) or METRICS (20%) query over " +
                  std::to_string(inputs.size()) + " n=" + std::to_string(nodes) +
                  " snapshots";
    const serve::DaemonConfig config = daemon_config(dir, "replay");

    // Restart: INGEST everything, then wait for every METRICS row.
    const auto answer_all = [&inputs, &rep](Client& client, std::vector<std::string>& hashes,
                                            std::vector<std::string>& rows) {
        hashes.clear();
        rows.clear();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const std::string r = client.request(ingest_request(i, inputs[i]));
            rep.count(r);
            hashes.push_back(payload_of(r));
        }
        for (const auto& hash : hashes) {
            const std::string r = client.request("METRICS " + hash);
            rep.count(r);
            rows.push_back(payload_of(r));
        }
    };
    std::vector<std::string> hashes;
    std::vector<std::string> cold_rows;
    {
        const LiveDaemon cold(config);
        answer_all(*cold.client, hashes, cold_rows);
    }
    std::vector<graph::Digraph> graphs;
    for (const auto& bytes : inputs) graphs.push_back(parse_snapshot(bytes).to_digraph());

    std::unique_ptr<LiveDaemon> live;
    for (int r = 0; r < kSetupRepeats; ++r) {
        live.reset();
        const auto t = Clock::now();
        live = std::make_unique<LiveDaemon>(config);
        std::vector<std::string> restart_hashes;
        std::vector<std::string> restart_rows;
        answer_all(*live->client, restart_hashes, restart_rows);
        rep.setup_s.push_back(seconds_since(t));
        if (restart_hashes != hashes || restart_rows != cold_rows) {
            rep.check("restart " + std::to_string(r) + " answers differ from the cold run");
        }
    }

    struct Query {
        std::size_t snapshot = 0;
        int u = -1;  ///< -1: METRICS
        int v = -1;
        std::string answer;
    };
    std::vector<Query> queries;
    util::Rng rng(opt.seed ^ 0x6b616462656e6368ULL);
    std::optional<TracedRange> traced(std::in_place, tracer, rep);
    const Window window(opt.seconds, kReplayPrefix);
    for (std::size_t q = 0; window.more(q); ++q) {
        Query query;
        query.snapshot = rng.next_below(inputs.size());
        const graph::Digraph& g = graphs[query.snapshot];
        std::string request;
        if (rng.next_below(5) < 4) {
            do {
                query.u = static_cast<int>(rng.next_below(g.vertex_count()));
                query.v = static_cast<int>(rng.next_below(g.vertex_count()));
            } while (query.u == query.v || g.has_edge(query.u, query.v));
            request = "PAIR " + hashes[query.snapshot] + " " + std::to_string(query.u) +
                      " " + std::to_string(query.v);
        } else {
            request = "METRICS " + hashes[query.snapshot];
        }
        const auto t = Clock::now();
        {
            const Span span(tracer, query.u < 0 ? "serve.metrics" : "serve.pair", q);
            query.answer = live->client->request(request);
        }
        rep.latency_ms.push_back(seconds_since(t) * 1e3);
        rep.count(query.answer);
        queries.push_back(std::move(query));
    }
    rep.window_s = window.elapsed();
    traced.reset();
    if (tracer != nullptr) {
        const serve::DaemonCounters c = live->daemon->counters();
        const auto lookups = c.hot_hits + c.hot_misses;
        tracer->add("serve.hot.hit_ratio",
                    lookups == 0 ? 0.0 : static_cast<double>(c.hot_hits) /
                                             static_cast<double>(lookups));
    }
    live.reset();

    if (tracer != nullptr) {
        exec::ThreadPool pool(kWorkers);
        DaemonReplica replica(config.cache_dir, config.analyzer, pool, config.hot_capacity,
                              *tracer);
        const TracedRange replayed(tracer, rep);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            std::string row;
            if (replica.ingest(inputs[i], i, row) != hashes[i] || row != cold_rows[i]) {
                rep.check("replayed restart of snapshot " + std::to_string(i) + " differs");
            }
        }
        for (std::size_t q = 0; q < queries.size(); ++q) {
            const Query& query = queries[q];
            if (query.u >= 0 &&
                replica.pair(hashes[query.snapshot], query.u, query.v, q) != query.answer) {
                rep.check("replayed query " + std::to_string(q) + " differs");
            }
            if (q + 1 == kReplayPrefix) tracer->mark_exact();
        }
    }

    for (std::size_t i = 0; i < cold_rows.size(); ++i) {
        rep.check(check_row(cold_rows[i], "snapshot " + std::to_string(i)));
        rep.digest += cold_rows[i] + '\n';
    }
    std::size_t pairs = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const Query& query = queries[q];
        const std::string label = "query " + std::to_string(q);
        if (query.u < 0) {
            if (payload_of(query.answer) != cold_rows[query.snapshot]) {
                rep.check(label + ": METRICS answer differs from the analyzed row");
            }
        } else if (pairs++ % kReplayCheckEvery == 0) {
            rep.check(check_pair(query.answer, graphs[query.snapshot], query.u, query.v,
                                 label));
        }
        if (q < kReplayPrefix) rep.digest += query.answer + '\n';
    }
}

// ---------------------------------------------------------------------------
// Metrics and output.
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Spans (each gives <span>.busy_s and <span>.calls), in pipeline order.
constexpr const char* kSpans[] = {
    "scen.step",         "scen.capture",       "kad.probes",        "graph.parse",
    "serve.hash",        "serve.cache_load",   "graph.to_digraph",  "analysis.delta_begin",
    "flow.kappa",        "flow.lambda",        "analysis.structure", "analysis.delta_end",
    "serve.cache_store", "serve.spool",        "flow.witness_net",  "flow.pair_cut",
    "serve.ingest",      "serve.metrics",      "serve.pair",        "serve.ping"};

/// Spans on the request path, which also give .p50_ms and .p99_ms.
constexpr const char* kRequestSpans[] = {
    "graph.parse", "serve.hash",  "serve.cache_load", "flow.witness_net", "flow.pair_cut",
    "serve.ingest", "serve.metrics", "serve.pair",     "serve.ping"};

/// Counters with their units.
constexpr std::pair<const char*, const char*> kCounters[] = {
    {"scen.events", "count"},
    {"graph.edges", "count"},
    {"flow.kappa.pairs", "count"},
    {"flow.kappa.flows_capped", "count"},
    {"flow.kappa.pairs_reused", "count"},
    {"flow.kappa.arcs_touched", "count"},
    {"flow.kappa.arena_mib", "MiB"},
    {"flow.lambda.pairs", "count"},
    {"flow.lambda.flows_capped", "count"},
    {"flow.lambda.pairs_reused", "count"},
    {"analysis.delta.hit_ratio", "ratio"},
    {"serve.hot.hit_ratio", "ratio"}};

/// The counters compare.py requires to be equal between runs of one seed.
bool is_exact_counter(std::string_view name) {
    return name == "scen.events" || name == "graph.edges" ||
           (name.starts_with("flow.") && name != "flow.kappa.arena_mib");
}

double peak_rss_mib() {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<Metric> end_to_end_metrics(const Report& rep) {
    return {
        {"latency_p50_ms", percentile(rep.latency_ms, 0.5), "ms"},
        {"latency_p90_ms", percentile(rep.latency_ms, 0.9), "ms"},
        {"setup_s", percentile(rep.setup_s, 0.5), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
}

/// Cost of recording one span, measured on a scratch tracer.
double span_cost_s() {
    Tracer scratch;
    constexpr int kSpansMeasured = 20000;
    const auto t = Clock::now();
    for (int i = 0; i < kSpansMeasured; ++i) {
        const Span span(&scratch, "kadbench.calibrate", static_cast<std::uint64_t>(i));
    }
    return seconds_since(t) / kSpansMeasured;
}

std::vector<Metric> per_layer_metrics(const Tracer& tracer, const Report& rep) {
    const auto layers = tracer.layers();
    const auto counters = tracer.counters();
    const auto layer = [&layers](const std::string& name) {
        const auto it = layers.find(name);
        return it == layers.end() ? Tracer::Layer{} : it->second;
    };
    const auto counter = [&counters](const std::string& name) {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    };
    std::vector<Metric> out;
    for (const char* span : kSpans) {
        const Tracer::Layer l = layer(span);
        out.push_back({std::string(span) + ".busy_s", l.busy_s, "s"});
        out.push_back({std::string(span) + ".calls", static_cast<double>(l.calls), "count"});
    }
    for (const char* span : kRequestSpans) {
        const Tracer::Layer l = layer(span);
        out.push_back({std::string(span) + ".p50_ms", percentile(l.durations_ms, 0.5), "ms"});
        out.push_back({std::string(span) + ".p99_ms", percentile(l.durations_ms, 0.99), "ms"});
    }
    for (const auto& [name, unit] : kCounters) out.push_back({name, counter(name), unit});
    const double step_s = layer("scen.step").busy_s;
    out.push_back({"scen.events_per_s", step_s > 0 ? counter("scen.events") / step_s : 0.0,
                   "1/s"});
    double unattributed = 0.0;
    for (const auto& [from, to] : rep.traced) unattributed += tracer.unattributed_s(from, to);
    out.push_back({"trace.unattributed_s", unattributed, "s"});
    const auto spans = static_cast<double>(tracer.span_count());
    out.push_back({"trace.spans", spans, "count"});
    out.push_back({"trace.overhead_s", spans * span_cost_s(), "s"});
    return out;
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + '"';
}

std::string json_number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i > 0 ? ", " : "") + json_string(metrics[i].name) +
               ": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    return out + "}";
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.starts_with("model name")) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size()) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

/// The full record compare.py reads.
bool write_record(const std::string& path, const Options& opt, const Report& rep,
                  bool correct, const std::vector<Metric>& metrics, const Tracer* tracer) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "{\n  \"workload\": " << json_string(opt.workload)
        << ",\n  \"seed\": " << opt.seed << ",\n  \"seconds\": " << json_number(opt.seconds)
        << ",\n  \"trace\": " << (tracer != nullptr ? 1 : 0)
        << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
        << ",\n  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"attempted\": " << rep.attempted << ",\n  \"failed\": " << rep.failed
        << ",\n  \"problems\": [";
    for (std::size_t i = 0; i < rep.problems.size(); ++i) {
        out << (i > 0 ? ", " : "") << json_string(rep.problems[i]);
    }
    out << "],\n  \"output_sha1\": " << json_string(sha1_hex(rep.digest))
        << ",\n  \"request\": " << json_string(rep.request)
        << ",\n  \"samples\": {\"latency\": " << rep.latency_ms.size()
        << ", \"setup\": " << rep.setup_s.size() << "}"
        << ",\n  \"window_s\": " << json_number(rep.window_s)
        << ",\n  \"metrics\": " << json_metrics(metrics) << ",\n  \"exact\": {";
    if (tracer != nullptr) {
        bool first = true;
        for (const auto& [name, value] : tracer->exact()) {
            if (!is_exact_counter(name)) continue;
            out << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
            first = false;
        }
    }
    out << "},\n  \"machine\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpu\": " << json_string(cpu_model())
        << ", \"compiler\": " << json_string(std::string("gcc ") + __VERSION__)
        << ", \"build_type\": " << json_string(KADBENCH_BUILD_TYPE) << "}\n}\n";
    out.flush();
    return static_cast<bool>(out);
}

void print_report(const Options& opt, const Report& rep, const std::vector<Metric>& metrics) {
    std::printf("kadbench %s  seed=%llu  seconds=%g  trace=%d%s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
                opt.smoke ? "  (smoke sizes)" : "");
    std::printf("  request: %s\n", rep.request.c_str());
    std::printf("  %zu requests in %.2f s; %zu set-ups; %llu of %llu operations failed\n",
                rep.latency_ms.size(), rep.window_s, rep.setup_s.size(),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    for (const Metric& m : metrics) {
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("  output_sha1 %s\n", sha1_hex(rep.digest).c_str());
    if (rep.problems.empty()) {
        std::printf("  checks: all passed\n");
    } else {
        for (const auto& p : rep.problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
    }
}

// ---------------------------------------------------------------------------
// Self-test: every checker must reject a wrong answer.
// ---------------------------------------------------------------------------

int selftest() {
    int failures = 0;
    const auto expect = [&failures](bool ok, const char* what) {
        std::printf("  %-58s %s\n", what, ok ? "ok" : "FAILED");
        if (!ok) ++failures;
    };
    std::printf("kadbench self-test\n");

    const core::ExperimentConfig config = sim_e_config(kDefaultSeed, true);
    const core::ExperimentSeries series = core::run_experiment(config);
    const std::string sha = sha1_hex(serialize_full(series));
    expect(check_golden(sha, sha).empty(), "golden check accepts the right digest");
    expect(!check_golden(sha, kSimEGolden).empty(), "golden check rejects a wrong golden");
    expect(check_invariants(series.samples.back(), "sample").empty(),
           "invariant check accepts an analyzed sample");
    core::ResilienceSample broken = series.samples.back();
    broken.lambda_min = std::min(broken.out_degree_min, broken.in_degree_min) + 1;
    expect(!check_invariants(broken, "sample").empty(),
           "invariant check rejects lambda_min > degree_min");

    const std::vector<std::string> bytes = overlay_snapshots(kDefaultSeed, 40, 1);
    const graph::RoutingSnapshot snap = parse_snapshot(bytes.front());
    const core::ConnectivityAnalyzer analyzer(core::AnalyzerOptions{});
    const std::string row = serve::ResultCache::format_sample_row(analyzer.analyze(snap));
    std::string corrupted = row;
    const auto digit = corrupted.find_first_of("123456789", corrupted.find(','));
    corrupted[digit] = corrupted[digit] == '9' ? '8' : static_cast<char>(corrupted[digit] + 1);
    expect(check_row_equal(row, row, "row").empty() && check_row(row, "row").empty(),
           "METRICS row check accepts the offline row");
    expect(!check_row_equal(corrupted, row, "row").empty(),
           "METRICS row check rejects a corrupted row");

    const graph::Digraph g = snap.to_digraph();
    int u = 0;
    int v = 1;
    while (g.has_edge(u, v)) ++v;
    const std::vector<int> cut = flow::min_vertex_cut(g, u, v);
    const std::string answer = "OK kappa=" + std::to_string(cut.size()) + " cut_addresses=";
    const std::string wrong = "OK kappa=" + std::to_string(cut.size() + 1) + " cut_addresses=";
    expect(check_pair(answer, g, u, v, "pair").empty(), "PAIR check accepts kappa(u,v)");
    expect(!check_pair(wrong, g, u, v, "pair").empty(), "PAIR check rejects a wrong value");
    std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
    return failures == 0 ? 0 : 1;
}

using WorkloadFn = void (*)(const Options&, const std::string& dir, Tracer*, Report&);

const std::map<std::string, WorkloadFn>& workloads() {
    static const std::map<std::string, WorkloadFn> table{
        {"fig_sim_e", run_fig_sim_e},
        {"analysis_series", run_analysis},
        {"daemon_stream", run_daemon_stream},
        {"daemon_replay", run_daemon_replay},
    };
    return table;
}

/// A per-process scratch directory under --workdir, removed on exit.
class WorkDir {
public:
    explicit WorkDir(const std::string& root, const std::string& name)
        : path_(root + "/" + name + "-" + std::to_string(::getpid())) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~WorkDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    WorkDir(const WorkDir&) = delete;
    WorkDir& operator=(const WorkDir&) = delete;
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

int run(const util::CliArgs& args) {
    if (args.has("selftest")) return selftest();
    Options opt;
    opt.workload = args.get(std::string("workload"), "");
    opt.seed = std::stoull(args.get(std::string("seed"), std::to_string(kDefaultSeed)));
    opt.seconds = args.get_double("seconds", opt.seconds);
    opt.trace = args.get_int("trace", 0) != 0;
    opt.smoke = args.has("smoke");
    opt.out = args.get(std::string("out"), "");
    opt.workdir = args.get(std::string("workdir"), opt.workdir);
    const auto workload = workloads().find(opt.workload);
    if (workload == workloads().end() || !(opt.seconds >= 0)) {
        std::fprintf(stderr,
                     "usage: kadbench --workload fig_sim_e|analysis_series|daemon_stream|"
                     "daemon_replay [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n"
                     "                [--trace-out FILE] [--workdir DIR] [--smoke]\n"
                     "       kadbench --selftest\n");
        return 2;
    }
    const WorkDir dir(opt.workdir, opt.workload);
    opt.trace_out = args.get(std::string("trace-out"),
                             opt.workdir + "/trace-" + opt.workload + ".json");

    std::unique_ptr<Tracer> tracer;
    if (opt.trace) tracer = std::make_unique<Tracer>();
    Report rep;
    workload->second(opt, dir.path(), tracer.get(), rep);

    const bool correct = rep.problems.empty() && rep.failed == 0;
    const std::vector<Metric> metrics =
        tracer != nullptr ? per_layer_metrics(*tracer, rep) : end_to_end_metrics(rep);
    print_report(opt, rep, metrics);
    if (tracer != nullptr) {
        if (tracer->write_chrome_json(opt.trace_out)) {
            std::printf("  trace written to %s\n", opt.trace_out.c_str());
        } else {
            std::fprintf(stderr, "kadbench: cannot write %s\n", opt.trace_out.c_str());
        }
    }
    if (!opt.out.empty() &&
        !write_record(opt.out, opt, rep, correct, metrics, tracer.get())) {
        std::fprintf(stderr, "kadbench: cannot write %s\n", opt.out.c_str());
        return 1;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), json_metrics(metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace kadbench

int main(int argc, char** argv) {
    // A daemon connection closing under a write must not kill the benchmark.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        return kadbench::run(kadsim::util::CliArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "kadbench: %s\n", e.what());
        return 1;
    }
}
