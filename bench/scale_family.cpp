// Scale family: n = 2000 (and, at paper scale and above, n = 5000 / 20000;
// n = 100000 at REPRO_SCALE=full) networks under the paper's 1/1 churn —
// the snapshot sizes the CSR flow kernel makes affordable. Unlike the
// figure benches this binary drives the runner and analyzer directly (no
// series cache): the point is to measure the kernel, so
// BENCH_scale_family.json records, per config, the wall time, the peak
// flow-kernel arena (shared CSR network + every worker workspace) and the
// touched-arc reset counters alongside the κ trajectory.
//
// The binary also runs the incremental-analysis *gate*: the same n = 2000
// overlay, snapshotted at a one-minute cadence inside the churn phase, is
// analyzed twice by the shipped κ/λ sweep (flow/connectivity_sweep.h) —
// plain versus with the snapshot-delta reuse hooks (analysis/incremental.h)
// the analyzer and the daemon attach. The gate asserts every κ/λ aggregate
// is bit-identical across the two arms and reports the wall-time ratio; the
// JSON carries "gate_pass" plus the delta_pairs_reused counter so CI can
// assert the delta path actually engaged. docs/figures.md describes the
// expected numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/incremental.h"
#include "bench/common.h"
#include "core/registry.h"
#include "exec/thread_pool.h"
#include "flow/connectivity_sweep.h"
#include "flow/vertex_connectivity.h"
#include "scen/runner.h"
#include "util/env.h"

namespace {

using namespace kadsim;

struct ScaleRun {
    std::string label;
    core::ExperimentConfig config;
    std::vector<core::ResilienceSample> samples;
    double wall_seconds = 0.0;
    std::uint64_t peak_arena_bytes = 0;
    std::uint64_t arcs_touched = 0;
    std::uint64_t full_resets_avoided = 0;
    std::uint64_t snapshot_capture_us = 0;
};

void run_one(ScaleRun& run, exec::ThreadPool& pool, bench::ProgressSink& sink) {
    const auto start = std::chrono::steady_clock::now();
    flow::ConnectivityOptions options;
    options.sample_fraction = run.config.analyzer.sample_c;
    options.min_sources = run.config.analyzer.min_sources;
    options.pool = &pool;
    scen::Runner runner(run.config.scenario);
    runner.run(run.config.snapshot_interval, [&](const graph::RoutingSnapshot& snap) {
        const graph::Digraph g = snap.to_digraph(&pool);
        const flow::ConnectivityResult r = flow::vertex_connectivity(g, options);
        core::ResilienceSample sample;
        sample.time_min = static_cast<double>(snap.time_ms) / 60000.0;
        sample.n = r.n;
        sample.m = r.m;
        sample.kappa_min = r.kappa_min;
        sample.kappa_avg = r.kappa_avg;
        sample.pairs_evaluated = r.pairs_evaluated;
        run.samples.push_back(sample);
        run.peak_arena_bytes = std::max(run.peak_arena_bytes, r.arena_bytes);
        run.arcs_touched += r.arcs_touched;
        run.full_resets_avoided += r.full_resets_avoided;
        sink.sample(run.label, sample);
    });
    run.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    run.snapshot_capture_us = runner.snapshot_capture_us();
}

// --- incremental-analysis gate ---------------------------------------------

/// Everything the gate compares bit-for-bit, per snapshot.
struct GateSample {
    int kappa_min = 0;
    double kappa_avg = 0.0;
    std::uint64_t kappa_sum = 0;
    std::uint64_t kappa_pairs = 0;
    int lambda_min = 0;
    double lambda_avg = 0.0;
    std::uint64_t lambda_sum = 0;
    std::uint64_t lambda_pairs = 0;

    bool operator==(const GateSample&) const = default;
};

struct GateArm {
    std::vector<GateSample> samples;
    double wall_seconds = 0.0;
    std::uint64_t pairs_reused = 0;  // total, κ + λ
};

/// One-minute snapshot cadence keeps inter-snapshot churn at one
/// leave + one join, which is what witness revalidation is built for;
/// starting inside the churn phase (t ≥ 120) puts that churn in every
/// snapshot delta.
constexpr int kGateSnapshots = 6;
constexpr long long kGateStartMin = 120;

/// Minimum accepted baseline/delta wall ratio. Measured on a shared 4-vCPU
/// host (4 pool threads, n = 2000, 6 snapshots): plain sweeps 253.9 s,
/// delta sweeps 144.9 s → 1.75×, with 213,849 κ+λ pairs reused. The delta
/// arm's floor is the pairs whose witnesses do NOT revalidate across a
/// snapshot delta and must be recomputed from scratch. 1.5× sits far enough
/// below the measured ratio to absorb machine noise, and high enough that a
/// disengaged delta path (ratio ~1.0) still fails loudly.
constexpr double kGateMinSpeedup = 1.5;

/// One arm of the gate: the shipped κ/λ sweep over every snapshot, with
/// the snapshot-delta reuse hooks attached when `delta` is set.
GateArm run_gate_arm(const std::vector<graph::RoutingSnapshot>& snaps,
                     const core::ReproScale& scale, bool delta,
                     exec::ThreadPool& pool) {
    GateArm arm;
    analysis::SnapshotDeltaCache cache;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& snap : snaps) {
        const graph::Digraph g = snap.to_digraph();
        if (delta) cache.begin_snapshot(snap, g);

        flow::ConnectivityOptions options;
        options.sample_fraction = scale.sample_c;
        options.min_sources = scale.min_sources;
        options.pool = &pool;
        options.reuse = delta ? cache.kappa_hook() : nullptr;
        const flow::ConnectivitySweepResult r = flow::connectivity_sweep(
            g, options, delta ? cache.lambda_hook() : nullptr);

        if (delta) cache.end_snapshot();

        const flow::ConnectivityResult& kr = r.kappa;
        const flow::EdgeConnectivityResult& lr = r.lambda;
        arm.samples.push_back({kr.kappa_min, kr.kappa_avg, kr.kappa_sum,
                               kr.pairs_evaluated, lr.lambda_min, lr.lambda_avg,
                               lr.lambda_sum, lr.pairs_evaluated});
        arm.pairs_reused += kr.pairs_reused + lr.pairs_reused;
    }
    arm.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return arm;
}

struct GateResult {
    int n = 0;
    GateArm baseline;
    GateArm accelerated;
    bool identical = false;
    double speedup = 0.0;
    bool pass = false;
};

GateResult run_gate(const core::PaperScenarios& scenarios,
                    exec::ThreadPool& pool, bench::ProgressSink& sink) {
    GateResult gate;
    const core::ExperimentConfig cfg = scenarios.scale_2k();
    gate.n = cfg.scenario.initial_size;

    sink.line("gate", "simulating " + std::to_string(kGateSnapshots) +
                          " one-minute snapshots of " + cfg.scenario.name);
    scen::Runner runner(cfg.scenario);
    std::vector<graph::RoutingSnapshot> snaps;
    snaps.reserve(kGateSnapshots);
    for (int i = 0; i < kGateSnapshots; ++i) {
        runner.step_to(sim::minutes(kGateStartMin + i));
        snaps.push_back(runner.snapshot());
    }

    sink.line("gate", "baseline arm: plain κ/λ sweeps");
    gate.baseline = run_gate_arm(snaps, scenarios.scale(), false, pool);
    sink.line("gate", "accelerated arm: κ/λ sweeps with snapshot-delta reuse");
    gate.accelerated = run_gate_arm(snaps, scenarios.scale(), true, pool);

    gate.identical = gate.baseline.samples == gate.accelerated.samples;
    gate.speedup = gate.accelerated.wall_seconds > 0.0
                       ? gate.baseline.wall_seconds / gate.accelerated.wall_seconds
                       : 0.0;
    gate.pass = gate.identical && gate.speedup >= kGateMinSpeedup;
    return gate;
}

void write_json(const std::vector<ScaleRun>& runs, const GateResult& gate,
                int threads, double wall_seconds) {
    const std::string path = bench::output_dir() + "/BENCH_scale_family.json";
    std::ostringstream out;
    out << "{\n"
        << "  \"id\": \"scale_family\",\n"
        << "  \"paper_ref\": \"beyond the paper: CSR-kernel scale family\",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"wall_seconds\": " << wall_seconds << ",\n"
        << "  \"gate\": {\"n\": " << gate.n << ", "
        << "\"snapshots\": " << kGateSnapshots << ", "
        << "\"baseline_wall_seconds\": " << gate.baseline.wall_seconds << ", "
        << "\"accel_wall_seconds\": " << gate.accelerated.wall_seconds << ", "
        << "\"speedup\": " << gate.speedup << ", "
        << "\"min_speedup\": " << kGateMinSpeedup << ", "
        << "\"identical\": " << (gate.identical ? "true" : "false") << ", "
        << "\"delta_pairs_reused\": " << gate.accelerated.pairs_reused << ", "
        << "\"gate_pass\": \"" << (gate.pass ? "PASS" : "FAIL") << "\"},\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto& run = runs[i];
        int kappa_min_last = 0;
        double kappa_avg_last = 0.0;
        if (!run.samples.empty()) {
            kappa_min_last = run.samples.back().kappa_min;
            kappa_avg_last = run.samples.back().kappa_avg;
        }
        out << "    {\"label\": \"" << bench::json_escape(run.label) << "\", "
            << "\"n\": " << run.config.scenario.initial_size << ", "
            << "\"samples\": " << run.samples.size() << ", "
            << "\"kappa_min_last\": " << kappa_min_last << ", "
            << "\"kappa_avg_last\": " << kappa_avg_last << ", "
            << "\"wall_seconds\": " << run.wall_seconds << ", "
            << "\"peak_arena_bytes\": " << run.peak_arena_bytes << ", "
            << "\"arcs_touched\": " << run.arcs_touched << ", "
            << "\"full_resets_avoided\": " << run.full_resets_avoided << ", "
            << "\"snapshot_capture_us\": " << run.snapshot_capture_us << "}"
            << (i + 1 < runs.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    bench::write_file(path, out.str());
    std::printf("json: %s\n", path.c_str());
}

}  // namespace

int main() {
    const auto scale = core::ReproScale::from_env();
    const core::PaperScenarios scenarios(scale);
    const auto tier = util::repro_scale();

    std::vector<ScaleRun> runs;
    runs.push_back({"n=2000", scenarios.scale_2k(), {}, 0.0, 0, 0, 0});
    if (tier != util::ReproScale::kQuick) {
        runs.push_back({"n=5000", scenarios.scale_5k(), {}, 0.0, 0, 0, 0});
        runs.push_back({"n=20000", scenarios.scale_20k(), {}, 0.0, 0, 0, 0});
    }
    if (tier == util::ReproScale::kFull) {
        runs.push_back({"n=100000", scenarios.scale_100k(), {}, 0.0, 0, 0, 0});
    }

    std::printf("================================================================\n");
    std::printf("Scale family — CSR flow kernel at n beyond the paper's sizes\n");
    std::printf("================================================================\n");
    std::printf("configs: %zu (REPRO_SCALE=paper adds n=5000/20000, =full adds "
                "n=100000), threads=%d\n\n",
                runs.size(), scale.threads);

    const int threads = std::max(1, scale.threads);
    exec::ThreadPool pool(threads);
    bench::ProgressSink sink;

    const auto start = std::chrono::steady_clock::now();
    const GateResult gate = run_gate(scenarios, pool, sink);
    for (auto& run : runs) run_one(run, pool, sink);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    std::printf("\nincremental-analysis gate (n=%d, %d snapshots, 1-min cadence):\n",
                gate.n, kGateSnapshots);
    std::printf("  baseline    %8.1f s\n", gate.baseline.wall_seconds);
    std::printf("  delta       %8.1f s   (delta_pairs_reused=%llu)\n",
                gate.accelerated.wall_seconds,
                static_cast<unsigned long long>(gate.accelerated.pairs_reused));
    std::printf("  speedup     %8.2fx   (threshold %.1fx)   identical=%s  ->  %s\n",
                gate.speedup, kGateMinSpeedup, gate.identical ? "yes" : "NO",
                gate.pass ? "PASS" : "FAIL");

    std::printf("\n%-10s %9s %9s %12s %16s %14s\n", "config", "samples", "k_min",
                "wall(s)", "peak_arena(MiB)", "arcs_touched");
    for (const auto& run : runs) {
        std::printf("%-10s %9zu %9d %12.1f %16.2f %14llu\n", run.label.c_str(),
                    run.samples.size(),
                    run.samples.empty() ? 0 : run.samples.back().kappa_min,
                    run.wall_seconds,
                    static_cast<double>(run.peak_arena_bytes) / (1024.0 * 1024.0),
                    static_cast<unsigned long long>(run.arcs_touched));
    }
    write_json(runs, gate, threads, wall);
    std::printf("wall time: %.1f s\n", wall);
    // Identity is a hard failure (the accelerated path must never change a
    // value); the wall-time ratio is reported in the JSON but does not fail
    // the binary — CI machines are too noisy to gate the exit code on it.
    return gate.identical ? 0 : 1;
}
