// Microbenchmarks A5: protocol-engine hot paths — routing-table operations,
// event queue throughput, and whole-network simulation speed (the budget
// behind every figure bench).
//
// BM_SimThroughput5k is the million-node-core acceptance meter: steady-state
// events/sec of the full n = 5000 churn+traffic scenario, with peak-RSS and
// arena/queue footprint counters in the JSON output. BM_LookupThroughput is
// the lookup-engine meter: full iterative FIND_NODE walks through the
// LookupArena probe path, lookups/sec + arena/histogram counters. The
// sharded smoke benches (sim_100k and the 100k lookup meter at
// REPRO_SCALE=paper+, sim_1m at full only — never CI) are registered
// conditionally in main().
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/common.h"
#include "core/registry.h"
#include "graph/digraph.h"
#include "kad/routing_table.h"
#include "scen/runner.h"
#include "sim/calendar_queue.h"
#include "util/env.h"
#include "util/rng.h"

namespace {

using namespace kadsim;

/// Attaches the memory counters every simulator bench reports
/// (bench::peak_rss_bytes is the shared getrusage helper).
void report_memory(benchmark::State& state, const scen::Runner& runner) {
    state.counters["arena_bytes"] =
        benchmark::Counter(static_cast<double>(runner.arena_memory_bytes()));
    state.counters["queue_bytes"] =
        benchmark::Counter(static_cast<double>(runner.queue_memory_bytes()));
    state.counters["peak_rss_bytes"] =
        benchmark::Counter(static_cast<double>(bench::peak_rss_bytes()));
}

void BM_RoutingTableObserve(benchmark::State& state) {
    kad::KademliaConfig cfg;
    cfg.k = 20;
    util::Rng rng(1);
    kad::RoutingTable table(kad::NodeId::random(rng, 160), cfg);
    std::vector<kad::Contact> pool;
    for (net::Address a = 0; a < 2000; ++a) {
        pool.push_back({kad::NodeId::random(rng, 160), a});
    }
    std::size_t i = 0;
    sim::SimTime now = 0;
    for (auto _ : state) {
        table.observe(pool[i % pool.size()], ++now);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingTableObserve);

void BM_RoutingTableClosest(benchmark::State& state) {
    kad::KademliaConfig cfg;
    cfg.k = 20;
    util::Rng rng(2);
    kad::RoutingTable table(kad::NodeId::random(rng, 160), cfg);
    for (net::Address a = 0; a < 2000; ++a) {
        table.observe({kad::NodeId::random(rng, 160), a}, a);
    }
    std::vector<kad::Contact> out;
    for (auto _ : state) {
        out.clear();
        table.closest(kad::NodeId::random(rng, 160), 20, out);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetLabel("contacts=" + std::to_string(table.size()));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingTableClosest);

void BM_CalendarQueuePushPop(benchmark::State& state) {
    // Keep a standing population of events, push/pop one per iteration.
    sim::CalendarQueue queue;
    util::Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        queue.push(static_cast<sim::SimTime>(rng.next_below(1000000)), [] {});
    }
    for (auto _ : state) {
        auto entry = queue.pop();
        benchmark::DoNotOptimize(entry.time);
        queue.push(entry.time + static_cast<sim::SimTime>(rng.next_below(1000)),
                   [] {});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalendarQueuePushPop);

void BM_SimulatedMinute(benchmark::State& state) {
    // Cost of one simulated minute of a 100-node network with full data
    // traffic (10 lookups + 1 dissemination per node-minute).
    scen::ScenarioConfig cfg;
    cfg.initial_size = 100;
    cfg.seed = 4;
    cfg.kad.k = 20;
    cfg.kad.s = 1;
    cfg.traffic.enabled = true;
    cfg.phases.end = sim::minutes(100000);
    scen::Runner runner(cfg);
    runner.step_to(sim::minutes(35));  // past setup
    sim::SimTime t = sim::minutes(35);
    for (auto _ : state) {
        t += sim::kMinute;
        runner.step_to(t);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("events=" + std::to_string(runner.totals().events_executed));
}
BENCHMARK(BM_SimulatedMinute)->Unit(benchmark::kMillisecond);

void BM_SnapshotExtraction(benchmark::State& state) {
    scen::ScenarioConfig cfg;
    cfg.initial_size = 250;
    cfg.seed = 5;
    cfg.kad.k = 20;
    cfg.traffic.enabled = true;
    cfg.phases.end = sim::minutes(100000);
    scen::Runner runner(cfg);
    runner.step_to(sim::minutes(60));
    for (auto _ : state) {
        const auto snap = runner.snapshot();
        benchmark::DoNotOptimize(snap.nodes.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotExtraction)->Unit(benchmark::kMicrosecond);

/// Shared body of the snapshot-pipeline meters: the production path,
/// Runner::capture into a reused CSR slab, then FlatSnapshot::to_digraph
/// (dense translate + counting-sort compaction). Counters:
/// snapshot_capture_us / graph_build_us (per-iteration averages) and
/// snapshot_arena_bytes (resident capture-slab footprint).
void snapshot_capture_bench(benchmark::State& state,
                            const scen::ScenarioConfig& scenario,
                            sim::SimTime horizon) {
    scen::Runner runner(scenario);
    runner.step_to(horizon);
    const auto elapsed_us = [](std::chrono::steady_clock::time_point a,
                               std::chrono::steady_clock::time_point b) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
    };
    std::uint64_t capture_us = 0;
    std::uint64_t build_us = 0;
    std::uint64_t arena_bytes = 0;
    std::int64_t edges = 0;
    graph::RoutingSnapshot snap;  // reused flat buffer
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        runner.capture(snap);
        const auto t1 = std::chrono::steady_clock::now();
        const graph::Digraph g = snap.to_digraph();
        const auto t2 = std::chrono::steady_clock::now();
        capture_us += elapsed_us(t0, t1);
        build_us += elapsed_us(t1, t2);
        edges = g.edge_count();
        arena_bytes = snap.flat().memory_bytes();
        benchmark::DoNotOptimize(edges);
    }
    const auto avg = benchmark::Counter::kAvgIterations;
    state.counters["snapshot_capture_us"] =
        benchmark::Counter(static_cast<double>(capture_us), avg);
    state.counters["graph_build_us"] =
        benchmark::Counter(static_cast<double>(build_us), avg);
    state.counters["snapshot_arena_bytes"] =
        benchmark::Counter(static_cast<double>(arena_bytes));
    state.SetLabel("edges=" + std::to_string(edges));
    state.SetItemsProcessed(state.iterations());
    report_memory(state, runner);
}

/// n = 2000, single shard, churn+traffic warmed up — the always-on meter.
[[nodiscard]] scen::ScenarioConfig snapshot_capture_scenario() {
    scen::ScenarioConfig cfg;
    cfg.initial_size = 2000;
    cfg.seed = 42;
    cfg.kad.k = 20;
    cfg.kad.s = 1;
    cfg.traffic.enabled = true;
    cfg.fault.churn = scen::ChurnSpec{5, 5};
    cfg.phases.end = sim::minutes(100000);
    return cfg;
}

void BM_SnapshotCapture(benchmark::State& state) {
    snapshot_capture_bench(state, snapshot_capture_scenario(), sim::minutes(60));
}
BENCHMARK(BM_SnapshotCapture)->Unit(benchmark::kMicrosecond);

/// The acceptance-scale meter (sim_100k registry scenario, 16 regions) —
/// registered in main() above the quick tier.
void BM_SnapshotCapture100k(benchmark::State& state) {
    const auto cfg = core::PaperScenarios(core::ReproScale::from_env()).sim_100k();
    snapshot_capture_bench(state, cfg.scenario, sim::minutes(10));
}

void BM_SimThroughput5k(benchmark::State& state) {
    // Steady-state engine throughput at n = 5000 under the paper's full
    // workload (10 lookups + 1 dissemination per node-minute, 1/1 churn per
    // region). Arg = region count: 1 is the single-shard engine, 8 exercises
    // concurrent region stepping. events_per_sec is the acceptance metric
    // (the pre-arena engine measured 462,570 ev/s single-shard on the
    // reference container; the arena engine measures ~810k single-shard and
    // ~1.47M at 8 regions there — the 8-region gain on a 1-core container is
    // pure locality from smaller per-region overlays, not parallelism).
    scen::ScenarioConfig cfg;
    cfg.initial_size = 5000;
    cfg.seed = 42;
    cfg.kad.k = 20;
    cfg.kad.s = 1;
    cfg.traffic.enabled = true;
    cfg.fault.churn = scen::ChurnSpec{1, 1};
    cfg.phases.end = sim::minutes(100000);
    cfg.regions = static_cast<int>(state.range(0));
    scen::Runner runner(cfg);
    runner.step_to(sim::minutes(32));  // past setup, traffic warmed up
    const std::uint64_t events_before = runner.totals().events_executed;
    sim::SimTime t = sim::minutes(32);
    for (auto _ : state) {
        t += sim::kMinute;
        runner.step_to(t);
    }
    const auto events =
        static_cast<double>(runner.totals().events_executed - events_before);
    state.counters["events_per_sec"] =
        benchmark::Counter(events, benchmark::Counter::kIsRate);
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    report_memory(state, runner);
}
BENCHMARK(BM_SimThroughput5k)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

/// Shared body of the lookup-rate benches: bootstrap a steady overlay (no
/// churn, no background traffic — the lookup engine is the only thing
/// running), then drive full iterative FIND_NODE walks through the probe
/// path of the LookupArena in waves of `wave` lookups per region.
/// verify_truth is off: the O(live) ground-truth scan would dominate the
/// walk being measured. lookups_per_sec is the acceptance metric;
/// hist_merges counts streaming-histogram merges (one per region per wave —
/// the no-per-sample-storage evidence), arena bytes cover in-flight slots.
void lookup_throughput(benchmark::State& state, int n, int regions, int wave) {
    scen::ScenarioConfig cfg;
    cfg.initial_size = n;
    cfg.seed = 42;
    cfg.kad.k = 20;
    cfg.kad.s = 1;
    cfg.regions = regions;
    cfg.phases.end = sim::minutes(100000);
    scen::Runner runner(cfg);
    runner.step_to(sim::minutes(30));  // bootstrap + first refresh complete
    std::uint64_t lookups = 0;
    stats::ProbeStats merged;
    for (auto _ : state) {
        const auto wave_stats =
            runner.run_lookup_probes(wave, /*verify_truth=*/false);
        lookups += wave_stats.probes;
        merged.merge(wave_stats);
    }
    state.counters["lookups_per_sec"] =
        benchmark::Counter(static_cast<double>(lookups),
                           benchmark::Counter::kIsRate);
    state.counters["lookup_arena_bytes"] = benchmark::Counter(
        static_cast<double>(runner.lookup_arena_bytes()));
    state.counters["hist_merges"] =
        benchmark::Counter(static_cast<double>(merged.hops.merges()));
    state.counters["hop_p50"] =
        benchmark::Counter(static_cast<double>(merged.hops.quantile(0.50)));
    state.SetItemsProcessed(static_cast<std::int64_t>(lookups));
    report_memory(state, runner);
}

void BM_LookupThroughput(benchmark::State& state) {
    lookup_throughput(state, 2000, static_cast<int>(state.range(0)), 64);
}
BENCHMARK(BM_LookupThroughput)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

/// The acceptance-scale variant (n = 100k, 8 regions) — registered in main()
/// above the quick tier only, like the sharded smoke benches.
void BM_LookupThroughput100k(benchmark::State& state) {
    lookup_throughput(state, 100000, 8, 256);
}

/// Shared body of the tier-gated sharded smoke benches: build the registry
/// scenario, step `minutes` of simulated time once, report engine counters
/// and the memory footprint. One iteration — the cost is the point.
void sharded_smoke(benchmark::State& state, const core::ExperimentConfig& cfg,
                   sim::SimTime horizon) {
    for (auto _ : state) {
        scen::Runner runner(cfg.scenario);
        runner.step_to(horizon);
        const auto totals = runner.totals();
        state.counters["events"] =
            benchmark::Counter(static_cast<double>(totals.events_executed));
        state.counters["live"] =
            benchmark::Counter(static_cast<double>(runner.live_count()));
        report_memory(state, runner);
    }
}

void BM_Sim100kSmoke(benchmark::State& state) {
    const auto cfg = core::PaperScenarios(core::ReproScale::from_env()).sim_100k();
    sharded_smoke(state, cfg, sim::minutes(10));
}

void BM_Sim1mSmoke(benchmark::State& state) {
    const auto cfg = core::PaperScenarios(core::ReproScale::from_env()).sim_1m();
    sharded_smoke(state, cfg, sim::minutes(5));
}

}  // namespace

int main(int argc, char** argv) {
    // Tier-gated registrations (BENCHMARK() macros register unconditionally):
    // the 100k smoke needs the paper tier; the million-node smoke only runs
    // at REPRO_SCALE=full and is never part of CI.
    if (util::repro_scale() != util::ReproScale::kQuick) {
        benchmark::RegisterBenchmark("BM_Sim100kSmoke", BM_Sim100kSmoke)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
        benchmark::RegisterBenchmark("BM_LookupThroughput100k",
                                     BM_LookupThroughput100k)
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark("BM_SnapshotCapture100k",
                                     BM_SnapshotCapture100k)
            ->Unit(benchmark::kMillisecond);
    }
    if (util::repro_scale() == util::ReproScale::kFull) {
        benchmark::RegisterBenchmark("BM_Sim1mSmoke", BM_Sim1mSmoke)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
