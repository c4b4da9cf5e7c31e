// Microbenchmarks A4: max-flow solver throughput on Even-transformed
// Kademlia-like connectivity graphs — justifies substituting our
// push-relabel/Dinic for the paper's HIPR, and quantifies the analysis cost
// model of §5.2. The n=1000 tiers demonstrate the headroom the CSR kernel
// opened; kernel counters (arcs touched, full resets avoided) land in the
// Google-Benchmark JSON via state.counters.
#include <benchmark/benchmark.h>

#include "exec/thread_pool.h"
#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "flow/flow_workspace.h"
#include "flow/push_relabel.h"
#include "flow/vertex_connectivity.h"
#include "graph/digraph.h"
#include "util/rng.h"

namespace {

using namespace kadsim;

/// Synthetic connectivity graph shaped like a stabilized Kademlia snapshot:
/// n vertices, out-degree ~ deg, mostly reciprocated edges.
graph::Digraph kademlia_like_graph(int n, int deg, std::uint64_t seed) {
    util::Rng rng(seed);
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int j = 0; j < deg; ++j) {
            const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (v == u) continue;
            g.add_edge(u, v);
            if (rng.next_bool(0.9)) g.add_edge(v, u);  // near-undirected
        }
    }
    g.finalize();
    return g;
}

void BM_EvenTransform(benchmark::State& state) {
    const auto g = kademlia_like_graph(static_cast<int>(state.range(0)), 40, 1);
    for (auto _ : state) {
        auto net = flow::even_transform(g);
        benchmark::DoNotOptimize(net.arc_count());
    }
    state.SetLabel("n=" + std::to_string(g.vertex_count()) +
                   " m=" + std::to_string(g.edge_count()));
}
BENCHMARK(BM_EvenTransform)->Arg(250)->Arg(500)->Arg(1000);

template <typename Solver>
void solver_bench(benchmark::State& state) {
    const auto g = kademlia_like_graph(static_cast<int>(state.range(0)), 40, 1);
    const flow::FlowNetwork net = flow::even_transform(g);
    flow::FlowWorkspace ws(net);
    Solver solver;
    util::Rng rng(7);
    std::int64_t flows = 0;
    for (auto _ : state) {
        const int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(g.vertex_count())));
        int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(g.vertex_count())));
        if (v == u) v = (v + 1) % g.vertex_count();
        ws.reset();
        flows += solver.max_flow(ws, flow::out_vertex(u), flow::in_vertex(v));
    }
    benchmark::DoNotOptimize(flows);
    ws.reset();  // flush the final run into the counters
    state.SetItemsProcessed(state.iterations());
    // Per-flow averages: comparable across runs regardless of the iteration
    // count the framework settles on.
    state.counters["arcs_touched"] =
        benchmark::Counter(static_cast<double>(ws.stats().arcs_touched),
                           benchmark::Counter::kAvgIterations);
    state.counters["full_resets_avoided"] =
        benchmark::Counter(static_cast<double>(ws.stats().full_sweeps_avoided),
                           benchmark::Counter::kAvgIterations);
}

void BM_Dinic(benchmark::State& state) { solver_bench<flow::Dinic>(state); }
void BM_PushRelabel(benchmark::State& state) {
    solver_bench<flow::PushRelabel>(state);
}
BENCHMARK(BM_Dinic)->Arg(250)->Arg(500)->Arg(1000);
BENCHMARK(BM_PushRelabel)->Arg(250)->Arg(500)->Arg(1000);

void BM_SampledConnectivity(benchmark::State& state) {
    // One full κ(D) evaluation with the paper's c = 0.02 sampling, inline on
    // the calling thread (the parallel baseline is BM_SampledConnectivityPool).
    const auto g = kademlia_like_graph(static_cast<int>(state.range(0)), 40, 1);
    flow::ConnectivityOptions opts;
    opts.sample_fraction = 0.02;
    opts.min_sources = 4;
    std::uint64_t arcs_touched = 0;
    std::uint64_t full_resets_avoided = 0;
    std::uint64_t arena_bytes = 0;
    for (auto _ : state) {
        const auto r = flow::vertex_connectivity(g, opts);
        benchmark::DoNotOptimize(r.kappa_min);
        arcs_touched = r.arcs_touched;
        full_resets_avoided = r.full_resets_avoided;
        arena_bytes = r.arena_bytes;
    }
    state.counters["arcs_touched"] = static_cast<double>(arcs_touched);
    state.counters["full_resets_avoided"] = static_cast<double>(full_resets_avoided);
    state.counters["arena_bytes"] = static_cast<double>(arena_bytes);
}
BENCHMARK(BM_SampledConnectivity)->Arg(250)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_SampledConnectivityPool(benchmark::State& state) {
    // Same evaluation with per-source flow jobs on a persistent pool of
    // range(1) workers (plus the caller): the per-snapshot cost inside the
    // experiment pipeline. Compare against BM_SampledConnectivity for the
    // parallel speedup.
    const auto g = kademlia_like_graph(static_cast<int>(state.range(0)), 40, 1);
    exec::ThreadPool pool(static_cast<int>(state.range(1)));
    flow::ConnectivityOptions opts;
    opts.sample_fraction = 0.02;
    opts.min_sources = 4;
    opts.pool = &pool;
    for (auto _ : state) {
        const auto r = flow::vertex_connectivity(g, opts);
        benchmark::DoNotOptimize(r.kappa_min);
    }
}
BENCHMARK(BM_SampledConnectivityPool)
    ->Args({250, 1})
    ->Args({250, 2})
    ->Args({250, 4})
    ->Args({1000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_SccCheck(benchmark::State& state) {
    const auto g = kademlia_like_graph(static_cast<int>(state.range(0)), 40, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::strongly_connected_components(g));
    }
}
BENCHMARK(BM_SccCheck)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
