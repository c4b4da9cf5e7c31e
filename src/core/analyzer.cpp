#include "core/analyzer.h"

#include <algorithm>
#include <exception>
#include <future>

#include "exec/thread_pool.h"
#include "flow/connectivity_sweep.h"

namespace kadsim::core {

ResilienceSample ConnectivityAnalyzer::analyze(const graph::RoutingSnapshot& snap,
                                               exec::ThreadPool* pool) const {
    ResilienceSample sample;
    sample.time_min = static_cast<double>(snap.time_ms) / 60000.0;
    sample.removed_total = snap.removed_total;
    // Lookup workload companions (Runner-filled; zeros when the snapshot
    // came from elsewhere). Quantiles walk the streamed histograms — there
    // is no per-sample storage anywhere in this pipeline.
    sample.lookups_done = snap.lookups.completed;
    if (snap.lookups.completed > 0) {
        sample.lookup_success_rate =
            static_cast<double>(snap.lookups.succeeded) /
            static_cast<double>(snap.lookups.completed);
        sample.lookup_hop_p50 =
            static_cast<double>(snap.lookups.hops.quantile(0.50));
        sample.lookup_hop_p99 =
            static_cast<double>(snap.lookups.hops.quantile(0.99));
        sample.lookup_latency_p50_ms =
            static_cast<double>(snap.lookups.latency_ms.quantile(0.50));
        sample.lookup_latency_p99_ms =
            static_cast<double>(snap.lookups.latency_ms.quantile(0.99));
    }
    sample.probes_done = snap.probes.probes;
    if (snap.probes.probes > 0) {
        sample.probe_success_rate = static_cast<double>(snap.probes.succeeded) /
                                    static_cast<double>(snap.probes.probes);
        sample.probe_hop_p50 =
            static_cast<double>(snap.probes.hops.quantile(0.50));
        sample.probe_hop_p99 =
            static_cast<double>(snap.probes.hops.quantile(0.99));
    }
    // Pool-assisted CSR compaction — but not from inside a pool lane (the
    // pipelined driver analyzes on a worker; nested fan-out would deadlock).
    const graph::Digraph g = snap.to_digraph(
        (pool != nullptr && !exec::ThreadPool::in_worker()) ? pool : nullptr);
    sample.n = g.vertex_count();
    sample.m = g.edge_count();
    if (sample.n == 0) return sample;

    sample.reciprocity = g.reciprocity();

    // Cross-snapshot reuse: rebind the (lazily created) delta cache to this
    // snapshot and hand its hooks to both halves of the sweep. Lookups only
    // read the store committed by *previous* snapshots.
    if (options_.use_delta && delta_ == nullptr) {
        delta_ = std::make_unique<analysis::SnapshotDeltaCache>();
    }
    if (delta_ != nullptr) delta_->begin_snapshot(snap, g);

    // The κ/λ sweep fans out over every pool lane, and the structural
    // metrics ride one pool task queued ahead of its flow jobs. Both are
    // deterministic, so the schedule never changes a value.
    const analysis::MetricContext context{g};
    flow::ConnectivityOptions sweep_options;
    sweep_options.sample_fraction = options_.sample_c;
    sweep_options.min_sources = options_.min_sources;
    sweep_options.pool = pool;
    sweep_options.use_push_relabel = options_.use_push_relabel;
    sweep_options.use_certificate = options_.use_certificate;
    sweep_options.reuse = delta_ != nullptr ? delta_->kappa_hook() : nullptr;
    analysis::ResilienceMetrics metrics;
    std::future<void> structure;
    flow::ConnectivitySweepResult sweep;
    std::exception_ptr error;
    try {
        if (pool != nullptr && !exec::ThreadPool::in_worker()) {
            structure = pool->submit(
                [&context, &metrics] { metrics = analysis::run_metrics(context); });
        }
        sweep = flow::connectivity_sweep(
            g, sweep_options, delta_ != nullptr ? delta_->lambda_hook() : nullptr);
        if (!structure.valid()) metrics = analysis::run_metrics(context);
    } catch (...) {
        error = std::current_exception();
    }
    // The metrics task references this frame: join it before any unwind.
    if (structure.valid()) {
        try {
            pool->wait_get(structure);
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    // Commit this snapshot's witness stores so the next snapshot can reuse
    // them — even on failure: stored pairs are revalidated against whichever
    // graph looks them up, so a partial sweep's stores are safe.
    if (delta_ != nullptr) delta_->end_snapshot();
    if (error) std::rethrow_exception(error);

    sample.kappa_min = sweep.kappa.kappa_min;
    sample.kappa_avg = sweep.kappa.kappa_avg;
    sample.pairs_evaluated = sweep.kappa.pairs_evaluated;
    sample.lambda_min = sweep.lambda.lambda_min;
    sample.lambda_avg = sweep.lambda.lambda_avg;
    // scc_count predates the metric suite; ReachabilityMetric now computes
    // it in the same Tarjan pass as scc_frac (values unchanged — the golden
    // series hashes pin them).
    sample.scc_count = metrics.scc_count;
    sample.scc_frac = metrics.scc_frac;
    sample.wcc_frac = metrics.wcc_frac;
    sample.articulation_points = metrics.articulation_points;
    sample.bridges = metrics.bridges;
    sample.out_degree_min = metrics.out_degree_min;
    sample.in_degree_min = metrics.in_degree_min;
    sample.kappa_degree_gap =
        std::min(metrics.out_degree_min, metrics.in_degree_min) - sample.kappa_min;
    return sample;
}

}  // namespace kadsim::core
