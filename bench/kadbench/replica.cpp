#include "replica.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/metrics.h"
#include "exec/bounded_queue.h"
#include "flow/edge_connectivity.h"
#include "flow/mincut.h"
#include "flow/vertex_connectivity.h"
#include "scen/runner.h"
#include "serve/daemon.h"
#include "util/csv.h"

namespace kadbench {

using namespace kadsim;

namespace {

/// The metric suite minus λ, which the replay times on its own.
std::span<const analysis::SnapshotMetric* const> structure_metrics() {
    static const analysis::ReachabilityMetric reachability;
    static const analysis::CutStructureMetric cut_structure;
    static const analysis::DegreeMetric degree;
    static const std::array<const analysis::SnapshotMetric*, 3> suite{
        &reachability, &cut_structure, &degree};
    return suite;
}

/// The metrics task of ConnectivityAnalyzer::analyze: λ, then the
/// structural metrics, sequentially in one lane.
analysis::ResilienceMetrics run_metrics_task(const analysis::MetricContext& context,
                                             Tracer& tracer, std::uint64_t item,
                                             std::uint32_t parent) {
    flow::EdgeConnectivityResult lambda;
    {
        const Span span(&tracer, "flow.lambda", item, parent);
        flow::EdgeConnectivityOptions options;
        options.sample_fraction = context.sample_c;
        options.min_sources = context.min_sources;
        options.pool = context.pool;
        options.use_certificate = context.use_certificate;
        options.reuse = context.lambda_reuse;
        lambda = flow::edge_connectivity(context.g, options);
    }
    tracer.add("flow.lambda.pairs", static_cast<double>(lambda.pairs_evaluated));
    tracer.add("flow.lambda.flows_capped", static_cast<double>(lambda.flows_capped));
    tracer.add("flow.lambda.pairs_reused", static_cast<double>(lambda.pairs_reused));
    analysis::ResilienceMetrics out;
    {
        const Span span(&tracer, "analysis.structure", item, parent);
        out = analysis::run_metrics(structure_metrics(), context);
    }
    out.lambda_min = lambda.lambda_min;
    out.lambda_avg = lambda.lambda_avg;
    return out;
}

}  // namespace

core::ResilienceSample analyze(const graph::RoutingSnapshot& snap,
                               const core::AnalyzerOptions& options,
                               exec::ThreadPool* pool,
                               analysis::SnapshotDeltaCache* delta, Tracer& tracer,
                               std::uint64_t item) {
    const Span whole(&tracer, "kadbench.analyze", item);
    core::ResilienceSample sample;
    sample.time_min = static_cast<double>(snap.time_ms) / 60000.0;
    sample.removed_total = snap.removed_total;
    sample.lookups_done = snap.lookups.completed;
    if (snap.lookups.completed > 0) {
        sample.lookup_success_rate = static_cast<double>(snap.lookups.succeeded) /
                                     static_cast<double>(snap.lookups.completed);
        sample.lookup_hop_p50 = static_cast<double>(snap.lookups.hops.quantile(0.50));
        sample.lookup_hop_p99 = static_cast<double>(snap.lookups.hops.quantile(0.99));
        sample.lookup_latency_p50_ms =
            static_cast<double>(snap.lookups.latency_ms.quantile(0.50));
        sample.lookup_latency_p99_ms =
            static_cast<double>(snap.lookups.latency_ms.quantile(0.99));
    }
    sample.probes_done = snap.probes.probes;
    if (snap.probes.probes > 0) {
        sample.probe_success_rate = static_cast<double>(snap.probes.succeeded) /
                                    static_cast<double>(snap.probes.probes);
        sample.probe_hop_p50 = static_cast<double>(snap.probes.hops.quantile(0.50));
        sample.probe_hop_p99 = static_cast<double>(snap.probes.hops.quantile(0.99));
    }
    const bool fan_out = pool != nullptr && !exec::ThreadPool::in_worker();
    const graph::Digraph g = [&] {
        const Span span(&tracer, "graph.to_digraph", item);
        return snap.to_digraph(fan_out ? pool : nullptr);
    }();
    tracer.add("graph.edges", static_cast<double>(g.edge_count()));
    sample.n = g.vertex_count();
    sample.m = g.edge_count();
    if (sample.n == 0) return sample;
    sample.reciprocity = g.reciprocity();

    if (delta != nullptr) {
        const Span span(&tracer, "analysis.delta_begin", item);
        delta->begin_snapshot(snap, g);
    }
    const analysis::MetricContext context{
        g,
        options.sample_c,
        options.min_sources,
        pool,
        options.use_certificate,
        delta != nullptr ? delta->lambda_hook() : nullptr};
    std::future<analysis::ResilienceMetrics> metrics_future;
    if (fan_out) {
        metrics_future = pool->submit([&context, &tracer, item, parent = whole.id()] {
            return run_metrics_task(context, tracer, item, parent);
        });
    }
    flow::ConnectivityResult kappa;
    std::exception_ptr error;
    try {
        const Span span(&tracer, "flow.kappa", item);
        flow::ConnectivityOptions kappa_options;
        kappa_options.sample_fraction = options.sample_c;
        kappa_options.min_sources = options.min_sources;
        kappa_options.pool = pool;
        kappa_options.use_push_relabel = options.use_push_relabel;
        kappa_options.use_certificate = options.use_certificate;
        kappa_options.reuse = delta != nullptr ? delta->kappa_hook() : nullptr;
        kappa = flow::vertex_connectivity(g, kappa_options);
    } catch (...) {
        error = std::current_exception();
    }
    analysis::ResilienceMetrics metrics;
    if (metrics_future.valid()) {
        try {
            metrics = pool->wait_get(metrics_future);
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    } else if (!error) {
        metrics = run_metrics_task(context, tracer, item, Span::kInherit);
    }
    if (delta != nullptr) {
        const Span span(&tracer, "analysis.delta_end", item);
        delta->end_snapshot();
    }
    if (error) std::rethrow_exception(error);
    tracer.add("flow.kappa.pairs", static_cast<double>(kappa.pairs_evaluated));
    tracer.add("flow.kappa.flows_capped", static_cast<double>(kappa.flows_capped));
    tracer.add("flow.kappa.pairs_reused", static_cast<double>(kappa.pairs_reused));
    tracer.add("flow.kappa.arcs_touched", static_cast<double>(kappa.arcs_touched));
    tracer.max("flow.kappa.arena_mib",
               static_cast<double>(kappa.arena_bytes) / (1024.0 * 1024.0));

    sample.kappa_min = kappa.kappa_min;
    sample.kappa_avg = kappa.kappa_avg;
    sample.pairs_evaluated = kappa.pairs_evaluated;
    sample.lambda_min = metrics.lambda_min;
    sample.lambda_avg = metrics.lambda_avg;
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

namespace {

struct PendingSnapshot {
    std::size_t index = 0;
    graph::RoutingSnapshot snap;
};

}  // namespace

core::ExperimentSeries run_pipelined(const core::ExperimentConfig& config,
                                     exec::ThreadPool& pool, Tracer& tracer) {
    core::ExperimentSeries series;
    series.name = config.scenario.name;
    scen::Runner runner(config.scenario);
    const sim::SimTime interval = config.snapshot_interval;
    const sim::SimTime end = config.scenario.phases.end;
    std::vector<std::optional<core::ResilienceSample>> done(
        static_cast<std::size_t>(end / interval));
    std::mutex done_mutex;

    const int workers = pool.size();
    exec::BoundedQueue<PendingSnapshot> queue(2 * static_cast<std::size_t>(workers));
    std::vector<std::future<void>> consumers;
    std::exception_ptr error;
    try {
        for (int i = 0; i < workers; ++i) {
            consumers.push_back(pool.submit([&] {
                try {
                    while (auto item = queue.pop()) {
                        core::ResilienceSample sample = analyze(
                            item->snap, config.analyzer, nullptr, nullptr, tracer, item->index);
                        const std::lock_guard lock(done_mutex);
                        done.at(item->index) = sample;
                    }
                } catch (...) {
                    while (queue.pop()) {
                    }
                    throw;
                }
            }));
        }
        // Runner::run, stage by stage.
        stats::LookupTraffic prev;
        graph::RoutingSnapshot snap;
        std::size_t index = 0;
        for (sim::SimTime t = interval; t <= end; t += interval, ++index) {
            {
                const Span span(&tracer, "scen.step", index);
                runner.step_to(t);
            }
            {
                const Span span(&tracer, "scen.capture", index);
                runner.capture(snap);
                const stats::LookupTraffic cur = runner.lookup_traffic();
                snap.lookups = cur.diff(prev);
                prev = cur;
            }
            if (config.scenario.traffic.probes_per_snapshot > 0) {
                const Span span(&tracer, "kad.probes", index);
                snap.probes =
                    runner.run_lookup_probes(config.scenario.traffic.probes_per_snapshot);
            }
            queue.push({index, snap});
        }
        if (runner.simulator().now() < end) {
            const Span span(&tracer, "scen.step", index);
            runner.step_to(end);
        }
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
    tracer.add("scen.events", static_cast<double>(runner.totals().events_executed));
    for (auto& sample : done) {
        if (!sample) throw std::logic_error("replayed pipeline lost a snapshot");
        series.samples.push_back(*sample);
    }
    series.network_size = runner.size_series();
    return series;
}

DaemonReplica::DaemonReplica(std::string cache_dir, core::AnalyzerOptions options,
                             exec::ThreadPool& pool, std::size_t hot_capacity,
                             Tracer& tracer)
    : cache_dir_(std::move(cache_dir)),
      options_(options),
      pool_(pool),
      tracer_(tracer),
      cache_(cache_dir_),
      hot_(hot_capacity) {
    if (options_.use_delta) delta_ = std::make_unique<analysis::SnapshotDeltaCache>();
}

std::string DaemonReplica::result_key(const std::string& hash) const {
    std::ostringstream key;
    key << "snapshot|" << hash << "|c=" << options_.sample_c
        << "|minsrc=" << options_.min_sources;
    return key.str();
}

std::string DaemonReplica::spool_path(const std::string& hash) const {
    return cache_dir_ + "/snapshots/" + hash + ".ksnp";
}

std::shared_ptr<DaemonReplica::HotState> DaemonReplica::build_hot(
    graph::RoutingSnapshot snap, std::uint64_t item) {
    graph::Digraph g = [&] {
        const Span span(&tracer_, "graph.to_digraph", item);
        return snap.to_digraph(&pool_);
    }();
    tracer_.add("graph.edges", static_cast<double>(g.edge_count()));
    flow::FlowNetwork net = [&] {
        const Span span(&tracer_, "flow.witness_net", item);
        return flow::mincut_witness_network(g);
    }();
    return std::make_shared<HotState>(
        HotState{std::move(snap), std::move(g), std::move(net)});
}

std::string DaemonReplica::ingest(std::string_view bytes, std::uint64_t item,
                                  std::string& row) {
    graph::RoutingSnapshot snap;
    {
        const Span span(&tracer_, "graph.parse", item);
        std::istringstream in(std::string(bytes), std::ios::binary);
        snap = graph::RoutingSnapshot::parse(in);
    }
    if (snap.nodes.empty()) throw std::runtime_error("replica: empty snapshot");
    std::string hash;
    {
        const Span span(&tracer_, "serve.hash", item);
        hash = serve::Daemon::content_hash(snap);
    }
    const std::string key = result_key(hash);
    core::ResilienceSample sample{};
    bool cached = false;
    {
        const Span span(&tracer_, "serve.cache_load", item);
        core::ExperimentSeries series;
        if (cache_.load(key, series) && series.samples.size() == 1) {
            sample = series.samples.front();
            cached = true;
        }
    }
    if (!cached) {
        sample = analyze(snap, options_, &pool_, delta_.get(), tracer_, item);
        const Span span(&tracer_, "serve.cache_store", item);
        core::ExperimentSeries series;
        series.samples.push_back(sample);
        (void)cache_.store(key, series);
    }
    const std::string spool = spool_path(hash);
    if (!std::filesystem::exists(spool)) {
        const Span span(&tracer_, "serve.spool", item);
        if (util::ensure_directory(cache_dir_ + "/snapshots")) {
            const std::string tmp = spool + ".tmp." + std::to_string(::getpid());
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (out) {
                snap.save_binary(out);
                out.flush();
                const bool ok = static_cast<bool>(out);
                out.close();
                std::error_code ec;
                if (ok) std::filesystem::rename(tmp, spool, ec);
                if (!ok || ec) std::remove(tmp.c_str());
            }
        }
    }
    hot_.put(hash, build_hot(std::move(snap), item));
    row = serve::ResultCache::format_sample_row(sample);
    return hash;
}

std::string DaemonReplica::pair(const std::string& hash, int u, int v,
                                std::uint64_t item) {
    std::shared_ptr<HotState> hot = hot_.get(hash);
    if (!hot) {
        std::ifstream in(spool_path(hash), std::ios::binary);
        if (!in) return "ERR replica: no spool file for " + hash;
        graph::RoutingSnapshot snap;
        {
            const Span span(&tracer_, "graph.parse", item);
            snap = graph::RoutingSnapshot::parse(in);
        }
        {
            const Span span(&tracer_, "serve.hash", item);
            if (serve::Daemon::content_hash(snap) != hash) {
                return "ERR replica: spool file does not match " + hash;
            }
        }
        hot = build_hot(std::move(snap), item);
        hot_.put(hash, hot);
    }
    const int n = hot->g.vertex_count();
    if (u < 0 || v < 0 || u >= n || v >= n || u == v || hot->g.has_edge(u, v)) {
        return "ERR replica: PAIR needs two distinct non-adjacent vertices";
    }
    if (pinned_ != hot) {
        workspace_.attach(hot->witness_net);
        pinned_ = hot;
    }
    std::vector<int> cut;
    {
        const Span span(&tracer_, "flow.pair_cut", item);
        cut = flow::min_vertex_cut(hot->g, hot->witness_net, workspace_, u, v);
    }
    std::ostringstream out;
    out << "OK kappa=" << cut.size() << " cut_addresses=";
    for (std::size_t i = 0; i < cut.size(); ++i) {
        out << (i > 0 ? "," : "")
            << hot->snap.nodes[static_cast<std::size_t>(cut[i])].address;
    }
    return out.str();
}

double DaemonReplica::delta_hit_ratio() const {
    if (delta_ == nullptr) return 0.0;
    const analysis::DeltaStats kappa = delta_->kappa_stats();
    const analysis::DeltaStats lambda = delta_->lambda_stats();
    const auto lookups = kappa.lookups + lambda.lookups;
    return lookups == 0 ? 0.0
                        : static_cast<double>(kappa.hits + lambda.hits) /
                              static_cast<double>(lookups);
}

}  // namespace kadbench
