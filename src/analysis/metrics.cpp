#include "analysis/metrics.h"

#include <algorithm>
#include <array>
#include <exception>
#include <future>
#include <vector>

#include "analysis/structure.h"
#include "exec/thread_pool.h"

namespace kadsim::analysis {

void ReachabilityMetric::analyze(const MetricContext& context,
                                 ResilienceMetrics& out) const {
    const int n = context.g.vertex_count();
    if (n == 0) return;
    const SccSummary s = scc_summary(context.g);
    out.scc_count = s.count;
    out.scc_frac = static_cast<double>(s.largest) / static_cast<double>(n);
}

void CutStructureMetric::analyze(const MetricContext& context,
                                 ResilienceMetrics& out) const {
    const int n = context.g.vertex_count();
    if (n == 0) return;
    const UndirectedStructure s = undirected_structure(context.g);
    out.wcc_frac =
        static_cast<double>(s.largest_component) / static_cast<double>(n);
    out.articulation_points = static_cast<int>(s.articulation_points.size());
    out.bridges = s.bridge_count;
}

void DegreeMetric::analyze(const MetricContext& context,
                           ResilienceMetrics& out) const {
    const int n = context.g.vertex_count();
    if (n == 0) return;
    int out_min = context.g.out_degree(0);
    for (int v = 1; v < n; ++v) out_min = std::min(out_min, context.g.out_degree(v));
    const std::vector<int> in_degrees = context.g.in_degrees();
    out.out_degree_min = out_min;
    out.in_degree_min = *std::min_element(in_degrees.begin(), in_degrees.end());
}

std::span<const SnapshotMetric* const> default_metrics() {
    static const ReachabilityMetric reachability;
    static const CutStructureMetric cut_structure;
    static const DegreeMetric degree;
    static const std::array<const SnapshotMetric*, 3> suite{&reachability,
                                                            &cut_structure, &degree};
    return suite;
}

ResilienceMetrics run_metrics(std::span<const SnapshotMetric* const> suite,
                              const MetricContext& context) {
    ResilienceMetrics out;
    if (context.pool == nullptr || exec::ThreadPool::in_worker() ||
        suite.size() <= 1) {
        for (const SnapshotMetric* metric : suite) metric->analyze(context, out);
        return out;
    }
    // Fan out everything but the first metric; each task writes only the
    // fields its metric owns (see the header's determinism contract), so the
    // shared `out` needs no lock. Every submitted task must be joined before
    // this frame unwinds — collect the first error but keep waiting.
    std::vector<std::future<void>> futures;
    futures.reserve(suite.size() - 1);
    for (std::size_t i = 1; i < suite.size(); ++i) {
        futures.push_back(context.pool->submit(
            [metric = suite[i], &context, &out] { metric->analyze(context, out); }));
    }
    std::exception_ptr error;
    try {
        suite.front()->analyze(context, out);
    } catch (...) {
        error = std::current_exception();
    }
    for (auto& future : futures) {
        try {
            context.pool->wait_get(future);
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    if (error) std::rethrow_exception(error);
    return out;
}

ResilienceMetrics run_metrics(const MetricContext& context) {
    return run_metrics(default_metrics(), context);
}

}  // namespace kadsim::analysis
