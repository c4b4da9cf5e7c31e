// Multi-metric resilience analysis of one routing-graph snapshot.
//
// The paper measures resilience solely as vertex connectivity κ; this layer
// adds the richer structural measures its framing (and the companion CPS
// study, plus Ferretti 2013) motivates: strong/weak reachability fractions,
// articulation points and bridges, and degree summaries. Each measure is a
// SnapshotMetric; core::ConnectivityAnalyzer runs the suite as pool work
// alongside the κ/λ sweep (flow/connectivity_sweep.h), which yields the
// sampled edge connectivity λ together with κ, and folds both into
// ResilienceSample.
//
// Determinism contract: a metric is a pure function of the snapshot graph —
// no RNG, no shared mutable state — and writes only the ResilienceMetrics
// fields it owns, so the suite may fan out across threads (each field is
// written by exactly one task) and every value is bit-identical for any
// thread count.
#ifndef KADSIM_ANALYSIS_METRICS_H
#define KADSIM_ANALYSIS_METRICS_H

#include <cstdint>
#include <span>

#include "graph/digraph.h"

namespace kadsim::exec {
class ThreadPool;
}  // namespace kadsim::exec

namespace kadsim::flow {
class PairReuseHook;
}  // namespace kadsim::flow

namespace kadsim::analysis {

/// What a metric sees: the snapshot's connectivity graph plus the sampling
/// parameters and execution pool the κ/λ sweep uses.
struct MetricContext {
    const graph::Digraph& g;
    double sample_c = 1.0;
    int min_sources = 1;
    exec::ThreadPool* pool = nullptr;
    /// Preprocess flow-metric graphs with the Nagamochi–Ibaraki sparse
    /// certificate (graph/certificate.h); values are unchanged.
    bool use_certificate = false;
    /// Cross-snapshot λ reuse hook (analysis/incremental.h), or nullptr,
    /// for callers that run λ beside the suite; no suite metric reads it.
    /// Not owned.
    flow::PairReuseHook* lambda_reuse = nullptr;
};

/// The metric values of one snapshot (the non-κ half of ResilienceSample).
/// λ comes from the flow sweep, not from a suite metric: the caller that
/// runs the sweep fills lambda_min / lambda_avg.
struct ResilienceMetrics {
    int lambda_min = 0;        ///< sampled edge connectivity λ(D)
    double lambda_avg = 0.0;   ///< mean λ(u,v) over sampled pairs
    int scc_count = 1;         ///< strongly connected components (1 ⇔ κ>0)
    double scc_frac = 0.0;     ///< largest SCC share of live nodes (strong)
    double wcc_frac = 0.0;     ///< largest weak component share (weak)
    int articulation_points = 0;  ///< single-vertex weak cut points
    int bridges = 0;              ///< single-link weak cut edges
    int out_degree_min = 0;
    int in_degree_min = 0;
};

/// One resilience measure over a snapshot graph. Implementations must be
/// stateless (analyze is called concurrently from many threads) and must
/// write only the ResilienceMetrics fields they own — see the determinism
/// contract in the file comment.
class SnapshotMetric {
public:
    virtual ~SnapshotMetric() = default;
    [[nodiscard]] virtual const char* name() const noexcept = 0;
    virtual void analyze(const MetricContext& context,
                         ResilienceMetrics& out) const = 0;
};

/// Strong reachability: SCC count and the fraction of live nodes inside the
/// largest SCC, one Tarjan pass (analysis/structure.h). Owns scc_count /
/// scc_frac.
class ReachabilityMetric final : public SnapshotMetric {
public:
    [[nodiscard]] const char* name() const noexcept override { return "reachability"; }
    void analyze(const MetricContext& context, ResilienceMetrics& out) const override;
};

/// Weak structure of the undirected projection, one iterative Tarjan DFS
/// (analysis/structure.h): the largest weak-component share plus the cut
/// structure. Owns wcc_frac / articulation_points / bridges.
class CutStructureMetric final : public SnapshotMetric {
public:
    [[nodiscard]] const char* name() const noexcept override { return "cut-structure"; }
    void analyze(const MetricContext& context, ResilienceMetrics& out) const override;
};

/// Degree floor: minimum out-/in-degree, the upper bounds of the κ ≤ λ ≤
/// δ_min chain (the κ-gap is derived by the analyzer once κ is known). Owns
/// out_degree_min / in_degree_min.
class DegreeMetric final : public SnapshotMetric {
public:
    [[nodiscard]] const char* name() const noexcept override { return "degree"; }
    void analyze(const MetricContext& context, ResilienceMetrics& out) const override;
};

/// The default suite: every metric above, as shared stateless instances.
[[nodiscard]] std::span<const SnapshotMetric* const> default_metrics();

/// Runs every metric of `suite` on one snapshot. With a pool (and outside a
/// pool worker) metrics run as concurrent tasks; results are bit-identical
/// either way. Metrics writing disjoint fields of one shared struct is what
/// makes the concurrent fan-out race-free.
[[nodiscard]] ResilienceMetrics run_metrics(
    std::span<const SnapshotMetric* const> suite, const MetricContext& context);

/// run_metrics over default_metrics().
[[nodiscard]] ResilienceMetrics run_metrics(const MetricContext& context);

}  // namespace kadsim::analysis

#endif  // KADSIM_ANALYSIS_METRICS_H
