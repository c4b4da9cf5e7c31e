// Resilience analysis pipeline (paper §5.2, extended): routing snapshot →
// directed connectivity graph → one sampled flow sweep with the paper's c·n
// source sampling → κ_min / κ_avg (max-flow on the Even transformation) and
// the sampled edge connectivity λ_min / λ_avg from the same sweep, plus the
// analysis-layer metric suite (reachability fractions, cut structure,
// degree floor) run alongside it on the same pool.
#ifndef KADSIM_CORE_ANALYZER_H
#define KADSIM_CORE_ANALYZER_H

#include <cstdint>
#include <memory>

#include "analysis/incremental.h"
#include "analysis/metrics.h"
#include "graph/snapshot.h"

namespace kadsim::exec {
class ThreadPool;
}  // namespace kadsim::exec

namespace kadsim::core {

struct AnalyzerOptions {
    /// Fraction c of out-degree-smallest vertices used as flow sources
    /// (paper: c = 0.02 suffices; 1.0 = exact).
    double sample_c = 0.02;
    /// At least this many sources even in small graphs.
    int min_sources = 4;
    /// Desired analysis parallelism. The experiment engine sizes its
    /// exec::ThreadPool from this (1 = fully inline); results are
    /// bit-identical for any value.
    int threads = 1;
    /// Solve with the HIPR-style push-relabel instead of Dinic.
    /// Off on every user path; kept only until bench/kadbench/replica.cpp,
    /// which still sets it, is retired.
    bool use_push_relabel = false;
    /// Preprocess each snapshot graph with the Nagamochi–Ibaraki sparse
    /// certificate before the κ/λ flow sweeps (graph/certificate.h). The
    /// certificate degree k is chosen above every evaluated pair's cap, so
    /// reported values are bit-identical with or without it. Off on every
    /// user path; kept only until bench/kadbench/replica.cpp is retired.
    bool use_certificate = false;
    /// Reuse bound-settled κ/λ pairs across consecutive snapshots via
    /// witness revalidation (analysis/incremental.h). Values stay
    /// bit-identical; snapshots must be analyzed one at a time, in series
    /// order — the experiment engine forces its sequential path when set.
    bool use_delta = false;
};

/// One analyzed snapshot: the paper's κ quantities plus the analysis-layer
/// resilience metrics. The first nine fields predate the metric suite and
/// their serialization (analyzer cache CSV, golden series hashes) is pinned
/// byte-for-byte — new metrics are appended, never interleaved.
struct ResilienceSample {
    double time_min = 0.0;
    int n = 0;                ///< live network size
    std::int64_t m = 0;       ///< connectivity-graph edges
    int kappa_min = 0;        ///< minimum connectivity (figures' "Min")
    double kappa_avg = 0.0;   ///< average connectivity (figures' "Avg")
    std::uint64_t pairs_evaluated = 0;
    int scc_count = 1;        ///< strongly connected components (1 ⇔ κ>0)
    double reciprocity = 1.0; ///< §5.2: graphs are nearly undirected
    /// Cumulative fault-layer removals when the snapshot was taken (attack
    /// scenarios read κ degradation against this removal budget).
    std::uint64_t removed_total = 0;

    // --- analysis-layer metrics (src/analysis/metrics.h) -----------------
    int lambda_min = 0;          ///< sampled edge connectivity λ(D)
    double lambda_avg = 0.0;     ///< mean λ(u,v) over sampled pairs
    double scc_frac = 1.0;       ///< largest SCC share of live nodes
    double wcc_frac = 1.0;       ///< largest weak-component share
    int articulation_points = 0; ///< single-vertex weak cut points
    int bridges = 0;             ///< single-link weak cut edges
    int out_degree_min = 0;
    int in_degree_min = 0;
    /// δ_min − κ_min with δ_min = min(out_degree_min, in_degree_min): how far
    /// κ sits below its degree ceiling (0 ⇔ the weakest vertex's links are
    /// fully disjoint paths).
    int kappa_degree_gap = 0;

    // --- lookup workload metrics (src/stats/histogram.h) -----------------
    // Filled from the Runner-attached snapshot companions; appended after
    // the metric-suite block per the serialization contract above.
    std::uint64_t lookups_done = 0;     ///< measured lookups this interval
    double lookup_success_rate = 0.0;   ///< of lookups_done (0 when none)
    double lookup_hop_p50 = 0.0;
    double lookup_hop_p99 = 0.0;
    double lookup_latency_p50_ms = 0.0;
    double lookup_latency_p99_ms = 0.0;
    std::uint64_t probes_done = 0;      ///< snapshot-time probe walks
    double probe_success_rate = 0.0;    ///< reached the true closest node
    double probe_hop_p50 = 0.0;
    double probe_hop_p99 = 0.0;
};

class ConnectivityAnalyzer {
public:
    explicit ConnectivityAnalyzer(AnalyzerOptions options) : options_(options) {}

    /// Full pipeline on a routing snapshot: the κ/λ sweep
    /// (flow/connectivity_sweep.h) and the metric suite. `pool` (optional)
    /// spreads the sweep's (source, sink block) items over every lane of a
    /// persistent execution pool, with the structural metrics as a pool task
    /// alongside, instead of running inline; results are bit-identical
    /// either way. With options().use_delta, calls must not overlap and
    /// snapshots must arrive in series order (the delta cache lives on this
    /// analyzer); without it, analyze is const-threadsafe.
    [[nodiscard]] ResilienceSample analyze(const graph::RoutingSnapshot& snap,
                                           exec::ThreadPool* pool = nullptr) const;

    [[nodiscard]] const AnalyzerOptions& options() const noexcept { return options_; }

    /// The cross-snapshot reuse cache (counters for benches/tests), or
    /// nullptr before the first analyze() under use_delta.
    [[nodiscard]] const analysis::SnapshotDeltaCache* delta_cache() const noexcept {
        return delta_.get();
    }

private:
    AnalyzerOptions options_;
    /// Lazily created on the first analyze() when options_.use_delta; mutable
    /// because the cache is the one piece of cross-call state an otherwise
    /// const analyzer carries (see the analyze() threading contract).
    mutable std::unique_ptr<analysis::SnapshotDeltaCache> delta_;
};

}  // namespace kadsim::core

#endif  // KADSIM_CORE_ANALYZER_H
