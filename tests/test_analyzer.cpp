// Connectivity analyzer: snapshot → κ pipeline on synthetic inputs.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/analyzer.h"
#include "exec/thread_pool.h"
#include "util/rng.h"

namespace kadsim::core {
namespace {

AnalyzerOptions exact_options() {
    AnalyzerOptions opts;
    opts.sample_c = 1.0;  // exact
    opts.threads = 2;
    return opts;
}

graph::RoutingSnapshot ring_snapshot(int n) {
    // Bidirectional ring over addresses 10, 11, ..., 10+n-1: κ = 2.
    graph::RoutingSnapshot snap;
    snap.time_ms = 90 * 60000;
    for (int i = 0; i < n; ++i) {
        const auto addr = static_cast<std::uint32_t>(10 + i);
        const auto prev = static_cast<std::uint32_t>(10 + (i + n - 1) % n);
        const auto next = static_cast<std::uint32_t>(10 + (i + 1) % n);
        snap.nodes.push_back({addr, {prev, next}});
    }
    return snap;
}

TEST(ConnectivityAnalyzer, RingSnapshotHasKappaTwo) {
    const ConnectivityAnalyzer analyzer(exact_options());
    const auto sample = analyzer.analyze(ring_snapshot(8));
    EXPECT_EQ(sample.n, 8);
    EXPECT_EQ(sample.m, 16);
    EXPECT_EQ(sample.kappa_min, 2);
    EXPECT_DOUBLE_EQ(sample.kappa_avg, 2.0);
    EXPECT_EQ(sample.scc_count, 1);
    EXPECT_DOUBLE_EQ(sample.reciprocity, 1.0);
    EXPECT_DOUBLE_EQ(sample.time_min, 90.0);
}

TEST(ConnectivityAnalyzer, RingSnapshotMetricSuite) {
    // The bidirectional ring is 2-regular and 2-connected in every sense:
    // the whole κ ≤ λ ≤ δ_min chain collapses to 2 and no cut structure
    // exists.
    const ConnectivityAnalyzer analyzer(exact_options());
    const auto sample = analyzer.analyze(ring_snapshot(8));
    EXPECT_EQ(sample.lambda_min, 2);
    EXPECT_DOUBLE_EQ(sample.lambda_avg, 2.0);
    EXPECT_DOUBLE_EQ(sample.scc_frac, 1.0);
    EXPECT_DOUBLE_EQ(sample.wcc_frac, 1.0);
    EXPECT_EQ(sample.articulation_points, 0);
    EXPECT_EQ(sample.bridges, 0);
    EXPECT_EQ(sample.out_degree_min, 2);
    EXPECT_EQ(sample.in_degree_min, 2);
    EXPECT_EQ(sample.kappa_degree_gap, 0);
}

TEST(ConnectivityAnalyzer, DisconnectedSnapshotMetricSuite) {
    // Two 2-cliques: fractions see the halves, λ matches κ at 0, and each
    // pair-component's single mutual link is a bridge (not an articulation
    // point — removing an endpoint leaves a lone vertex, same count).
    graph::RoutingSnapshot snap;
    snap.nodes.push_back({1, {2}});
    snap.nodes.push_back({2, {1}});
    snap.nodes.push_back({3, {4}});
    snap.nodes.push_back({4, {3}});
    const ConnectivityAnalyzer analyzer(exact_options());
    const auto sample = analyzer.analyze(snap);
    EXPECT_EQ(sample.lambda_min, 0);
    EXPECT_DOUBLE_EQ(sample.scc_frac, 0.5);
    EXPECT_DOUBLE_EQ(sample.wcc_frac, 0.5);
    EXPECT_EQ(sample.articulation_points, 0);
    EXPECT_EQ(sample.bridges, 2);
    EXPECT_EQ(sample.kappa_degree_gap, 1);  // δ_min = 1, κ_min = 0
}

TEST(ConnectivityAnalyzer, DisconnectedSnapshotHasKappaZero) {
    graph::RoutingSnapshot snap;
    snap.nodes.push_back({1, {2}});
    snap.nodes.push_back({2, {1}});
    snap.nodes.push_back({3, {4}});
    snap.nodes.push_back({4, {3}});
    const ConnectivityAnalyzer analyzer(exact_options());
    const auto sample = analyzer.analyze(snap);
    EXPECT_EQ(sample.kappa_min, 0);
    EXPECT_EQ(sample.scc_count, 2);
}

TEST(ConnectivityAnalyzer, EmptySnapshotIsHarmless) {
    const ConnectivityAnalyzer analyzer(exact_options());
    const auto sample = analyzer.analyze(graph::RoutingSnapshot{});
    EXPECT_EQ(sample.n, 0);
    EXPECT_EQ(sample.kappa_min, 0);
}

TEST(ConnectivityAnalyzer, PropagatesFaultLayerRemovalCount) {
    graph::RoutingSnapshot snap = ring_snapshot(6);
    snap.removed_total = 37;
    const ConnectivityAnalyzer analyzer(exact_options());
    EXPECT_EQ(analyzer.analyze(snap).removed_total, 37u);
    // Empty snapshots keep the count too (a fully drained network still
    // reports its removal budget).
    graph::RoutingSnapshot empty;
    empty.removed_total = 12;
    EXPECT_EQ(analyzer.analyze(empty).removed_total, 12u);
}

TEST(ConnectivityAnalyzer, AsymmetricTablesLowerReciprocity) {
    graph::RoutingSnapshot snap;
    snap.nodes.push_back({1, {2, 3}});
    snap.nodes.push_back({2, {1, 3}});
    snap.nodes.push_back({3, {1}});  // 3 knows 1 but not 2
    const ConnectivityAnalyzer analyzer(exact_options());
    const auto sample = analyzer.analyze(snap);
    EXPECT_LT(sample.reciprocity, 1.0);
    EXPECT_GT(sample.reciprocity, 0.5);
}

graph::RoutingSnapshot random_snapshot(int n, std::uint64_t seed) {
    // Each node links ~5 random others (addresses 10..10+n-1); sparse
    // enough that most sampled pairs need a real flow run.
    util::Rng rng(seed);
    graph::RoutingSnapshot snap;
    snap.time_ms = 90 * 60000;
    for (int i = 0; i < n; ++i) {
        graph::SnapshotNode node{static_cast<std::uint32_t>(10 + i), {}};
        for (int j = 0; j < 5; ++j) {
            const auto peer = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (peer != i) node.contacts.push_back(static_cast<std::uint32_t>(10 + peer));
        }
        snap.nodes.push_back(node);
    }
    return snap;
}

TEST(ConnectivityAnalyzer, PooledAnalysisMatchesInline) {
    // The ring is exact and tiny; the n = 130 snapshot is sampled, so each
    // source's sinks split into three 64-sink work items across the lanes.
    AnalyzerOptions sampled;
    sampled.sample_c = 0.05;
    const std::pair<AnalyzerOptions, graph::RoutingSnapshot> cases[] = {
        {exact_options(), ring_snapshot(12)}, {sampled, random_snapshot(130, 7)}};
    exec::ThreadPool pool(3);
    for (const auto& [options, snap] : cases) {
        SCOPED_TRACE("n=" + std::to_string(snap.nodes.size()));
        const ConnectivityAnalyzer analyzer(options);
        const auto pooled = analyzer.analyze(snap, &pool);
        const auto inline_sample = analyzer.analyze(snap);
        EXPECT_EQ(pooled.kappa_min, inline_sample.kappa_min);
        EXPECT_DOUBLE_EQ(pooled.kappa_avg, inline_sample.kappa_avg);
        EXPECT_EQ(pooled.pairs_evaluated, inline_sample.pairs_evaluated);
        // The metric suite (run after κ, its λ flows and structural metrics
        // spread over the pool) is bit-identical to the inline run too.
        EXPECT_EQ(pooled.lambda_min, inline_sample.lambda_min);
        EXPECT_DOUBLE_EQ(pooled.lambda_avg, inline_sample.lambda_avg);
        EXPECT_EQ(pooled.scc_count, inline_sample.scc_count);
        EXPECT_DOUBLE_EQ(pooled.scc_frac, inline_sample.scc_frac);
        EXPECT_DOUBLE_EQ(pooled.wcc_frac, inline_sample.wcc_frac);
        EXPECT_EQ(pooled.articulation_points, inline_sample.articulation_points);
        EXPECT_EQ(pooled.bridges, inline_sample.bridges);
        EXPECT_EQ(pooled.out_degree_min, inline_sample.out_degree_min);
        EXPECT_EQ(pooled.in_degree_min, inline_sample.in_degree_min);
        EXPECT_EQ(pooled.kappa_degree_gap, inline_sample.kappa_degree_gap);
    }
}

TEST(ConnectivityAnalyzer, SampledModeEvaluatesFewerPairs) {
    AnalyzerOptions sampled;
    sampled.sample_c = 0.25;
    sampled.min_sources = 2;
    const ConnectivityAnalyzer exact(exact_options());
    const ConnectivityAnalyzer approx(sampled);
    const auto snap = ring_snapshot(16);
    const auto se = exact.analyze(snap);
    const auto sa = approx.analyze(snap);
    EXPECT_LT(sa.pairs_evaluated, se.pairs_evaluated);
    // The ring is vertex-transitive: sampling still finds the true κ.
    EXPECT_EQ(sa.kappa_min, se.kappa_min);
}

}  // namespace
}  // namespace kadsim::core
