// analysis::SnapshotDeltaCache — cross-snapshot κ/λ reuse via witness
// revalidation, and its end-to-end wiring through AnalyzerOptions::use_delta.
//
// The load-bearing property is byte-identity: reuse may only skip work,
// never change a value. The series tests pin that with the same
// serialization the golden-hash suite (test_fault_equivalence.cpp) uses —
// delta+certificate runs must reproduce the delta-off series exactly,
// including the pre-refactor golden hash on the churn scenario. The unit
// tests pin the revalidation rule — the source's out-degree still equals
// the stored value, and every witness path still exists — one case at a
// time: witness-edge churn forcing a recompute, any change to the source's
// out-row forcing a recompute (a fresh route around it, or a new
// out-neighbour that leads nowhere), degree drift *outside* that row not
// forcing one, departed interior nodes and endpoints, and the zero-length
// direct-edge witness of λ.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/incremental.h"
#include "core/analyzer.h"
#include "core/experiment.h"
#include "fault/spec.h"
#include "flow/vertex_connectivity.h"
#include "graph/snapshot.h"
#include "util/rng.h"
#include "util/sha1.h"

namespace kadsim {
namespace {

/// The full cache-CSV sample serialization (every column) — mirrors
/// serialize_full in test_fault_equivalence.cpp, so equality here means the
/// published CSVs are byte-identical too.
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

/// The churny scenario pinned by the pre-refactor golden hash.
core::ExperimentConfig small_churny() {
    core::ExperimentConfig cfg;
    cfg.scenario.name = "small";
    cfg.scenario.initial_size = 60;
    cfg.scenario.seed = 77;
    cfg.scenario.kad.k = 8;
    cfg.scenario.kad.s = 1;
    cfg.scenario.traffic.enabled = true;
    cfg.scenario.fault.churn = scen::ChurnSpec{1, 1};
    cfg.scenario.phases.end = sim::minutes(240);
    cfg.snapshot_interval = sim::minutes(30);
    cfg.analyzer.sample_c = 0.02;
    cfg.analyzer.min_sources = 4;
    cfg.analyzer.threads = 1;
    return cfg;
}

/// A small adversarial scenario: stabilized overlay, then an in-degree
/// attack with no arrivals (the fault family's hardest case for reuse —
/// every removal invalidates many witnesses).
core::ExperimentConfig small_attack() {
    core::ExperimentConfig cfg;
    cfg.scenario.name = "attack";
    cfg.scenario.initial_size = 60;
    cfg.scenario.seed = 41;
    cfg.scenario.kad.k = 8;
    cfg.scenario.kad.s = 1;
    cfg.scenario.fault.churn = scen::ChurnSpec{0, 1};
    cfg.scenario.fault.model = fault::ModelKind::kDegreeAttack;
    cfg.scenario.phases.end = sim::minutes(160);
    cfg.snapshot_interval = sim::minutes(10);
    cfg.analyzer.sample_c = 0.02;
    cfg.analyzer.min_sources = 4;
    cfg.analyzer.threads = 1;
    return cfg;
}

TEST(IncrementalAnalysis, ChurnSeriesByteIdenticalAndMatchesGolden) {
    const core::ExperimentSeries baseline = core::run_experiment(small_churny());

    core::ExperimentConfig accel_cfg = small_churny();
    accel_cfg.analyzer.use_delta = true;
    accel_cfg.analyzer.use_certificate = true;
    const core::ExperimentSeries accel = core::run_experiment(accel_cfg);

    EXPECT_EQ(serialize_full(accel), serialize_full(baseline));

    // The accelerated run reproduces the pre-refactor golden too (first
    // eight columns — the hash pinned in test_fault_equivalence.cpp).
    std::ostringstream old_columns;
    for (const auto& s : accel.samples) {
        old_columns << s.time_min << ',' << s.n << ',' << s.m << ','
                    << s.kappa_min << ',' << s.kappa_avg << ',' << s.scc_count
                    << ',' << s.reciprocity << ',' << s.pairs_evaluated << '\n';
    }
    EXPECT_EQ(util::to_hex(util::sha1(old_columns.str())),
              "a9548c63f7e0a6e87dad8b10f71deb7c17384096");
}

TEST(IncrementalAnalysis, AttackSeriesByteIdenticalDeltaOnVsOff) {
    const core::ExperimentSeries baseline = core::run_experiment(small_attack());

    core::ExperimentConfig accel_cfg = small_attack();
    accel_cfg.analyzer.use_delta = true;
    accel_cfg.analyzer.use_certificate = true;
    const core::ExperimentSeries accel = core::run_experiment(accel_cfg);

    EXPECT_EQ(serialize_full(accel), serialize_full(baseline));
}

// use_delta forces the experiment engine onto its sequential path even with
// threads > 1 (pipelined analysis would reorder snapshots); the series must
// still be byte-identical to the single-threaded delta-off run.
TEST(IncrementalAnalysis, DeltaWithThreadsMatchesSingleThreadedBaseline) {
    const core::ExperimentSeries baseline = core::run_experiment(small_churny());

    core::ExperimentConfig accel_cfg = small_churny();
    accel_cfg.analyzer.use_delta = true;
    accel_cfg.analyzer.use_certificate = true;
    accel_cfg.analyzer.threads = 3;
    const core::ExperimentSeries accel = core::run_experiment(accel_cfg);

    EXPECT_EQ(serialize_full(accel), serialize_full(baseline));
}

// --- unit tests against hand-built snapshots -------------------------------

/// Snapshot with nodes[i].address = addrs[i] and contacts per `edges`
/// (indices into addrs). to_digraph() maps vertex i ⇔ nodes[i].
graph::RoutingSnapshot make_snapshot(
    const std::vector<std::uint32_t>& addrs,
    const std::vector<std::pair<int, int>>& edges) {
    std::vector<graph::SnapshotNode> nodes(addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        nodes[i].address = addrs[i];
    }
    for (const auto& [u, v] : edges) {
        nodes[static_cast<std::size_t>(u)].contacts.push_back(
            addrs[static_cast<std::size_t>(v)]);
    }
    graph::RoutingSnapshot snap;
    snap.nodes.reserve(nodes.size());
    for (const auto& node : nodes) snap.nodes.push_back(node);
    return snap;
}

TEST(SnapshotDeltaCache, ReusesOnlyWhileWitnessSurvives) {
    const std::vector<std::uint32_t> addrs{100, 101, 102, 103};
    // 0→1→2 plus 0→3→2: two vertex-disjoint 0⇒2 paths through 1 and 3.
    const std::vector<std::pair<int, int>> edges{
        {0, 1}, {1, 2}, {0, 3}, {3, 2}};

    analysis::SnapshotDeltaCache cache;
    const graph::RoutingSnapshot snap1 = make_snapshot(addrs, edges);
    const graph::Digraph g1 = snap1.to_digraph();
    cache.begin_snapshot(snap1, g1);

    // Pair (0,2): κ = 2 = out°(0) with witness paths {1}, {3}.
    const std::vector<int> witness{1, 3};
    const std::vector<int> offsets{0, 1, 2};
    cache.kappa_hook()->store(0, 2, 2, witness, offsets);
    // Stores are invisible until end_snapshot commits them.
    EXPECT_EQ(cache.kappa_hook()->lookup(0, 2), -1);
    cache.end_snapshot();

    // Same graph next snapshot: paths intact, out°(0) still 2 → hit.
    const graph::RoutingSnapshot snap2 = make_snapshot(addrs, edges);
    const graph::Digraph g2 = snap2.to_digraph();
    cache.begin_snapshot(snap2, g2);
    EXPECT_EQ(cache.kappa_hook()->lookup(0, 2), 2);
    cache.end_snapshot();

    // Degree drift outside the witness — an extra edge 2→0 changes in°(0)
    // and out°(2) (and so the bound a fresh computation of (2,0) would run
    // under) but neither the paths nor out°(0): still a hit.
    const graph::RoutingSnapshot snap2b =
        make_snapshot(addrs, {{0, 1}, {1, 2}, {0, 3}, {3, 2}, {2, 0}});
    const graph::Digraph g2b = snap2b.to_digraph();
    cache.begin_snapshot(snap2b, g2b);
    EXPECT_EQ(cache.kappa_hook()->lookup(0, 2), 2);
    cache.end_snapshot();

    // Churn inside the witness: edge 1→2 evicted → revalidation fails and
    // the pair must be recomputed.
    const graph::RoutingSnapshot snap3 =
        make_snapshot(addrs, {{0, 1}, {0, 3}, {3, 2}});
    const graph::Digraph g3 = snap3.to_digraph();
    cache.begin_snapshot(snap3, g3);
    EXPECT_EQ(cache.kappa_hook()->lookup(0, 2), -1);
    cache.end_snapshot();

    // Churn inside the witness: interior node 101 departed entirely. The
    // surviving nodes keep their relative order, so pair (0,2) is now ids
    // (0,1) — and must still recompute because a witness path died.
    const graph::RoutingSnapshot snap4 =
        make_snapshot({100, 102, 103}, {{0, 2}, {2, 1}});
    const graph::Digraph g4 = snap4.to_digraph();
    cache.begin_snapshot(snap4, g4);
    EXPECT_EQ(cache.kappa_hook()->lookup(0, 1), -1);
    cache.end_snapshot();
}

// The cut half of the witness: a joiner that opens a route around the
// source's out-row {1, 3} must force a recompute even though every witness
// path is intact (κ may genuinely have grown). The new edge 0→4 raises
// out°(0) to 3, and the degree check refuses the entry.
TEST(SnapshotDeltaCache, FreshRouteAroundCutForcesRecompute) {
    const std::vector<std::uint32_t> addrs{100, 101, 102, 103};
    const std::vector<std::pair<int, int>> edges{
        {0, 1}, {1, 2}, {0, 3}, {3, 2}};

    analysis::SnapshotDeltaCache cache;
    const graph::RoutingSnapshot snap1 = make_snapshot(addrs, edges);
    const graph::Digraph g1 = snap1.to_digraph();
    cache.begin_snapshot(snap1, g1);
    cache.kappa_hook()->store(0, 2, 2, std::vector<int>{1, 3},
                              std::vector<int>{0, 1, 2});
    cache.end_snapshot();

    // Node 104 joins with 0→4→2: {101, 103} no longer separates.
    const graph::RoutingSnapshot snap2 = make_snapshot(
        {100, 101, 102, 103, 104},
        {{0, 1}, {1, 2}, {0, 3}, {3, 2}, {0, 4}, {4, 2}});
    const graph::Digraph g2 = snap2.to_digraph();
    cache.begin_snapshot(snap2, g2);
    EXPECT_EQ(cache.kappa_hook()->lookup(0, 2), -1);
    cache.end_snapshot();
}

// The degree rule is stricter than separation: node 104 joins with 0→4 and
// 4→0 only, so {101, 103} still separates 0 from 2 and κ(0,2) is still 2,
// but u's out-row is no longer a size-2 cut. The entry is refused and the
// kernel recomputes the same value.
TEST(SnapshotDeltaCache, OutDegreeGrowthForcesRecompute) {
    const std::vector<std::pair<int, int>> edges{
        {0, 1}, {1, 2}, {0, 3}, {3, 2}};

    analysis::SnapshotDeltaCache cache;
    const graph::RoutingSnapshot snap1 = make_snapshot({100, 101, 102, 103}, edges);
    const graph::Digraph g1 = snap1.to_digraph();
    cache.begin_snapshot(snap1, g1);
    cache.kappa_hook()->store(0, 2, 2, std::vector<int>{1, 3},
                              std::vector<int>{0, 1, 2});
    cache.end_snapshot();

    const graph::RoutingSnapshot snap2 = make_snapshot(
        {100, 101, 102, 103, 104},
        {{0, 1}, {1, 2}, {0, 3}, {3, 2}, {0, 4}, {4, 0}});
    const graph::Digraph g2 = snap2.to_digraph();
    cache.begin_snapshot(snap2, g2);
    EXPECT_EQ(g2.out_degree(0), 3);
    EXPECT_EQ(flow::pair_vertex_connectivity(g2, 0, 2), 2);
    EXPECT_EQ(cache.kappa_hook()->lookup(0, 2), -1);
    cache.end_snapshot();
}

TEST(SnapshotDeltaCache, DirectEdgeLambdaWitness) {
    const std::vector<std::uint32_t> addrs{7, 9};
    analysis::SnapshotDeltaCache cache;

    const graph::RoutingSnapshot snap1 = make_snapshot(addrs, {{0, 1}, {1, 0}});
    const graph::Digraph g1 = snap1.to_digraph();
    cache.begin_snapshot(snap1, g1);
    // λ(0,1) = 1 = out°(0) via the direct edge: a single zero-length
    // witness path, and the edge itself — 0's whole out-row — is the cut.
    const std::vector<int> offsets{0, 0};
    cache.lambda_hook()->store(0, 1, 1, {}, offsets);
    cache.end_snapshot();

    const graph::RoutingSnapshot snap2 = make_snapshot(addrs, {{0, 1}, {1, 0}});
    const graph::Digraph g2 = snap2.to_digraph();
    cache.begin_snapshot(snap2, g2);
    EXPECT_EQ(cache.lambda_hook()->lookup(0, 1), 1);
    cache.end_snapshot();

    // The direct edge evicted → the zero-length path fails has_edge.
    const graph::RoutingSnapshot snap3 = make_snapshot(addrs, {{1, 0}});
    const graph::Digraph g3 = snap3.to_digraph();
    cache.begin_snapshot(snap3, g3);
    EXPECT_EQ(cache.lambda_hook()->lookup(0, 1), -1);
    cache.end_snapshot();
}

// The λ cut half: a two-hop detour joining the overlay makes 0's old
// single-edge out-row insufficient — the entry must be refused even though
// the direct edge (the witness path) is intact. The detour's first edge 0→2
// raises out°(0) to 2, and the degree check refuses the entry.
TEST(SnapshotDeltaCache, NewDetourAroundLambdaCutForcesRecompute) {
    analysis::SnapshotDeltaCache cache;
    const graph::RoutingSnapshot snap1 = make_snapshot({7, 9}, {{0, 1}, {1, 0}});
    const graph::Digraph g1 = snap1.to_digraph();
    cache.begin_snapshot(snap1, g1);
    cache.lambda_hook()->store(0, 1, 1, {}, std::vector<int>{0, 0});
    cache.end_snapshot();

    // Node 11 joins with 0→2→1 alongside the direct edge: λ(0,1) is now 2.
    const graph::RoutingSnapshot snap2 =
        make_snapshot({7, 9, 11}, {{0, 1}, {1, 0}, {0, 2}, {2, 1}});
    const graph::Digraph g2 = snap2.to_digraph();
    cache.begin_snapshot(snap2, g2);
    EXPECT_EQ(cache.lambda_hook()->lookup(0, 1), -1);
    cache.end_snapshot();
}

TEST(SnapshotDeltaCache, PrunesEntriesWhoseEndpointsDeparted) {
    const std::vector<std::uint32_t> addrs{10, 11, 12};
    analysis::SnapshotDeltaCache cache;

    const graph::RoutingSnapshot snap1 =
        make_snapshot(addrs, {{0, 1}, {1, 2}, {2, 0}});
    const graph::Digraph g1 = snap1.to_digraph();
    cache.begin_snapshot(snap1, g1);
    cache.kappa_hook()->store(0, 1, 0, {}, std::vector<int>{0});
    cache.kappa_hook()->store(1, 2, 0, {}, std::vector<int>{0});
    cache.end_snapshot();
    EXPECT_EQ(cache.kappa_stats().entries, 2u);

    // Node 11 departs: both entries touch it as an endpoint and are pruned.
    const graph::RoutingSnapshot snap2 = make_snapshot({10, 12}, {{0, 1}, {1, 0}});
    const graph::Digraph g2 = snap2.to_digraph();
    cache.begin_snapshot(snap2, g2);
    EXPECT_EQ(cache.kappa_stats().entries, 0u);
    cache.end_snapshot();
}

/// Kademlia-like snapshot (reciprocal-heavy random contacts) for exercising
/// the analyzer-level wiring on something with real flow structure.
graph::RoutingSnapshot kademlia_like_snapshot(int n, int deg,
                                              std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::uint32_t> addrs;
    addrs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) addrs.push_back(1000u + static_cast<std::uint32_t>(i));
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < n; ++u) {
        for (int j = 0; j < deg; ++j) {
            const int v =
                static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (v == u) continue;
            edges.emplace_back(u, v);
            if (rng.next_bool(0.9)) edges.emplace_back(v, u);
        }
    }
    return make_snapshot(addrs, edges);
}

// Analyzer-level engagement: with use_delta, re-analyzing an (unchanged)
// successor snapshot reuses pairs — observable through delta_cache() — and
// reports identical values.
TEST(SnapshotDeltaCache, AnalyzerReusesAcrossIdenticalSnapshots) {
    const graph::RoutingSnapshot snap = kademlia_like_snapshot(40, 4, 20170327);

    core::AnalyzerOptions options;
    options.sample_c = 0.1;
    options.min_sources = 4;
    options.use_delta = true;
    const core::ConnectivityAnalyzer analyzer(options);
    ASSERT_EQ(analyzer.delta_cache(), nullptr);

    const core::ResilienceSample first = analyzer.analyze(snap);
    ASSERT_NE(analyzer.delta_cache(), nullptr);
    const analysis::DeltaStats after_first = analyzer.delta_cache()->kappa_stats();
    EXPECT_GT(after_first.stores, 0u);
    EXPECT_EQ(after_first.hits, 0u);

    const core::ResilienceSample second = analyzer.analyze(snap);
    const analysis::DeltaStats after_second =
        analyzer.delta_cache()->kappa_stats();
    EXPECT_GT(after_second.hits, 0u);
    EXPECT_GT(analyzer.delta_cache()->lambda_stats().hits, 0u);

    EXPECT_EQ(second.kappa_min, first.kappa_min);
    EXPECT_EQ(second.kappa_avg, first.kappa_avg);
    EXPECT_EQ(second.pairs_evaluated, first.pairs_evaluated);
    EXPECT_EQ(second.lambda_min, first.lambda_min);
    EXPECT_EQ(second.lambda_avg, first.lambda_avg);
}

}  // namespace
}  // namespace kadsim
