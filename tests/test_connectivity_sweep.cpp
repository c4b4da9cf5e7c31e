// The κ/λ sweep against its κ-only and λ-only entry points: both halves
// must equal vertex_connectivity / edge_connectivity on any lane count,
// with the certificate on or off, and with reuse hooks attached; and every
// witness the sweep hands a reuse hook proves the value stored with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "flow/connectivity_sweep.h"
#include "graph/digraph.h"
#include "sweep_fixtures.h"

namespace kadsim::flow {
namespace {

using test_support::TableReuseHook;

/// The graph of the sweep tests at `n`. At n = 2 a single edge keeps the
/// graph non-complete (a complete graph short-circuits the sweep).
graph::Digraph sweep_graph(int n) {
    if (n > 2) return test_support::kademlia_like_graph(n, 4, static_cast<std::uint64_t>(n));
    graph::Digraph two(2);
    two.add_edge(0, 1);
    two.finalize();
    return two;
}

/// The values of two κ results, plus every counter that does not depend on
/// a reuse hook's hit pattern.
void expect_same_kappa(const ConnectivityResult& a, const ConnectivityResult& b) {
    EXPECT_EQ(a.kappa_min, b.kappa_min);
    EXPECT_EQ(a.kappa_sum, b.kappa_sum);
    EXPECT_EQ(a.kappa_avg, b.kappa_avg);
    EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
    EXPECT_EQ(a.sources_used, b.sources_used);
    EXPECT_EQ(a.cert_edges_kept, b.cert_edges_kept);
    EXPECT_EQ(a.complete, b.complete);
}

void expect_same_lambda(const EdgeConnectivityResult& a,
                        const EdgeConnectivityResult& b) {
    EXPECT_EQ(a.lambda_min, b.lambda_min);
    EXPECT_EQ(a.lambda_sum, b.lambda_sum);
    EXPECT_EQ(a.lambda_avg, b.lambda_avg);
    EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
    EXPECT_EQ(a.sources_used, b.sources_used);
    EXPECT_EQ(a.cert_edges_kept, b.cert_edges_kept);
    EXPECT_EQ(a.complete, b.complete);
}

/// Field for field, the counters included: what the hook-free sweep must
/// match against the separate entry points, and a hooked sweep against the
/// same hooked sweep on another lane count.
void expect_same_sweep(const ConnectivitySweepResult& a, const ConnectivitySweepResult& b) {
    expect_same_kappa(a.kappa, b.kappa);
    EXPECT_EQ(a.kappa.pairs_skipped, b.kappa.pairs_skipped);
    EXPECT_EQ(a.kappa.flows_capped, b.kappa.flows_capped);
    EXPECT_EQ(a.kappa.pairs_reused, b.kappa.pairs_reused);
    EXPECT_EQ(a.kappa.arcs_touched, b.kappa.arcs_touched);
    expect_same_lambda(a.lambda, b.lambda);
    EXPECT_EQ(a.lambda.pairs_skipped, b.lambda.pairs_skipped);
    EXPECT_EQ(a.lambda.flows_capped, b.lambda.flows_capped);
    EXPECT_EQ(a.lambda.pairs_reused, b.lambda.pairs_reused);
}

/// The separate κ-only and λ-only runs, inline, as one sweep result.
ConnectivitySweepResult separate(const graph::Digraph& g, ConnectivityOptions options) {
    options.pool = nullptr;
    options.reuse = nullptr;
    EdgeConnectivityOptions lambda_options;
    lambda_options.sample_fraction = options.sample_fraction;
    lambda_options.min_sources = options.min_sources;
    lambda_options.use_certificate = options.use_certificate;
    return {vertex_connectivity(g, options), edge_connectivity(g, lambda_options)};
}

// At these n — straddling the 64-sink block edges — one source's sinks are
// split over lanes. Without hooks, both halves equal the separate entry
// points field for field, inline and on pools of 1/2/3/7 workers, with the
// certificate on and off.
TEST(ConnectivitySweep, HalvesMatchSeparateEntryPoints) {
    for (const int n : {2, 63, 64, 65, 130, 300}) {
        const graph::Digraph g = sweep_graph(n);
        for (const bool certificate : {false, true}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         (certificate ? " certificate" : " plain"));
            ConnectivityOptions options;
            // Four sources at every n, as few as a c = 0.02 sample yields.
            options.sample_fraction = 0.01;
            options.min_sources = 4;
            options.use_certificate = certificate;
            const ConnectivitySweepResult expected = separate(g, options);
            expect_same_sweep(expected, connectivity_sweep(g, options, nullptr));
            for (const int workers : {1, 2, 3, 7}) {
                SCOPED_TRACE("workers=" + std::to_string(workers));
                exec::ThreadPool pool(workers);
                options.pool = &pool;
                expect_same_sweep(expected, connectivity_sweep(g, options, nullptr));
            }
        }
    }
}

// With reuse hooks on both halves the values equal the hook-free run, and
// every lane count makes the same lookups and the same stores. The tables
// answer every third pair a recording run stored, so each half mixes
// reused and recomputed pairs.
TEST(ConnectivitySweep, ReuseHooksKeepValuesAndStores) {
    for (const int n : {2, 63, 64, 65, 130, 300}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const graph::Digraph g = sweep_graph(n);
        ConnectivityOptions options;
        options.sample_fraction = 0.01;
        options.min_sources = 4;
        const ConnectivitySweepResult plain = connectivity_sweep(g, options, nullptr);

        TableReuseHook kappa_recorder;
        TableReuseHook lambda_recorder;
        options.reuse = &kappa_recorder;
        (void)connectivity_sweep(g, options, &lambda_recorder);
        const auto kappa_table = kappa_recorder.every_third_store();
        const auto lambda_table = lambda_recorder.every_third_store();

        TableReuseHook kappa_inline(kappa_table);
        TableReuseHook lambda_inline(lambda_table);
        options.reuse = &kappa_inline;
        const ConnectivitySweepResult expected =
            connectivity_sweep(g, options, &lambda_inline);
        expect_same_kappa(plain.kappa, expected.kappa);
        expect_same_lambda(plain.lambda, expected.lambda);
        if (n > 2) {
            EXPECT_GT(expected.kappa.pairs_reused, 0u);
            EXPECT_GT(expected.lambda.pairs_reused, 0u);
        }
        for (const int workers : {1, 2, 3, 7}) {
            SCOPED_TRACE("workers=" + std::to_string(workers));
            exec::ThreadPool pool(workers);
            TableReuseHook kappa_hook(kappa_table);
            TableReuseHook lambda_hook(lambda_table);
            options.pool = &pool;
            options.reuse = &kappa_hook;
            expect_same_sweep(expected, connectivity_sweep(g, options, &lambda_hook));
            EXPECT_EQ(kappa_hook.sorted_stores(), kappa_inline.sorted_stores());
            EXPECT_EQ(lambda_hook.sorted_stores(), lambda_inline.sorted_stores());
        }
        options.pool = nullptr;
    }
}

// Two 5-cliques sharing the cut vertex 4. Across the cut κ(u,v) = 1 (every
// path passes 4) while λ(u,v) = 4 = the degree bound (u reaches 4 directly
// and through its three other clique mates; 4 reaches v likewise), so λ's
// own flow runs inside the sweep for those non-adjacent pairs.
TEST(ConnectivitySweep, KappaBelowLambdaRunsLambdaFlows) {
    graph::Digraph g(9);
    for (const int base : {0, 4}) {
        for (int a = base; a < base + 5; ++a) {
            for (int b = base; b < base + 5; ++b) {
                if (a != b) g.add_edge(a, b);
            }
        }
    }
    g.finalize();
    ConnectivityOptions options;  // exact: every vertex is a source
    TableReuseHook lambda_hook;
    const ConnectivitySweepResult sweep = connectivity_sweep(g, options, &lambda_hook);
    expect_same_sweep(separate(g, options), connectivity_sweep(g, options, nullptr));
    EXPECT_EQ(sweep.kappa.kappa_min, 1);
    EXPECT_EQ(sweep.lambda.lambda_min, 4);

    // λ's hook sees only the pairs λ ran its own body for, so a stored
    // cross-cut pair proves λ's flow path ran inside the sweep.
    std::map<std::pair<int, int>, int> stored;
    for (const auto& s : lambda_hook.sorted_stores()) stored[{s.u, s.v}] = s.value;
    for (int u = 0; u < 9; ++u) {
        for (int v = 0; v < 9; ++v) {
            if ((u < 4 && v > 4) || (u > 4 && v < 4)) {
                const auto it = stored.find({u, v});
                ASSERT_NE(it, stored.end()) << "(" << u << "," << v << ")";
                EXPECT_EQ(it->second, 4);
            }
        }
    }
}

// λ offers its hook only the pairs it runs its own body for: a pair whose κ
// met a nonzero bound is settled with no lookup and no store, so the sweep
// stores fewer λ pairs than the λ-only entry point, and none of them is a
// non-adjacent pair at its bound.
TEST(ConnectivitySweep, LambdaHookSeesOnlyUnsettledPairs) {
    const graph::Digraph g = sweep_graph(130);
    ConnectivityOptions options;
    options.sample_fraction = 0.01;
    options.min_sources = 4;
    TableReuseHook sweep_hook;
    (void)connectivity_sweep(g, options, &sweep_hook);
    EdgeConnectivityOptions lambda_options;
    lambda_options.sample_fraction = options.sample_fraction;
    lambda_options.min_sources = options.min_sources;
    TableReuseHook lambda_only_hook;
    lambda_options.reuse = &lambda_only_hook;
    (void)edge_connectivity(g, lambda_options);

    const auto stores = sweep_hook.sorted_stores();
    EXPECT_LT(stores.size(), lambda_only_hook.sorted_stores().size());
    const std::vector<int> in_degrees = g.in_degrees();
    for (const auto& s : stores) {
        if (g.has_edge(s.u, s.v)) continue;
        const int bound =
            std::min(g.out_degree(s.u), in_degrees[static_cast<std::size_t>(s.v)]);
        EXPECT_LT(pair_vertex_connectivity(g, s.u, s.v), bound)
            << "(" << s.u << "," << s.v << ")";
    }
}

/// Checks one stored witness against `g` (pair_reuse.h): the value is
/// out°(u), one path per unit, every path edge exists, κ interiors are
/// pairwise distinct and never an endpoint, λ edges are pairwise distinct.
void expect_witness_proves_value(const graph::Digraph& g, bool kappa,
                                 const TableReuseHook::Stored& s) {
    SCOPED_TRACE(std::string(kappa ? "kappa" : "lambda") + " (" + std::to_string(s.u) +
                 "," + std::to_string(s.v) + ")");
    // u's out-row is a size-value cut; a κ pair is never adjacent, so v is
    // not in it.
    EXPECT_EQ(s.value, g.out_degree(s.u));
    if (kappa) {
        EXPECT_FALSE(g.has_edge(s.u, s.v));
    }
    ASSERT_EQ(s.offsets.size(), static_cast<std::size_t>(s.value) + 1);
    ASSERT_EQ(s.offsets.front(), 0);
    ASSERT_EQ(s.offsets.back(), static_cast<int>(s.witness.size()));
    std::set<int> interiors;
    std::set<std::pair<int, int>> edges;
    for (std::size_t p = 0; p + 1 < s.offsets.size(); ++p) {
        ASSERT_LE(s.offsets[p], s.offsets[p + 1]);
        int prev = s.u;
        for (int i = s.offsets[p]; i < s.offsets[p + 1]; ++i) {
            const int w = s.witness[static_cast<std::size_t>(i)];
            if (kappa) {
                EXPECT_NE(w, s.u);
                EXPECT_NE(w, s.v);
                EXPECT_TRUE(interiors.insert(w).second) << "vertex " << w << " reused";
            }
            EXPECT_TRUE(g.has_edge(prev, w)) << prev << "->" << w;
            EXPECT_TRUE(edges.insert({prev, w}).second) << prev << "->" << w << " reused";
            prev = w;
        }
        EXPECT_TRUE(g.has_edge(prev, s.v)) << prev << "->" << s.v;
        EXPECT_TRUE(edges.insert({prev, s.v}).second) << prev << "->" << s.v << " reused";
    }
}

// Every witness a sweep stores proves its value on the graph it came from:
// value paths that exist edge for edge and are disjoint, and value equal to
// the source's out-degree, whose out-row is then the matching cut. Sparse
// and dense, mostly one-way and mostly reciprocated graphs, with the
// certificate off and on (the paths then run in the certificate, a
// subgraph of g).
TEST(ConnectivitySweep, EveryStoredWitnessProvesItsValue) {
    std::size_t checked = 0;
    for (const int n : {63, 130, 300}) {
        for (const double reciprocity : {0.3, 0.9}) {
            for (const int degree : {3, 6, 12}) {
                const graph::Digraph g = test_support::kademlia_like_graph(
                    n, degree, static_cast<std::uint64_t>(31 * n + degree), reciprocity);
                for (const bool certificate : {false, true}) {
                    SCOPED_TRACE("n=" + std::to_string(n) + " reciprocity=" +
                                 std::to_string(reciprocity) + " degree=" +
                                 std::to_string(degree) +
                                 (certificate ? " certificate" : " plain"));
                    ConnectivityOptions options;
                    options.sample_fraction = 0.1;
                    options.min_sources = 4;
                    options.use_certificate = certificate;
                    TableReuseHook kappa_hook;
                    TableReuseHook lambda_hook;
                    options.reuse = &kappa_hook;
                    (void)connectivity_sweep(g, options, &lambda_hook);
                    for (const auto& s : kappa_hook.sorted_stores()) {
                        expect_witness_proves_value(g, true, s);
                        ++checked;
                    }
                    for (const auto& s : lambda_hook.sorted_stores()) {
                        expect_witness_proves_value(g, false, s);
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

// A min_sources floor above n is capped at n (std::clamp's bounds must not
// cross): every vertex is a source, for κ, λ and the sweep.
TEST(ConnectivitySweep, SourceFloorAboveOrderUsesEveryVertex) {
    for (const int n : {2, 3}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        graph::Digraph path(n);
        for (int v = 0; v + 1 < n; ++v) path.add_edge(v, v + 1);
        path.finalize();
        ConnectivityOptions options;
        options.sample_fraction = 0.01;
        options.min_sources = 4;
        EdgeConnectivityOptions lambda_options;
        lambda_options.sample_fraction = 0.01;
        lambda_options.min_sources = 4;
        EXPECT_EQ(vertex_connectivity(path, options).sources_used, n);
        EXPECT_EQ(edge_connectivity(path, lambda_options).sources_used, n);
        const ConnectivitySweepResult sweep = connectivity_sweep(path, options, nullptr);
        EXPECT_EQ(sweep.kappa.sources_used, n);
        EXPECT_EQ(sweep.lambda.sources_used, n);
    }
}

}  // namespace
}  // namespace kadsim::flow
