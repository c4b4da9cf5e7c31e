// Vertex connectivity κ: known graphs, brute-force oracle, sampling
// soundness (paper §4.4 and §5.2), and lane-count invariance of the pooled
// (source, sink block) sweep.
#include <gtest/gtest.h>

#include <string>

#include "exec/thread_pool.h"
#include "flow/vertex_connectivity.h"
#include "graph/digraph.h"
#include "sweep_fixtures.h"
#include "util/rng.h"

namespace kadsim::flow {
namespace {

graph::Digraph complete_graph(int n) {
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v) g.add_edge(u, v);
        }
    }
    g.finalize();
    return g;
}

graph::Digraph undirected_cycle(int n) {
    graph::Digraph g(n);
    for (int i = 0; i < n; ++i) {
        g.add_edge(i, (i + 1) % n);
        g.add_edge((i + 1) % n, i);
    }
    g.finalize();
    return g;
}

graph::Digraph hypercube(int d) {
    const int n = 1 << d;
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int bit = 0; bit < d; ++bit) g.add_edge(u, u ^ (1 << bit));
    }
    g.finalize();
    return g;
}

graph::Digraph petersen() {
    graph::Digraph g(10);
    auto und = [&g](int u, int v) {
        g.add_edge(u, v);
        g.add_edge(v, u);
    };
    for (int i = 0; i < 5; ++i) und(i, (i + 1) % 5);        // outer cycle
    for (int i = 0; i < 5; ++i) und(i, i + 5);              // spokes
    for (int i = 0; i < 5; ++i) und(5 + i, 5 + (i + 2) % 5);  // pentagram
    g.finalize();
    return g;
}

TEST(VertexConnectivity, CompleteGraphShortcut) {
    for (const int n : {2, 3, 5, 8}) {
        const auto r = vertex_connectivity(complete_graph(n));
        EXPECT_TRUE(r.complete);
        EXPECT_EQ(r.kappa_min, n - 1);
        EXPECT_DOUBLE_EQ(r.kappa_avg, n - 1);
        EXPECT_EQ(r.pairs_evaluated, 0u);
    }
}

TEST(VertexConnectivity, TrivialGraphs) {
    graph::Digraph empty(0);
    empty.finalize();
    EXPECT_EQ(vertex_connectivity(empty).kappa_min, 0);

    graph::Digraph one(1);
    one.finalize();
    const auto r = vertex_connectivity(one);
    EXPECT_EQ(r.kappa_min, 0);
    EXPECT_TRUE(r.complete);
}

TEST(VertexConnectivity, UndirectedCycleIsTwoConnected) {
    for (const int n : {4, 5, 8, 12}) {
        const auto r = vertex_connectivity(undirected_cycle(n));
        EXPECT_EQ(r.kappa_min, 2) << "n=" << n;
    }
}

TEST(VertexConnectivity, DirectedCycleIsOneConnected) {
    graph::Digraph g(5);
    for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
    g.finalize();
    EXPECT_EQ(vertex_connectivity(g).kappa_min, 1);
}

TEST(VertexConnectivity, PathGraphIsNotStronglyConnected) {
    graph::Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.finalize();
    EXPECT_EQ(vertex_connectivity(g).kappa_min, 0);
}

class HypercubeTest : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeTest, KappaEqualsDimension) {
    const int d = GetParam();
    const auto r = vertex_connectivity(hypercube(d));
    EXPECT_EQ(r.kappa_min, d);
}

INSTANTIATE_TEST_SUITE_P(Dims, HypercubeTest, ::testing::Values(2, 3, 4));

TEST(VertexConnectivity, PetersenGraphIsThreeConnected) {
    EXPECT_EQ(vertex_connectivity(petersen()).kappa_min, 3);
}

TEST(VertexConnectivity, StarGraphCutVertex) {
    // Star: hub 0, leaves 1..5 (undirected): κ = 1 (remove the hub).
    graph::Digraph g(6);
    for (int leaf = 1; leaf < 6; ++leaf) {
        g.add_edge(0, leaf);
        g.add_edge(leaf, 0);
    }
    g.finalize();
    EXPECT_EQ(vertex_connectivity(g).kappa_min, 1);
}

TEST(VertexConnectivity, PairIsDirectional) {
    // 0→1→2 plus 2→0: κ(0,2)=1 but κ(2,1) uses the only path 2→0→1.
    graph::Digraph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    g.finalize();
    EXPECT_EQ(pair_vertex_connectivity(g, 0, 2), 1);
    EXPECT_EQ(pair_vertex_connectivity(g, 2, 1), 1);
}

TEST(VertexConnectivity, BruteForceOracleOnRandomGraphs) {
    util::Rng rng(42);
    for (int trial = 0; trial < 30; ++trial) {
        const int n = 5 + static_cast<int>(rng.next_below(3));  // 5..7
        graph::Digraph g(n);
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u != v && rng.next_bool(0.45)) g.add_edge(u, v);
            }
        }
        g.finalize();
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u == v || g.has_edge(u, v)) continue;
                EXPECT_EQ(pair_vertex_connectivity(g, u, v),
                          pair_vertex_connectivity_bruteforce(g, u, v))
                    << "trial " << trial << " pair (" << u << "," << v << ")";
            }
        }
    }
}

TEST(VertexConnectivity, ExactEqualsMinOverAllPairs) {
    util::Rng rng(43);
    graph::Digraph g(12);
    for (int u = 0; u < 12; ++u) {
        for (int v = 0; v < 12; ++v) {
            if (u != v && rng.next_bool(0.4)) g.add_edge(u, v);
        }
    }
    g.finalize();
    const auto r = vertex_connectivity(g);
    int expected = 12;
    for (int u = 0; u < 12; ++u) {
        for (int v = 0; v < 12; ++v) {
            if (u == v || g.has_edge(u, v)) continue;
            expected = std::min(expected, pair_vertex_connectivity(g, u, v));
        }
    }
    EXPECT_EQ(r.kappa_min, expected);
}

TEST(VertexConnectivity, SampledNeverBelowExactAndC1IsExact) {
    util::Rng rng(44);
    for (int trial = 0; trial < 10; ++trial) {
        graph::Digraph g(16);
        for (int u = 0; u < 16; ++u) {
            for (int v = u + 1; v < 16; ++v) {
                if (rng.next_bool(0.3)) {
                    g.add_edge(u, v);
                    g.add_edge(v, u);
                }
            }
        }
        g.finalize();
        const auto exact = vertex_connectivity(g);
        ConnectivityOptions sampled_opts;
        sampled_opts.sample_fraction = 0.25;
        sampled_opts.min_sources = 2;
        const auto sampled = vertex_connectivity(g, sampled_opts);
        EXPECT_GE(sampled.kappa_min, exact.kappa_min);
        EXPECT_LE(sampled.pairs_evaluated, exact.pairs_evaluated);
    }
}

TEST(VertexConnectivity, SmallestOutDegreeSamplingFindsMinimumOnNearUndirected) {
    // A 3-regular-ish undirected graph with one weakly attached vertex: the
    // lowest-out-degree source pins the minimum, which is the paper's §5.2
    // sampling argument.
    graph::Digraph g = hypercube(3);  // κ = 3
    // Rebuild with an extra vertex 8 attached to only vertex 0.
    graph::Digraph h(9);
    for (int u = 0; u < 8; ++u) {
        for (const int v : g.out(u)) h.add_edge(u, v);
    }
    h.add_edge(8, 0);
    h.add_edge(0, 8);
    h.finalize();

    ConnectivityOptions opts;
    opts.sample_fraction = 0.10;  // ceil(0.9) = exactly one source: vertex 8
    opts.min_sources = 1;
    const auto sampled = vertex_connectivity(h, opts);
    EXPECT_EQ(sampled.sources_used, 1);
    EXPECT_EQ(sampled.kappa_min, 1);
    EXPECT_EQ(vertex_connectivity(h).kappa_min, 1);
}

TEST(VertexConnectivity, PoolIsReusableAcrossSnapshots) {
    // The experiment pipeline hands the same pool to every snapshot's
    // analysis; three consecutive computations must agree with inline runs.
    exec::ThreadPool pool(3);
    util::Rng rng(47);
    for (int round = 0; round < 3; ++round) {
        graph::Digraph g(18);
        for (int u = 0; u < 18; ++u) {
            for (int v = 0; v < 18; ++v) {
                if (u != v && rng.next_bool(0.3)) g.add_edge(u, v);
            }
        }
        g.finalize();
        ConnectivityOptions pooled_opts;
        pooled_opts.pool = &pool;
        const auto pooled = vertex_connectivity(g, pooled_opts);
        const auto inline_result = vertex_connectivity(g);
        EXPECT_EQ(pooled.kappa_min, inline_result.kappa_min) << "round " << round;
        EXPECT_EQ(pooled.kappa_sum, inline_result.kappa_sum) << "round " << round;
    }
}

void expect_same_sweep(const ConnectivityResult& a, const ConnectivityResult& b) {
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.kappa_min, b.kappa_min);
    EXPECT_EQ(a.kappa_avg, b.kappa_avg);
    EXPECT_EQ(a.kappa_sum, b.kappa_sum);
    EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
    EXPECT_EQ(a.pairs_skipped, b.pairs_skipped);
    EXPECT_EQ(a.flows_capped, b.flows_capped);
    EXPECT_EQ(a.arcs_touched, b.arcs_touched);
    EXPECT_EQ(a.full_resets_avoided, b.full_resets_avoided);
    EXPECT_EQ(a.pairs_reused, b.pairs_reused);
    EXPECT_EQ(a.sources_used, b.sources_used);
    EXPECT_EQ(a.complete, b.complete);
}

// The pooled sweep hands out (source, 64-sink block) items, so at these n
// — straddling the block edges — one source's sinks are split over lanes.
// Every field must equal the inline sweep's on pools of 1/2/3/7 workers,
// with and without a reuse hook, and the hook must receive the same stores.
TEST(VertexConnectivity, PooledMatchesInline) {
    for (const int n : {2, 63, 64, 65, 130, 300}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        // At n = 2 a single edge keeps the graph non-complete (a complete
        // graph short-circuits the sweep).
        graph::Digraph two(2);
        two.add_edge(0, 1);
        two.finalize();
        const graph::Digraph g =
            n == 2 ? two
                   : test_support::kademlia_like_graph(n, 4,
                                                       static_cast<std::uint64_t>(n));
        ConnectivityOptions options;
        // Four sources at every n, as few as a c = 0.02 sample yields.
        options.sample_fraction = 0.01;
        options.min_sources = 4;
        // An inline run records the stores; the checked sweeps then reuse
        // every third of them and recompute the rest.
        test_support::TableReuseHook recorder;
        options.reuse = &recorder;
        (void)vertex_connectivity(g, options);
        const auto table = recorder.every_third_store();
        for (const bool with_hook : {false, true}) {
            SCOPED_TRACE(with_hook ? "with hook" : "no hook");
            test_support::TableReuseHook inline_hook(table);
            options.pool = nullptr;
            options.reuse = with_hook ? &inline_hook : nullptr;
            const ConnectivityResult expected = vertex_connectivity(g, options);
            if (with_hook && n > 2) {
                EXPECT_GT(expected.pairs_reused, 0u);
            }
            for (const int workers : {1, 2, 3, 7}) {
                SCOPED_TRACE("workers=" + std::to_string(workers));
                exec::ThreadPool pool(workers);
                test_support::TableReuseHook hook(table);
                options.pool = &pool;
                options.reuse = with_hook ? &hook : nullptr;
                expect_same_sweep(expected, vertex_connectivity(g, options));
                EXPECT_EQ(hook.sorted_stores(), inline_hook.sorted_stores());
            }
        }
    }
}

TEST(VertexConnectivity, PushRelabelBackendMatchesDinic) {
    util::Rng rng(46);
    graph::Digraph g(14);
    for (int u = 0; u < 14; ++u) {
        for (int v = 0; v < 14; ++v) {
            if (u != v && rng.next_bool(0.3)) g.add_edge(u, v);
        }
    }
    g.finalize();
    ConnectivityOptions dinic_opts;
    ConnectivityOptions pr_opts;
    pr_opts.use_push_relabel = true;
    const auto a = vertex_connectivity(g, dinic_opts);
    const auto b = vertex_connectivity(g, pr_opts);
    EXPECT_EQ(a.kappa_min, b.kappa_min);
    EXPECT_EQ(a.kappa_sum, b.kappa_sum);
}

TEST(VertexConnectivity, DisconnectedGraphHasKappaZero) {
    graph::Digraph g(6);
    g.add_edge(0, 1);
    g.add_edge(1, 0);
    g.add_edge(2, 3);
    g.add_edge(3, 2);
    g.finalize();
    EXPECT_EQ(vertex_connectivity(g).kappa_min, 0);
}

TEST(VertexConnectivity, SourceCountIsCeilOfFractionTimesN) {
    // Regression for the old `fraction * n + 0.999` hack, which under-counts
    // ⌈fraction·n⌉ whenever the product lands just above an integer (its
    // fractional part in (0, 0.001)): with n = 20 and fraction = 0.050001,
    // ⌈1.00002⌉ = 2 but the hack truncated 1.99902 down to 1.
    graph::Digraph g = undirected_cycle(20);
    ConnectivityOptions opts;
    opts.min_sources = 1;

    opts.sample_fraction = 0.050001;
    EXPECT_EQ(vertex_connectivity(g, opts).sources_used, 2);

    // Exact multiples keep their exact count (0.25 and 0.5 are dyadic, so
    // fraction * n is computed without rounding noise).
    opts.sample_fraction = 0.25;
    EXPECT_EQ(vertex_connectivity(g, opts).sources_used, 5);
    opts.sample_fraction = 0.5;
    EXPECT_EQ(vertex_connectivity(g, opts).sources_used, 10);

    // Just below a multiple still rounds up to it.
    opts.sample_fraction = 0.2499;
    EXPECT_EQ(vertex_connectivity(g, opts).sources_used, 5);

    // The paper's c = 0.02 at both paper network sizes: 0.02·250 and
    // 0.02·2500 stay exactly 5 and 50 in IEEE doubles, so the published
    // sampling configuration is unchanged by the ceil fix.
    graph::Digraph big(250);
    for (int i = 0; i < 250; ++i) {
        big.add_edge(i, (i + 1) % 250);
        big.add_edge((i + 1) % 250, i);
    }
    big.finalize();
    opts.sample_fraction = 0.02;
    EXPECT_EQ(vertex_connectivity(big, opts).sources_used, 5);
}

TEST(VertexConnectivity, DegreeBoundSkipsZeroBoundPairsWithoutFlows) {
    // Vertex 3 has no outgoing edges: every (3, v) pair has bound 0 and must
    // be settled as κ = 0 without a max-flow run; every v also loses its
    // (v, 3) pairs to the in-degree side of the bound.
    graph::Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    g.finalize();

    const auto r = vertex_connectivity(g);
    EXPECT_EQ(r.kappa_min, 0);
    EXPECT_GT(r.pairs_skipped, 0u);
    // Skipped pairs are still evaluated pairs (their κ = 0 is exact).
    EXPECT_LE(r.pairs_skipped, r.pairs_evaluated);
}

TEST(VertexConnectivity, DegreeBoundCapRecordsEarlyStopsAndStaysExact) {
    // On an undirected cycle every κ(u,v) = 2 = min degree, so every Dinic
    // run hits its bound: all flows are capped and the values stay exact.
    graph::Digraph cyc = undirected_cycle(8);
    const auto r = vertex_connectivity(cyc);
    EXPECT_EQ(r.kappa_min, 2);
    EXPECT_EQ(r.flows_capped, r.pairs_evaluated);
    EXPECT_EQ(r.pairs_skipped, 0u);

    // Cross-check against the cap-free push-relabel backend on irregular
    // random graphs: identical κ aggregates, counters only on the Dinic side.
    util::Rng rng(46);
    for (int trial = 0; trial < 5; ++trial) {
        graph::Digraph g(14);
        for (int u = 0; u < 14; ++u) {
            for (int v = 0; v < 14; ++v) {
                if (u != v && rng.next_bool(0.3)) g.add_edge(u, v);
            }
        }
        g.finalize();
        const auto dinic = vertex_connectivity(g);
        ConnectivityOptions pr;
        pr.use_push_relabel = true;
        const auto hipr = vertex_connectivity(g, pr);
        EXPECT_EQ(dinic.kappa_min, hipr.kappa_min);
        EXPECT_EQ(dinic.kappa_sum, hipr.kappa_sum);
        EXPECT_EQ(dinic.pairs_evaluated, hipr.pairs_evaluated);
        EXPECT_EQ(hipr.flows_capped, 0u);
        EXPECT_EQ(dinic.pairs_skipped, hipr.pairs_skipped);
    }
}

}  // namespace
}  // namespace kadsim::flow
