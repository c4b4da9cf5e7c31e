// Edge connectivity λ: randomized differential testing of the unit-capacity
// kernel (degree-capped, path-seeded Dinic over a reused touched-arc-reset
// workspace) against a brute-force min-edge-cut oracle, plus workspace-reuse
// purity (fresh vs reused workspace bit-identical) and lane-count invariance
// of the pooled (source, sink block) sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "connectivity_oracles.h"
#include "exec/thread_pool.h"
#include "flow/edge_connectivity.h"
#include "graph/digraph.h"
#include "sweep_fixtures.h"

namespace kadsim::flow {
namespace {

using test_support::kademlia_like_graph;
using test_support::pair_edge_connectivity;
using test_support::pair_edge_connectivity_bruteforce;
using test_support::TableReuseHook;

// 100 seeded graphs: every ordered pair must agree between the kernel's
// seeded+capped path (exercised through edge_connectivity at
// sample_fraction 1.0, whose min/sum aggregate every pair) and the
// brute-force min-edge-cut oracle.
TEST(EdgeConnectivityDifferential, SampledKernelVsBruteforceMinCutOracle) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const int n = 6 + static_cast<int>(seed % 4);  // 6..9
        const graph::Digraph g = kademlia_like_graph(n, 2, seed);

        int oracle_min = std::numeric_limits<int>::max();
        std::uint64_t oracle_sum = 0;
        std::uint64_t oracle_pairs = 0;
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u == v) continue;
                const int lambda = pair_edge_connectivity_bruteforce(g, u, v);
                oracle_min = std::min(oracle_min, lambda);
                oracle_sum += static_cast<std::uint64_t>(lambda);
                ++oracle_pairs;
            }
        }

        const EdgeConnectivityResult r = edge_connectivity(g);
        EXPECT_EQ(r.lambda_min, oracle_min) << "seed " << seed;
        EXPECT_EQ(r.lambda_sum, oracle_sum) << "seed " << seed;
        EXPECT_EQ(r.pairs_evaluated, oracle_pairs) << "seed " << seed;
    }
}

// The per-pair oracle (no seeding, uncapped Dinic on a reused workspace)
// must agree with the brute force too — the purity test below and the
// certificate and invariant tests lean on it.
TEST(EdgeConnectivityDifferential, PairSolverVsBruteforce) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        const int n = 6 + static_cast<int>(seed % 4);
        const graph::Digraph g = kademlia_like_graph(n, 2, seed * 31);
        const FlowNetwork net = unit_capacity_network(g);
        FlowWorkspace reused(net);
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u == v) continue;
                EXPECT_EQ(pair_edge_connectivity(g, net, reused, u, v),
                          pair_edge_connectivity_bruteforce(g, u, v))
                    << "seed " << seed << " pair (" << u << "," << v << ")";
            }
        }
    }
}

// Reusing one workspace across pairs must be pure: recomputing a pair after
// arbitrary interleaved work gives the same λ as a fresh workspace, and a
// reset leaves every arc at its as-built capacity.
TEST(EdgeConnectivityPurity, ReuseAcrossPairsMatchesFreshWorkspace) {
    const graph::Digraph g = kademlia_like_graph(12, 3, 42);
    const FlowNetwork net = unit_capacity_network(g);
    FlowWorkspace reused(net);
    std::vector<std::pair<int, int>> pairs;
    for (int u = 0; u < g.vertex_count(); ++u) {
        for (int v = 0; v < g.vertex_count(); ++v) {
            if (u != v) pairs.emplace_back(u, v);
        }
    }

    // First sweep on the reused workspace.
    std::vector<int> first;
    for (const auto& [u, v] : pairs) {
        first.push_back(pair_edge_connectivity(g, net, reused, u, v));
    }
    // Second sweep in reverse order: every value must replay identically.
    for (std::size_t i = pairs.size(); i-- > 0;) {
        const auto [u, v] = pairs[i];
        EXPECT_EQ(pair_edge_connectivity(g, net, reused, u, v), first[i])
            << "pair (" << u << "," << v << ") not pure under reuse";
    }
    // And against fresh workspaces (the convenience overload).
    for (std::size_t i = 0; i < pairs.size(); i += 7) {
        const auto [u, v] = pairs[i];
        EXPECT_EQ(pair_edge_connectivity(g, u, v), first[i]);
    }
    // After a final reset, the residual capacities are exactly as built.
    reused.reset();
    for (int a = 0; a < net.arc_count(); ++a) {
        ASSERT_EQ(reused.cap(a), net.original_cap(a)) << "arc " << a;
    }
}

// The unit-capacity network honours the documented arc-id contract: the arc
// of connectivity-graph edge j is 2j, heads match the CSR targets.
TEST(EdgeConnectivityNetwork, ArcIdContract) {
    const graph::Digraph g = kademlia_like_graph(10, 3, 7);
    const FlowNetwork net = unit_capacity_network(g);
    EXPECT_EQ(net.vertex_count(), g.vertex_count());
    EXPECT_EQ(net.arc_count(), 2 * g.edge_count());
    for (int u = 0; u < g.vertex_count(); ++u) {
        const auto out = g.out(u);
        const std::int64_t offset = g.edge_offset(u);
        for (std::size_t i = 0; i < out.size(); ++i) {
            const int arc = static_cast<int>(2 * (offset + static_cast<std::int64_t>(i)));
            EXPECT_EQ(net.arc_to(arc), out[i]);
            EXPECT_EQ(net.original_cap(arc), 1);
            EXPECT_EQ(net.arc_to(arc ^ 1), u);
            EXPECT_EQ(net.original_cap(arc ^ 1), 0);
        }
    }
}

void expect_same_sweep(const EdgeConnectivityResult& a,
                       const EdgeConnectivityResult& b) {
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.lambda_min, b.lambda_min);
    EXPECT_EQ(a.lambda_avg, b.lambda_avg);
    EXPECT_EQ(a.lambda_sum, b.lambda_sum);
    EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
    EXPECT_EQ(a.pairs_skipped, b.pairs_skipped);
    EXPECT_EQ(a.flows_capped, b.flows_capped);
    EXPECT_EQ(a.pairs_reused, b.pairs_reused);
    EXPECT_EQ(a.sources_used, b.sources_used);
    EXPECT_EQ(a.complete, b.complete);
}

// The pooled sweep hands out (source, 64-sink block) items, so at these n
// — straddling the block edges — one source's sinks are split over lanes.
// Every field must equal the inline sweep's on pools of 1/2/3/7 workers,
// with and without a reuse hook, and the hook must receive the same stores.
TEST(EdgeConnectivityExecution, PooledMatchesInline) {
    for (const int n : {2, 63, 64, 65, 130, 300}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        // At n = 2 a single edge keeps the graph non-complete (a complete
        // graph short-circuits the sweep).
        graph::Digraph two(2);
        two.add_edge(0, 1);
        two.finalize();
        const graph::Digraph g =
            n == 2 ? two : kademlia_like_graph(n, 4, static_cast<std::uint64_t>(n));
        EdgeConnectivityOptions options;
        // Four sources at every n, as few as a c = 0.02 sample yields.
        options.sample_fraction = 0.01;
        options.min_sources = 4;
        // An inline run records the stores; the checked sweeps then reuse
        // every third of them and recompute the rest.
        TableReuseHook recorder;
        options.reuse = &recorder;
        (void)edge_connectivity(g, options);
        const auto table = recorder.every_third_store();
        for (const bool with_hook : {false, true}) {
            SCOPED_TRACE(with_hook ? "with hook" : "no hook");
            TableReuseHook inline_hook(table);
            options.pool = nullptr;
            options.reuse = with_hook ? &inline_hook : nullptr;
            const EdgeConnectivityResult expected = edge_connectivity(g, options);
            if (with_hook && n > 2) {
                EXPECT_GT(expected.pairs_reused, 0u);
            }
            for (const int workers : {1, 2, 3, 7}) {
                SCOPED_TRACE("workers=" + std::to_string(workers));
                exec::ThreadPool pool(workers);
                TableReuseHook hook(table);
                options.pool = &pool;
                options.reuse = with_hook ? &hook : nullptr;
                expect_same_sweep(expected, edge_connectivity(g, options));
                EXPECT_EQ(hook.sorted_stores(), inline_hook.sorted_stores());
            }
        }
    }
}

TEST(EdgeConnectivityEdgeCases, TrivialAndCompleteGraphs) {
    graph::Digraph empty(0);
    empty.finalize();
    EXPECT_EQ(edge_connectivity(empty).lambda_min, 0);

    graph::Digraph single(1);
    single.finalize();
    EXPECT_TRUE(edge_connectivity(single).complete);

    graph::Digraph complete(5);
    for (int u = 0; u < 5; ++u) {
        for (int v = 0; v < 5; ++v) {
            if (u != v) complete.add_edge(u, v);
        }
    }
    complete.finalize();
    const EdgeConnectivityResult r = edge_connectivity(complete);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.lambda_min, 4);
    EXPECT_DOUBLE_EQ(r.lambda_avg, 4.0);
}

}  // namespace
}  // namespace kadsim::flow
