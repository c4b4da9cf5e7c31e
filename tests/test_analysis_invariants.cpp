// Analysis-layer invariants, property-tested across seeded graphs:
//   * Whitney's chain κ(u,v) ≤ λ(u,v) ≤ min(out_degree(u), in_degree(v))
//     per sampled pair;
//   * SCC fraction ∈ [0,1], largest-SCC size monotone under vertex deletion;
//   * articulation points matching an O(n·m) delete-and-recheck oracle;
//   * the metric suite's determinism (pool fan-out vs inline) and its
//     values on graphs with known structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/structure.h"
#include "exec/thread_pool.h"
#include "flow/edge_connectivity.h"
#include "flow/even_transform.h"
#include "flow/sampling.h"
#include "flow/vertex_connectivity.h"
#include "graph/certificate.h"
#include "graph/digraph.h"
#include "util/rng.h"

namespace kadsim::analysis {
namespace {

/// Kademlia-like connectivity graph: target out-degree `deg`, mostly
/// reciprocated edges (same shape as the micro-bench generator).
graph::Digraph kademlia_like_graph(int n, int deg, std::uint64_t seed) {
    util::Rng rng(seed);
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int j = 0; j < deg; ++j) {
            const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (v == u) continue;
            g.add_edge(u, v);
            if (rng.next_bool(0.9)) g.add_edge(v, u);
        }
    }
    g.finalize();
    return g;
}

/// The induced subgraph after deleting `removed` vertices (ids compacted in
/// ascending order of the survivors).
graph::Digraph without_vertices(const graph::Digraph& g,
                                const std::vector<bool>& removed) {
    const int n = g.vertex_count();
    std::vector<int> remap(static_cast<std::size_t>(n), -1);
    int kept = 0;
    for (int v = 0; v < n; ++v) {
        if (!removed[static_cast<std::size_t>(v)]) remap[static_cast<std::size_t>(v)] = kept++;
    }
    graph::Digraph sub(kept);
    for (int u = 0; u < n; ++u) {
        if (removed[static_cast<std::size_t>(u)]) continue;
        for (const int v : g.out(u)) {
            if (removed[static_cast<std::size_t>(v)]) continue;
            sub.add_edge(remap[static_cast<std::size_t>(u)],
                         remap[static_cast<std::size_t>(v)]);
        }
    }
    sub.finalize();
    return sub;
}

// Whitney's chain per sampled pair, across seeded graphs: for the same
// smallest-out-degree sources the analyzer uses, κ(u,v) ≤ λ(u,v) for every
// non-adjacent sink, and λ(u,v) ≤ min(out_degree(u), in_degree(v)) for every
// sink.
TEST(AnalysisInvariants, KappaLambdaDegreeChainPerSampledPair) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const int n = 18 + static_cast<int>(seed % 5);
        const graph::Digraph g = kademlia_like_graph(n, 3, seed);
        const std::vector<int> in_degrees = g.in_degrees();
        const flow::FlowNetwork even_net = flow::even_transform(g);
        flow::FlowWorkspace even_ws(even_net);
        const flow::FlowNetwork unit_net = flow::unit_capacity_network(g);
        flow::FlowWorkspace unit_ws(unit_net);

        const std::vector<int> sources =
            flow::pick_smallest_out_degree_sources(g, 0.25, 2);
        for (const int u : sources) {
            for (int v = 0; v < n; ++v) {
                if (v == u) continue;
                const int bound =
                    std::min(g.out_degree(u), in_degrees[static_cast<std::size_t>(v)]);
                const int lambda = flow::pair_edge_connectivity(g, unit_net, unit_ws, u, v);
                EXPECT_LE(lambda, bound)
                    << "seed " << seed << " pair (" << u << "," << v << ")";
                if (!g.has_edge(u, v)) {
                    const int kappa =
                        flow::pair_vertex_connectivity(g, even_net, even_ws, u, v);
                    EXPECT_LE(kappa, lambda)
                        << "seed " << seed << " pair (" << u << "," << v << ")";
                }
            }
        }
    }
}

// SCC fraction stays in [0,1] and the largest-SCC size never grows when a
// vertex is deleted (any strongly connected set of G−v is one of G).
TEST(AnalysisInvariants, LargestSccMonotoneUnderVertexDeletion) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        graph::Digraph g = kademlia_like_graph(16, 2, seed * 17);
        std::vector<bool> removed(16, false);
        int previous = largest_scc_size(g);
        for (int victim = 0; victim < 12; ++victim) {
            removed[static_cast<std::size_t>(victim)] = true;
            const graph::Digraph sub = without_vertices(g, removed);
            const int largest = largest_scc_size(sub);
            EXPECT_LE(largest, previous) << "seed " << seed << " victim " << victim;
            if (sub.vertex_count() > 0) {
                const double frac = static_cast<double>(largest) /
                                    static_cast<double>(sub.vertex_count());
                EXPECT_GE(frac, 0.0);
                EXPECT_LE(frac, 1.0);
                EXPECT_GT(largest, 0);  // a lone vertex is an SCC of size 1
            }
            previous = largest;
        }
    }
}

/// Oracle: weak components of the undirected projection among `alive`
/// vertices, by BFS (O(n+m) per call).
int weak_components(const graph::Digraph& g, int skip) {
    const int n = g.vertex_count();
    // Undirected adjacency via both directions of every edge.
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) {
        for (const int v : g.out(u)) {
            adj[static_cast<std::size_t>(u)].push_back(v);
            adj[static_cast<std::size_t>(v)].push_back(u);
        }
    }
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    int components = 0;
    for (int root = 0; root < n; ++root) {
        if (root == skip || seen[static_cast<std::size_t>(root)]) continue;
        ++components;
        std::vector<int> queue{root};
        seen[static_cast<std::size_t>(root)] = true;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            for (const int w : adj[static_cast<std::size_t>(queue[head])]) {
                if (w == skip || seen[static_cast<std::size_t>(w)]) continue;
                seen[static_cast<std::size_t>(w)] = true;
                queue.push_back(w);
            }
        }
    }
    return components;
}

// The iterative-Tarjan articulation set must equal the delete-and-recheck
// oracle: v is an articulation point iff removing it increases the weak
// component count.
TEST(AnalysisInvariants, ArticulationPointsMatchDeleteAndRecheckOracle) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const int n = 10 + static_cast<int>(seed % 6);
        // Sparse graphs (target out-degree 1) so cut vertices actually occur.
        const graph::Digraph g = kademlia_like_graph(n, 1, seed * 7);
        const UndirectedStructure s = undirected_structure(g);

        const int base_components = weak_components(g, /*skip=*/-1);
        EXPECT_EQ(s.components, base_components) << "seed " << seed;
        std::vector<int> oracle;
        for (int v = 0; v < n; ++v) {
            if (weak_components(g, v) > base_components) oracle.push_back(v);
        }
        EXPECT_EQ(s.articulation_points, oracle) << "seed " << seed;
    }
}

TEST(AnalysisInvariants, BridgesAndArticulationOnKnownShapes) {
    // Bidirectional path 0-1-2-3-4: every edge a bridge, interior vertices
    // articulation points.
    graph::Digraph path(5);
    for (int v = 0; v + 1 < 5; ++v) {
        path.add_edge(v, v + 1);
        path.add_edge(v + 1, v);
    }
    path.finalize();
    const UndirectedStructure ps = undirected_structure(path);
    EXPECT_EQ(ps.components, 1);
    EXPECT_EQ(ps.largest_component, 5);
    EXPECT_EQ(ps.bridge_count, 4);
    EXPECT_EQ(ps.articulation_points, (std::vector<int>{1, 2, 3}));

    // Bidirectional cycle: 2-edge-connected, no cut structure at all.
    graph::Digraph cycle(6);
    for (int v = 0; v < 6; ++v) {
        cycle.add_edge(v, (v + 1) % 6);
        cycle.add_edge((v + 1) % 6, v);
    }
    cycle.finalize();
    const UndirectedStructure cs = undirected_structure(cycle);
    EXPECT_EQ(cs.bridge_count, 0);
    EXPECT_TRUE(cs.articulation_points.empty());

    // Two triangles sharing vertex 2: exactly one articulation point, no
    // bridges, one component of 5.
    graph::Digraph bowtie(5);
    const int triangles[2][3] = {{0, 1, 2}, {2, 3, 4}};
    for (const auto& t : triangles) {
        for (int i = 0; i < 3; ++i) {
            bowtie.add_edge(t[i], t[(i + 1) % 3]);
            bowtie.add_edge(t[(i + 1) % 3], t[i]);
        }
    }
    bowtie.finalize();
    const UndirectedStructure bs = undirected_structure(bowtie);
    EXPECT_EQ(bs.components, 1);
    EXPECT_EQ(bs.largest_component, 5);
    EXPECT_EQ(bs.bridge_count, 0);
    EXPECT_EQ(bs.articulation_points, (std::vector<int>{2}));
}

// The metric suite and λ on a graph with known structure, inline vs pool
// fan-out: identical values either way (the determinism contract).
TEST(AnalysisInvariants, MetricSuiteDeterministicAcrossExecutionModes) {
    // Bidirectional ring of 12 with a pendant vertex 12 attached to node 0:
    // one cut vertex (0), one bridge ({0,12}), λ_min = 1 via the pendant.
    graph::Digraph g(13);
    for (int v = 0; v < 12; ++v) {
        g.add_edge(v, (v + 1) % 12);
        g.add_edge((v + 1) % 12, v);
    }
    g.add_edge(0, 12);
    g.add_edge(12, 0);
    g.finalize();

    const MetricContext inline_context{g, 1.0, 1, nullptr};
    const ResilienceMetrics inline_metrics = run_metrics(inline_context);
    const flow::EdgeConnectivityResult inline_lambda = flow::edge_connectivity(g);
    EXPECT_EQ(inline_lambda.lambda_min, 1);    // pendant severed by one edge
    EXPECT_EQ(inline_metrics.scc_count, 1);
    EXPECT_DOUBLE_EQ(inline_metrics.scc_frac, 1.0);
    EXPECT_DOUBLE_EQ(inline_metrics.wcc_frac, 1.0);
    EXPECT_EQ(inline_metrics.articulation_points, 1);  // vertex 0
    EXPECT_EQ(inline_metrics.bridges, 1);              // edge {0,12}
    EXPECT_EQ(inline_metrics.out_degree_min, 1);
    EXPECT_EQ(inline_metrics.in_degree_min, 1);

    exec::ThreadPool pool(3);
    const MetricContext pooled_context{g, 1.0, 1, &pool};
    const ResilienceMetrics pooled = run_metrics(pooled_context);
    flow::EdgeConnectivityOptions pooled_options;
    pooled_options.pool = &pool;
    const flow::EdgeConnectivityResult pooled_lambda =
        flow::edge_connectivity(g, pooled_options);
    EXPECT_EQ(pooled.scc_count, inline_metrics.scc_count);
    EXPECT_EQ(pooled_lambda.lambda_min, inline_lambda.lambda_min);
    EXPECT_DOUBLE_EQ(pooled_lambda.lambda_avg, inline_lambda.lambda_avg);
    EXPECT_DOUBLE_EQ(pooled.scc_frac, inline_metrics.scc_frac);
    EXPECT_DOUBLE_EQ(pooled.wcc_frac, inline_metrics.wcc_frac);
    EXPECT_EQ(pooled.articulation_points, inline_metrics.articulation_points);
    EXPECT_EQ(pooled.bridges, inline_metrics.bridges);
    EXPECT_EQ(pooled.out_degree_min, inline_metrics.out_degree_min);
    EXPECT_EQ(pooled.in_degree_min, inline_metrics.in_degree_min);
}

// Whitney's chain survives certificate preprocessing: on the sparse
// certificate built at the kernels' order rule (k above every sampled pair's
// degree cap), κ_cert(u,v) ≤ λ_cert(u,v) ≤ min(out_degree(u), in_degree(v))
// still holds against the *original* graph's degree bounds — the certificate
// never pushes a pair above its full-graph cap — and the certificate's core
// stays within the Nagamochi–Ibaraki edge budget k·n.
TEST(AnalysisInvariants, KappaLambdaDegreeChainOnCertificateGraphs) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const int n = 14 + static_cast<int>(seed % 7);
        const graph::Digraph g = kademlia_like_graph(n, 3, seed * 131);
        const std::vector<int> in_degrees = g.in_degrees();
        const std::vector<int> sources =
            flow::pick_smallest_out_degree_sources(g, 0.25, 2);

        // The kernels' certificate order: strictly above every sampled
        // source's out-degree, hence above every sampled pair's cap.
        int k = 1;
        for (const int u : sources) k = std::max(k, g.out_degree(u) + 1);
        const graph::SparseCertificate cert = graph::build_certificate(g, k);
        EXPECT_LE(cert.core_edges_kept,
                  static_cast<std::int64_t>(k) * static_cast<std::int64_t>(n))
            << "seed " << seed;

        const graph::Digraph& h = cert.graph;
        const flow::FlowNetwork even_net = flow::even_transform(h);
        flow::FlowWorkspace even_ws(even_net);
        const flow::FlowNetwork unit_net = flow::unit_capacity_network(h);
        flow::FlowWorkspace unit_ws(unit_net);

        for (const int u : sources) {
            for (int v = 0; v < n; ++v) {
                if (v == u) continue;
                const int bound = std::min(
                    g.out_degree(u), in_degrees[static_cast<std::size_t>(v)]);
                const int lambda =
                    flow::pair_edge_connectivity(h, unit_net, unit_ws, u, v);
                EXPECT_LE(lambda, bound)
                    << "seed " << seed << " pair (" << u << "," << v << ")";
                if (!g.has_edge(u, v)) {
                    const int kappa = flow::pair_vertex_connectivity(
                        h, even_net, even_ws, u, v);
                    EXPECT_LE(kappa, lambda)
                        << "seed " << seed << " pair (" << u << "," << v << ")";
                }
            }
        }
    }
}

// Fragmented graph: the fractions see the pieces, κ/λ are 0.
TEST(AnalysisInvariants, FragmentedGraphFractions) {
    // Two bidirectional triangles, no connection between them, plus an
    // isolated vertex: largest SCC/WCC = 3 of 7.
    graph::Digraph g(7);
    const int triangles[2][3] = {{0, 1, 2}, {3, 4, 5}};
    for (const auto& t : triangles) {
        for (int i = 0; i < 3; ++i) {
            g.add_edge(t[i], t[(i + 1) % 3]);
            g.add_edge(t[(i + 1) % 3], t[i]);
        }
    }
    g.finalize();
    const MetricContext context{g, 1.0, 1, nullptr};
    const ResilienceMetrics m = run_metrics(context);
    EXPECT_EQ(flow::edge_connectivity(g).lambda_min, 0);
    EXPECT_EQ(m.scc_count, 3);  // two triangles plus the isolated vertex
    EXPECT_NEAR(m.scc_frac, 3.0 / 7.0, 1e-12);
    EXPECT_NEAR(m.wcc_frac, 3.0 / 7.0, 1e-12);
    EXPECT_EQ(m.out_degree_min, 0);  // the isolated vertex
    EXPECT_EQ(m.in_degree_min, 0);
}

}  // namespace
}  // namespace kadsim::analysis
