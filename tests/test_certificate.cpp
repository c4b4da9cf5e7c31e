// graph::build_certificate — the Nagamochi–Ibaraki sparse certificate the
// flow kernels run on under use_certificate.
//
// Three layers of pinning:
//   * structural properties of the certificate itself (subgraph, edge
//     budget ≤ k·(n−1), every asymmetric arc kept, determinism);
//   * the certificate theorem per pair: κ/λ preserved exactly whenever the
//     pair's degree cap is below the certificate order k;
//   * the kernel-level differential across 200 seeds: vertex_connectivity /
//     edge_connectivity with use_certificate on vs off are bit-identical in
//     every reported aggregate — the property the analyzer's golden-series
//     pinning ultimately rests on — and thread-count independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "connectivity_oracles.h"
#include "exec/thread_pool.h"
#include "flow/edge_connectivity.h"
#include "flow/even_transform.h"
#include "flow/vertex_connectivity.h"
#include "graph/certificate.h"
#include "graph/digraph.h"
#include "util/rng.h"

namespace kadsim {
namespace {

/// Kademlia-like connectivity graph: target out-degree `deg`, mostly
/// reciprocated edges (the §5.2 shape the certificate is designed for).
graph::Digraph kademlia_like_graph(int n, int deg, std::uint64_t seed) {
    util::Rng rng(seed);
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int j = 0; j < deg; ++j) {
            const int v =
                static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (v == u) continue;
            g.add_edge(u, v);
            if (rng.next_bool(0.9)) g.add_edge(v, u);
        }
    }
    g.finalize();
    return g;
}

TEST(Certificate, SubgraphEdgeBudgetAndAsymmetricRetention) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        const int n = 16 + static_cast<int>(seed % 9);
        const graph::Digraph g = kademlia_like_graph(n, 4, seed * 31);
        for (const int k : {1, 2, 3, 5}) {
            const graph::SparseCertificate cert = graph::build_certificate(g, k);
            EXPECT_EQ(cert.k, k);
            EXPECT_EQ(cert.graph.vertex_count(), n);
            EXPECT_LE(cert.core_edges_kept,
                      static_cast<std::int64_t>(k) * (n - 1));
            EXPECT_LE(cert.core_edges_kept, cert.core_edges);
            EXPECT_LE(cert.graph.edge_count(),
                      2 * cert.core_edges_kept + cert.asymmetric_arcs);

            std::int64_t asymmetric = 0;
            for (int u = 0; u < n; ++u) {
                for (const int v : g.out(u)) {
                    if (g.has_edge(v, u)) continue;
                    ++asymmetric;
                    // Every non-reciprocated arc survives unconditionally.
                    EXPECT_TRUE(cert.graph.has_edge(u, v))
                        << "seed " << seed << " k " << k << " arc " << u << "->"
                        << v;
                }
                // Subgraph: the certificate never invents arcs.
                for (const int v : cert.graph.out(u)) {
                    EXPECT_TRUE(g.has_edge(u, v))
                        << "seed " << seed << " k " << k << " arc " << u << "->"
                        << v;
                }
            }
            EXPECT_EQ(cert.asymmetric_arcs, asymmetric);
        }
    }
}

TEST(Certificate, LargeOrderKeepsEveryArc) {
    const graph::Digraph g = kademlia_like_graph(20, 3, 404);
    const graph::SparseCertificate cert =
        graph::build_certificate(g, g.vertex_count());
    EXPECT_EQ(cert.graph.edge_count(), g.edge_count());
    EXPECT_EQ(cert.core_edges_kept, cert.core_edges);
}

TEST(Certificate, DeterministicForSameInput) {
    const graph::Digraph g = kademlia_like_graph(22, 4, 99);
    const graph::SparseCertificate a = graph::build_certificate(g, 3);
    const graph::SparseCertificate b = graph::build_certificate(g, 3);
    ASSERT_EQ(a.graph.edge_count(), b.graph.edge_count());
    EXPECT_EQ(a.core_edges_kept, b.core_edges_kept);
    for (int u = 0; u < a.graph.vertex_count(); ++u) {
        const auto ra = a.graph.out(u);
        const auto rb = b.graph.out(u);
        ASSERT_EQ(ra.size(), rb.size());
        EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin()));
    }
}

// The certificate theorem, per pair: for every pair whose degree cap
// min(out_degree(u), in_degree(v)) is < k, κ and λ in the certificate equal
// the full-graph values exactly.
TEST(Certificate, PreservesKappaAndLambdaBelowOrder) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const int n = 12 + static_cast<int>(seed % 5);
        const graph::Digraph g = kademlia_like_graph(n, 3, seed * 1009);
        const std::vector<int> in_g = g.in_degrees();
        for (const int k : {2, 4}) {
            const graph::SparseCertificate cert = graph::build_certificate(g, k);
            const graph::Digraph& h = cert.graph;

            const flow::FlowNetwork even_g = flow::even_transform(g);
            flow::FlowWorkspace ws_even_g(even_g);
            const flow::FlowNetwork even_h = flow::even_transform(h);
            flow::FlowWorkspace ws_even_h(even_h);
            const flow::FlowNetwork unit_g = flow::unit_capacity_network(g);
            flow::FlowWorkspace ws_unit_g(unit_g);
            const flow::FlowNetwork unit_h = flow::unit_capacity_network(h);
            flow::FlowWorkspace ws_unit_h(unit_h);

            for (int u = 0; u < n; ++u) {
                for (int v = 0; v < n; ++v) {
                    if (u == v) continue;
                    const int bound = std::min(g.out_degree(u),
                                               in_g[static_cast<std::size_t>(v)]);
                    if (bound >= k) continue;
                    EXPECT_EQ(
                        test_support::pair_edge_connectivity(h, unit_h, ws_unit_h, u, v),
                        test_support::pair_edge_connectivity(g, unit_g, ws_unit_g, u, v))
                        << "lambda seed " << seed << " k " << k << " pair (" << u
                        << "," << v << ")";
                    // κ is defined for non-adjacent pairs; the certificate is
                    // a subgraph, so non-adjacency in g implies it in h.
                    if (!g.has_edge(u, v)) {
                        EXPECT_EQ(flow::pair_vertex_connectivity(h, even_h,
                                                                 ws_even_h, u, v),
                                  flow::pair_vertex_connectivity(g, even_g,
                                                                 ws_even_g, u, v))
                            << "kappa seed " << seed << " k " << k << " pair ("
                            << u << "," << v << ")";
                    }
                }
            }
        }
    }
}

// The kernel-level contract across 200 seeds: every aggregate the analyzer
// consumes is bit-identical with the certificate on, because the kernels
// pick k above every evaluated pair's cap.
TEST(Certificate, KernelDifferentialAcross200Seeds) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const int n = 18 + static_cast<int>(seed % 13);
        const int deg = 2 + static_cast<int>(seed % 3);
        const graph::Digraph g = kademlia_like_graph(n, deg, seed * 7919);

        flow::ConnectivityOptions ko;
        ko.sample_fraction = 0.3;
        ko.min_sources = 3;
        const flow::ConnectivityResult plain_k = flow::vertex_connectivity(g, ko);
        ko.use_certificate = true;
        const flow::ConnectivityResult cert_k = flow::vertex_connectivity(g, ko);
        EXPECT_EQ(cert_k.kappa_min, plain_k.kappa_min) << "seed " << seed;
        EXPECT_EQ(cert_k.kappa_sum, plain_k.kappa_sum) << "seed " << seed;
        EXPECT_EQ(cert_k.kappa_avg, plain_k.kappa_avg) << "seed " << seed;
        EXPECT_EQ(cert_k.pairs_evaluated, plain_k.pairs_evaluated)
            << "seed " << seed;
        EXPECT_EQ(cert_k.sources_used, plain_k.sources_used) << "seed " << seed;
        EXPECT_LE(cert_k.cert_edges_kept,
                  static_cast<std::uint64_t>(n) *
                      static_cast<std::uint64_t>(cert_k.n))
            << "seed " << seed;
        EXPECT_EQ(plain_k.cert_edges_kept, 0u);

        flow::EdgeConnectivityOptions lo;
        lo.sample_fraction = 0.3;
        lo.min_sources = 3;
        const flow::EdgeConnectivityResult plain_l = flow::edge_connectivity(g, lo);
        lo.use_certificate = true;
        const flow::EdgeConnectivityResult cert_l = flow::edge_connectivity(g, lo);
        EXPECT_EQ(cert_l.lambda_min, plain_l.lambda_min) << "seed " << seed;
        EXPECT_EQ(cert_l.lambda_sum, plain_l.lambda_sum) << "seed " << seed;
        EXPECT_EQ(cert_l.lambda_avg, plain_l.lambda_avg) << "seed " << seed;
        EXPECT_EQ(cert_l.pairs_evaluated, plain_l.pairs_evaluated)
            << "seed " << seed;
    }
}

// The certificate-enabled sweep is deterministic across execution engines:
// inline, 2-worker and 4-worker pools report identical aggregates.
TEST(Certificate, CertificateSweepThreadCountIndependent) {
    const graph::Digraph g = kademlia_like_graph(40, 4, 20170327);

    flow::ConnectivityOptions ko;
    ko.sample_fraction = 0.2;
    ko.min_sources = 4;
    ko.use_certificate = true;
    const flow::ConnectivityResult inline_r = flow::vertex_connectivity(g, ko);
    for (const int workers : {2, 4}) {
        exec::ThreadPool pool(workers);
        ko.pool = &pool;
        const flow::ConnectivityResult pooled = flow::vertex_connectivity(g, ko);
        EXPECT_EQ(pooled.kappa_min, inline_r.kappa_min);
        EXPECT_EQ(pooled.kappa_sum, inline_r.kappa_sum);
        EXPECT_EQ(pooled.kappa_avg, inline_r.kappa_avg);
        EXPECT_EQ(pooled.pairs_evaluated, inline_r.pairs_evaluated);
        EXPECT_EQ(pooled.cert_edges_kept, inline_r.cert_edges_kept);
        ko.pool = nullptr;
    }

    flow::EdgeConnectivityOptions lo;
    lo.sample_fraction = 0.2;
    lo.min_sources = 4;
    lo.use_certificate = true;
    const flow::EdgeConnectivityResult inline_l = flow::edge_connectivity(g, lo);
    for (const int workers : {2, 4}) {
        exec::ThreadPool pool(workers);
        lo.pool = &pool;
        const flow::EdgeConnectivityResult pooled = flow::edge_connectivity(g, lo);
        EXPECT_EQ(pooled.lambda_min, inline_l.lambda_min);
        EXPECT_EQ(pooled.lambda_sum, inline_l.lambda_sum);
        EXPECT_EQ(pooled.lambda_avg, inline_l.lambda_avg);
        EXPECT_EQ(pooled.pairs_evaluated, inline_l.pairs_evaluated);
        EXPECT_EQ(pooled.cert_edges_kept, inline_l.cert_edges_kept);
        lo.pool = nullptr;
    }
}

}  // namespace
}  // namespace kadsim
