// Degree statistics helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/graph_stats.h"

namespace kadsim::graph {
namespace {

TEST(GraphStats, SummarizeKnownVector) {
    const auto s = summarize_degrees({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_EQ(s.min, 1);
    EXPECT_EQ(s.max, 10);
    EXPECT_DOUBLE_EQ(s.mean, 5.5);
    EXPECT_EQ(s.median, 6);  // upper median of an even-length vector
    EXPECT_EQ(s.p10, 2);
}

TEST(GraphStats, EmptyVectorIsZeros) {
    const auto s = summarize_degrees({});
    EXPECT_EQ(s.min, 0);
    EXPECT_EQ(s.max, 0);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(GraphStats, GraphDegreeSummaries) {
    Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(0, 3);
    g.add_edge(1, 0);
    g.finalize();
    const auto out = out_degree_summary(g);
    EXPECT_EQ(out.max, 3);
    EXPECT_EQ(out.min, 0);
    const auto in = in_degree_summary(g);
    EXPECT_EQ(in.max, 1);
    EXPECT_DOUBLE_EQ(in.mean, 1.0);
}

/// The sort-per-call reference the counting-histogram summary must match.
DegreeSummary sorted_summary(std::vector<int> degrees) {
    DegreeSummary s;
    s.mean = static_cast<double>(
                 std::accumulate(degrees.begin(), degrees.end(), std::int64_t{0})) /
             static_cast<double>(degrees.size());
    std::sort(degrees.begin(), degrees.end());
    s.min = degrees.front();
    s.max = degrees.back();
    s.median = degrees[degrees.size() / 2];
    s.p10 = degrees[degrees.size() / 10];
    return s;
}

TEST(GraphStats, CountingPathMatchesExactSortOnSmallInputs) {
    // The counting-histogram summary must report the same quantiles as a
    // sort per call — including duplicates, skewed shapes and single
    // elements.
    const std::vector<std::vector<int>> cases = {
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
        {5, 5, 5, 5, 5},
        {0},
        {7, 0, 7, 0, 7},
        {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4},
        {100, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
        {0, 0, 0, 0, 0, 0, 0, 0, 0, 42},
    };
    for (const auto& degrees : cases) {
        const auto counting = summarize_degrees(degrees);
        const auto sorted = sorted_summary(degrees);
        EXPECT_EQ(counting.min, sorted.min);
        EXPECT_EQ(counting.max, sorted.max);
        EXPECT_DOUBLE_EQ(counting.mean, sorted.mean);
        EXPECT_EQ(counting.median, sorted.median);
        EXPECT_EQ(counting.p10, sorted.p10);
    }
}

TEST(GraphStats, HistogramBucketsCoverRange) {
    const auto counts = degree_histogram({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5);
    ASSERT_EQ(counts.size(), 5u);
    for (const int c : counts) EXPECT_EQ(c, 2);
}

TEST(GraphStats, HistogramOfEmptyInput) {
    const auto counts = degree_histogram({}, 4);
    ASSERT_EQ(counts.size(), 4u);
    for (const int c : counts) EXPECT_EQ(c, 0);
}

TEST(GraphStats, RenderHistogramShape) {
    const auto text = render_histogram({0, 5, 10});
    EXPECT_EQ(text.size(), 5u);  // "[" + 3 glyphs + "]"
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.back(), ']');
    EXPECT_EQ(text[1], ' ');   // zero bucket
    EXPECT_EQ(text[3], '@');   // max bucket
}

TEST(GraphStats, RenderHandlesAllZero) {
    const auto text = render_histogram({0, 0});
    EXPECT_EQ(text, "[  ]");
}

}  // namespace
}  // namespace kadsim::graph
