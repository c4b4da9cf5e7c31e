// Degree statistics of connectivity graphs. The paper's §5.2 sampling
// argument rests on out-degrees bounding outgoing flow; these helpers expose
// the distributions that argument depends on (and that benches report).
#ifndef KADSIM_GRAPH_GRAPH_STATS_H
#define KADSIM_GRAPH_GRAPH_STATS_H

#include <string>
#include <vector>

#include "graph/digraph.h"

namespace kadsim::graph {

struct DegreeSummary {
    int min = 0;
    int max = 0;
    double mean = 0.0;
    int median = 0;
    int p10 = 0;  ///< 10th percentile — the "weak nodes" the minimum cut hits
};

/// Summary of a degree vector (empty input → all zeros).
///
/// Streams the degrees into a stats::CountHistogram and reads the
/// percentiles back by sorted index — O(n + max_degree), no sort, and every
/// reported number is identical to the sort-based computation
/// (`sorted[n/2]`, `sorted[n/10]`; tests/test_graph_stats.cpp keeps that
/// sort as its oracle).
[[nodiscard]] DegreeSummary summarize_degrees(const std::vector<int>& degrees);

/// Out-/in-degree summaries of a digraph.
[[nodiscard]] DegreeSummary out_degree_summary(const Digraph& g);
[[nodiscard]] DegreeSummary in_degree_summary(const Digraph& g);

/// Fixed-width histogram over [0, max]; returns bucket counts and renders a
/// compact one-line sparkline-style string for logs.
[[nodiscard]] std::vector<int> degree_histogram(const std::vector<int>& degrees,
                                                int buckets);
[[nodiscard]] std::string render_histogram(const std::vector<int>& counts);

}  // namespace kadsim::graph

#endif  // KADSIM_GRAPH_GRAPH_STATS_H
