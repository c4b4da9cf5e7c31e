#include "graph/graph_stats.h"

#include <algorithm>
#include <numeric>

#include "stats/histogram.h"

namespace kadsim::graph {

DegreeSummary summarize_degrees(const std::vector<int>& degrees) {
    DegreeSummary s;
    if (degrees.empty()) return s;
    s.mean = static_cast<double>(
                 std::accumulate(degrees.begin(), degrees.end(), std::int64_t{0})) /
             static_cast<double>(degrees.size());
    // value_at_index(i) == std::sort(degrees)[i] exactly (degrees are
    // non-negative).
    stats::CountHistogram hist;
    for (const int d : degrees) hist.add(d);
    s.min = static_cast<int>(hist.min());
    s.max = static_cast<int>(hist.max());
    s.median = static_cast<int>(hist.value_at_index(degrees.size() / 2));
    s.p10 = static_cast<int>(hist.value_at_index(degrees.size() / 10));
    return s;
}

DegreeSummary out_degree_summary(const Digraph& g) {
    std::vector<int> degrees;
    degrees.reserve(static_cast<std::size_t>(g.vertex_count()));
    for (int v = 0; v < g.vertex_count(); ++v) degrees.push_back(g.out_degree(v));
    return summarize_degrees(degrees);
}

DegreeSummary in_degree_summary(const Digraph& g) {
    return summarize_degrees(g.in_degrees());
}

std::vector<int> degree_histogram(const std::vector<int>& degrees, int buckets) {
    std::vector<int> counts(static_cast<std::size_t>(std::max(1, buckets)), 0);
    if (degrees.empty()) return counts;
    const int max_degree = *std::max_element(degrees.begin(), degrees.end());
    const double width =
        (max_degree + 1) / static_cast<double>(counts.size());
    for (const int d : degrees) {
        auto bucket = static_cast<std::size_t>(d / std::max(1.0, width));
        bucket = std::min(bucket, counts.size() - 1);
        ++counts[bucket];
    }
    return counts;
}

std::string render_histogram(const std::vector<int>& counts) {
    static constexpr char kLevels[] = " .:-=+*#%@";
    const int max_count = counts.empty()
                              ? 0
                              : *std::max_element(counts.begin(), counts.end());
    std::string out = "[";
    for (const int c : counts) {
        if (max_count == 0) {
            out += ' ';
            continue;
        }
        const auto level = static_cast<std::size_t>(
            (static_cast<double>(c) / max_count) * (sizeof(kLevels) - 2));
        out += kLevels[level];
    }
    out += "]";
    return out;
}

}  // namespace kadsim::graph
