// Streaming summary statistics (Welford) and the paper's Relative Variance.
//
// Table 2 reports "the means and the Relative Variance (RV), i.e.
// Variance/Mean, of the minimum connectivity during the churn phase".
//
// Summary carries no per-sample storage and therefore has no percentiles.
// Callers that need quantiles stream into stats/histogram.h instead
// (CountHistogram for exact small-integer quantiles, Log2Histogram for
// wide-range values); graph_stats' percentiles run on CountHistogram.
#ifndef KADSIM_STATS_SUMMARY_H
#define KADSIM_STATS_SUMMARY_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace kadsim::stats {

class Summary {
public:
    void add(double x) noexcept {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }

    /// Population variance (the paper aggregates a full churn-phase series,
    /// not a sample from it).
    [[nodiscard]] double variance() const noexcept {
        return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
    }

    [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

    /// Relative Variance = Variance / Mean; defined as 0 for mean 0 (matching
    /// Table 2's "0.00 / 0.00" row for the fully disconnected case).
    [[nodiscard]] double relative_variance() const noexcept {
        const double mu = mean();
        if (mu == 0.0) return 0.0;
        return variance() / mu;
    }

    [[nodiscard]] double min() const noexcept {
        return count_ > 0 ? min_ : 0.0;
    }
    [[nodiscard]] double max() const noexcept {
        return count_ > 0 ? max_ : 0.0;
    }

private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace kadsim::stats

#endif  // KADSIM_STATS_SUMMARY_H
