// bench::series_table — the combined series table run_figure prints. Rows are
// keyed by sample time, so runs with different snapshot cadences line up by
// time instead of by sample index.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "bench/common.h"
#include "util/table.h"

namespace kadsim {
namespace {

bench::SeriesRun run_with_samples(const std::string& label,
                                  std::initializer_list<double> times) {
    bench::SeriesRun run;
    run.label = label;
    for (const double t : times) {
        core::ResilienceSample s;
        s.time_min = t;
        s.n = 100 + static_cast<int>(t);
        s.kappa_min = static_cast<int>(t) / 10;
        s.kappa_avg = t / 4.0;
        run.series.samples.push_back(s);
    }
    return run;
}

TEST(BenchSeriesTable, RowsAreTheUnionOfSampleTimes) {
    const std::vector<bench::SeriesRun> runs = {
        run_with_samples("slow", {30, 60, 90}),
        run_with_samples("fast", {10, 20, 30, 40, 50, 60}),
    };
    util::TextTable expected(
        {"t(min)", "n slow", "Min slow", "Avg slow", "n fast", "Min fast", "Avg fast"});
    expected.add_row({"10", "-", "-", "-", "110", "1", "2.5"});
    expected.add_row({"20", "-", "-", "-", "120", "2", "5.0"});
    expected.add_row({"30", "130", "3", "7.5", "130", "3", "7.5"});
    expected.add_row({"40", "-", "-", "-", "140", "4", "10.0"});
    expected.add_row({"50", "-", "-", "-", "150", "5", "12.5"});
    expected.add_row({"60", "160", "6", "15.0", "160", "6", "15.0"});
    expected.add_row({"90", "190", "9", "22.5", "-", "-", "-"});
    EXPECT_EQ(bench::series_table(runs), expected.to_string());
}

}  // namespace
}  // namespace kadsim
