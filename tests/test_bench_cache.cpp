// ResultCache::parse_sample_row — the cache-CSV row parser behind
// the bench harness's series cache (bench/common.cpp try_load_cached).
//
// The original implementation built a std::istringstream per row, which made
// probing a large cached series allocation-bound: one stream (plus its
// internal buffer) per row, tens of thousands of rows per figure at paper
// scale. The from_chars rewrite parses in place; the AllocationBudget test
// pins that property with a counting global operator new so a stream-based
// (or otherwise allocating) parser cannot silently come back.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "serve/result_cache.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting replacements for the global allocation functions. Only the
// throwing scalar/array forms are replaced; the sized/nothrow deletes
// forward to free so every path stays matched.
void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kadsim {
namespace {

using serve::ResultCache;

/// One cache-CSV data row in exactly the bytes store_cached writes
/// (bench/common.cpp) — the format parse_sample_row must accept.
std::string row_for(const core::ResilienceSample& s) {
    std::ostringstream out;
    out << s.time_min << ',' << s.n << ',' << s.m << ',' << s.kappa_min << ','
        << s.kappa_avg << ',' << s.scc_count << ',' << s.reciprocity << ','
        << s.pairs_evaluated << ',' << s.removed_total << ',' << s.lambda_min
        << ',' << s.lambda_avg << ',' << s.scc_frac << ',' << s.wcc_frac << ','
        << s.articulation_points << ',' << s.bridges << ',' << s.out_degree_min
        << ',' << s.in_degree_min << ',' << s.kappa_degree_gap << ','
        << s.lookups_done << ',' << s.lookup_success_rate << ','
        << s.lookup_hop_p50 << ',' << s.lookup_hop_p99 << ','
        << s.lookup_latency_p50_ms << ',' << s.lookup_latency_p99_ms << ','
        << s.probes_done << ',' << s.probe_success_rate << ','
        << s.probe_hop_p50 << ',' << s.probe_hop_p99;
    return out.str();
}

core::ResilienceSample sample_for(int i) {
    core::ResilienceSample s;
    s.time_min = 30.0 * i + 0.5;
    s.n = 250 + i;
    s.m = 31000 + 7 * i;
    s.kappa_min = 3 + i % 5;
    s.kappa_avg = 19.25 + 0.125 * (i % 8);
    s.scc_count = 1 + i % 2;
    s.reciprocity = 0.984375;
    s.pairs_evaluated = 1194u + static_cast<std::uint64_t>(i);
    s.removed_total = static_cast<std::uint64_t>(2 * i);
    s.lambda_min = 4 + i % 3;
    s.lambda_avg = 21.5 + 0.25 * (i % 4);
    // Every double here survives the store format's default 6-significant-
    // digit ostream precision, so the round-trip comparison can be exact.
    s.scc_frac = 0.875;
    s.wcc_frac = 1.0;
    s.articulation_points = i % 7;
    s.bridges = i % 11;
    s.out_degree_min = 5 + i % 4;
    s.in_degree_min = 6 + i % 9;
    s.kappa_degree_gap = 2 + i % 3;
    s.lookups_done = 40u + static_cast<std::uint64_t>(i % 13);
    s.lookup_success_rate = 0.9375;
    s.lookup_hop_p50 = 3.0 + i % 2;
    s.lookup_hop_p99 = 6.0 + i % 3;
    s.lookup_latency_p50_ms = 448.0;
    s.lookup_latency_p99_ms = 1792.0;
    s.probes_done = 64u;
    s.probe_success_rate = 0.984375;
    s.probe_hop_p50 = 3.0;
    s.probe_hop_p99 = 5.0 + i % 2;
    return s;
}

TEST(BenchCache, ParseRoundTripsStoreFormat) {
    const core::ResilienceSample expected = sample_for(13);
    core::ResilienceSample parsed;
    ASSERT_TRUE(ResultCache::parse_sample_row(row_for(expected), parsed));
    EXPECT_EQ(parsed.time_min, expected.time_min);
    EXPECT_EQ(parsed.n, expected.n);
    EXPECT_EQ(parsed.m, expected.m);
    EXPECT_EQ(parsed.kappa_min, expected.kappa_min);
    EXPECT_EQ(parsed.kappa_avg, expected.kappa_avg);
    EXPECT_EQ(parsed.scc_count, expected.scc_count);
    EXPECT_EQ(parsed.reciprocity, expected.reciprocity);
    EXPECT_EQ(parsed.pairs_evaluated, expected.pairs_evaluated);
    EXPECT_EQ(parsed.removed_total, expected.removed_total);
    EXPECT_EQ(parsed.lambda_min, expected.lambda_min);
    EXPECT_EQ(parsed.lambda_avg, expected.lambda_avg);
    EXPECT_EQ(parsed.scc_frac, expected.scc_frac);
    EXPECT_EQ(parsed.wcc_frac, expected.wcc_frac);
    EXPECT_EQ(parsed.articulation_points, expected.articulation_points);
    EXPECT_EQ(parsed.bridges, expected.bridges);
    EXPECT_EQ(parsed.out_degree_min, expected.out_degree_min);
    EXPECT_EQ(parsed.in_degree_min, expected.in_degree_min);
    EXPECT_EQ(parsed.kappa_degree_gap, expected.kappa_degree_gap);
    EXPECT_EQ(parsed.lookups_done, expected.lookups_done);
    EXPECT_EQ(parsed.lookup_success_rate, expected.lookup_success_rate);
    EXPECT_EQ(parsed.lookup_hop_p50, expected.lookup_hop_p50);
    EXPECT_EQ(parsed.lookup_hop_p99, expected.lookup_hop_p99);
    EXPECT_EQ(parsed.lookup_latency_p50_ms, expected.lookup_latency_p50_ms);
    EXPECT_EQ(parsed.lookup_latency_p99_ms, expected.lookup_latency_p99_ms);
    EXPECT_EQ(parsed.probes_done, expected.probes_done);
    EXPECT_EQ(parsed.probe_success_rate, expected.probe_success_rate);
    EXPECT_EQ(parsed.probe_hop_p50, expected.probe_hop_p50);
    EXPECT_EQ(parsed.probe_hop_p99, expected.probe_hop_p99);
}

TEST(BenchCache, RejectsMalformedRows) {
    core::ResilienceSample s;
    // Pre-metric-suite row: the eight original columns only.
    EXPECT_FALSE(ResultCache::parse_sample_row("0.5,60,700,3,9.5,1,0.98,1194", s));
    // Pre-lookup-engine row: all 18 metric columns but no lookup columns —
    // older caches miss cleanly and re-simulate.
    EXPECT_FALSE(ResultCache::parse_sample_row(
        "0.5,60,700,3,9.5,1,0.98,1194,0,4,21.5,0.99,1,0,0,5,6,2", s));
    EXPECT_FALSE(ResultCache::parse_sample_row("", s));
    EXPECT_FALSE(ResultCache::parse_sample_row("garbage", s));
    // Trailing junk after the final column.
    EXPECT_FALSE(ResultCache::parse_sample_row(row_for(sample_for(0)) + ",9", s));
    EXPECT_FALSE(ResultCache::parse_sample_row(row_for(sample_for(0)) + "x", s));
    // A non-numeric field mid-row.
    EXPECT_FALSE(ResultCache::parse_sample_row(
        "0.5,60,abc,3,9.5,1,0.98,1194,0,4,21.5,0.99,1,0,0,5,6,2", s));
    // A well-formed row still parses after all the rejects.
    EXPECT_TRUE(ResultCache::parse_sample_row(row_for(sample_for(1)), s));
}

TEST(BenchCache, TwentyThousandRowProbeStaysUnderAllocationBudget) {
    constexpr int kRows = 20000;
    std::vector<std::string> rows;
    rows.reserve(kRows);
    for (int i = 0; i < kRows; ++i) rows.push_back(row_for(sample_for(i)));

    // The probe itself: parse every row, keep a checksum so the loop cannot
    // be optimized away. Parsing is in-place — the budget admits only
    // incidental noise (instrumentation, a lazy runtime buffer), not
    // per-row allocation.
    std::uint64_t checksum = 0;
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (const auto& row : rows) {
        core::ResilienceSample s;
        ASSERT_TRUE(ResultCache::parse_sample_row(row, s));
        checksum += static_cast<std::uint64_t>(s.kappa_min) + s.pairs_evaluated;
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_GT(checksum, 0u);
    EXPECT_LE(after - before, 100u)
        << "parse_sample_row allocated per row; the cache probe has "
           "regressed to stream-based parsing";
}

}  // namespace
}  // namespace kadsim
