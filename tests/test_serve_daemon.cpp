// serve::Daemon — the resilience-as-a-service analysis daemon, driven
// through its in-process request API (the socket layer is the same
// handle_request engine behind protocol framing; the framing itself is
// pinned in test_serve.cpp and the full socket path by tools/smoke_daemon.sh).
//
// The load-bearing property is the determinism contract: a METRICS response
// carries byte-for-byte the row the offline analyzer produces for the same
// snapshot file. The remaining tests pin the daemon's failure-isolation and
// resource-bounding behavior: malformed ingest is rejected without damage,
// the ingest queue applies backpressure, and the hot-state LRU evicts and
// rebuilds from the snapshot spool.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "flow/mincut.h"
#include "graph/snapshot.h"
#include "scen/runner.h"
#include "serve/daemon.h"
#include "serve/result_cache.h"

namespace kadsim {
namespace {

/// A short churny run captured at three instants — three related but
/// distinct snapshots, the shape the daemon ingests in production.
std::vector<graph::RoutingSnapshot> capture_series() {
    scen::ScenarioConfig scenario;
    scenario.name = "daemon-test";
    scenario.initial_size = 36;
    scenario.seed = 19;
    scenario.kad.k = 8;
    scenario.kad.s = 1;
    scenario.fault.churn = scen::ChurnSpec{1, 1};
    scenario.phases.set_end(sim::minutes(90));
    scen::Runner runner(scenario);
    std::vector<graph::RoutingSnapshot> snaps;
    for (const int minute : {30, 60, 90}) {
        runner.step_to(sim::minutes(minute));
        snaps.push_back(runner.snapshot());
    }
    return snaps;
}

std::string to_text(const graph::RoutingSnapshot& snap) {
    std::ostringstream out;
    snap.save(out);
    return out.str();
}

std::string to_binary(const graph::RoutingSnapshot& snap) {
    std::ostringstream out(std::ios::binary);
    snap.save_binary(out);
    return out.str();
}

/// The offline pipeline the daemon must match: parse the serialized file
/// (dropping Runner-filled companions, exactly as an ingested file has
/// them dropped), then analyze.
core::ResilienceSample offline_analyze(const std::string& bytes,
                                       const core::AnalyzerOptions& options) {
    std::istringstream in(bytes, std::ios::binary);
    const auto snap = graph::RoutingSnapshot::parse(in);
    return core::ConnectivityAnalyzer(options).analyze(snap);
}

serve::DaemonConfig test_config() {
    serve::DaemonConfig config;
    config.analyzer.sample_c = 0.05;
    config.analyzer.min_sources = 4;
    config.query_timeout_ms = 60000;
    return config;
}

/// "OK <hash>" -> hash.
std::string hash_of(const std::string& ingest_response) {
    EXPECT_TRUE(ingest_response.starts_with("OK "))
        << "ingest failed: " << ingest_response;
    return ingest_response.substr(3);
}

struct TempDir {
    explicit TempDir(const char* tag) {
        path = (std::filesystem::temp_directory_path() /
                (std::string("kadsim_") + tag + "_" +
                 std::to_string(::getpid())))
                   .string();
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

TEST(ServeDaemon, MetricsRowsAreByteIdenticalToOfflineAnalyzer) {
    const auto snaps = capture_series();
    serve::Daemon daemon(test_config());
    daemon.start();

    // Mixed formats on ingest: text and binary files of the same series.
    std::vector<std::string> hashes;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const std::string bytes = i % 2 == 0 ? to_text(snaps[i]) : to_binary(snaps[i]);
        hashes.push_back(hash_of(
            daemon.ingest_bytes(bytes, "series-" + std::to_string(i))));
    }
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const std::string response = daemon.handle_request("METRICS " + hashes[i]);
        ASSERT_TRUE(response.starts_with("OK ")) << response;
        // Offline reference always goes through the *text* serialization:
        // cross-format byte-identity falls out because text and binary
        // parse to the same snapshot.
        const auto sample =
            offline_analyze(to_text(snaps[i]), daemon.config().analyzer);
        EXPECT_EQ(response.substr(3), serve::ResultCache::format_sample_row(sample))
            << "daemon row diverged from offline analyzer for snapshot " << i;
    }
    daemon.stop();
}

// The path the shipped daemon runs: a 3-worker analysis pool with delta
// reuse on, over a churning n ≥ 130 series whose sources span several
// 64-sink work items. Rows must still match the offline delta-off analyzer
// byte for byte.
TEST(ServeDaemon, PooledDeltaRowsAreByteIdenticalToOfflineAnalyzer) {
    scen::ScenarioConfig scenario;
    scenario.name = "daemon-pooled-test";
    scenario.initial_size = 136;
    scenario.seed = 23;
    scenario.kad.k = 8;
    scenario.kad.s = 1;
    scenario.fault.churn = scen::ChurnSpec{2, 2};
    scenario.phases.stabilization_end = sim::minutes(40);
    scenario.phases.set_end(sim::minutes(45));
    scen::Runner runner(scenario);

    auto config = test_config();
    config.analysis_threads = 3;
    config.analyzer.use_delta = true;
    serve::Daemon daemon(std::move(config));
    daemon.start();
    core::AnalyzerOptions offline = daemon.config().analyzer;
    offline.use_delta = false;
    for (int minute = 41; minute <= 45; ++minute) {
        runner.step_to(sim::minutes(minute));
        const std::string bytes = to_text(runner.snapshot());
        const std::string hash =
            hash_of(daemon.ingest_bytes(bytes, "minute-" + std::to_string(minute)));
        const std::string response = daemon.handle_request("METRICS " + hash);
        ASSERT_TRUE(response.starts_with("OK ")) << response;
        const auto sample = offline_analyze(bytes, offline);
        EXPECT_GE(sample.n, 130);
        EXPECT_EQ(response.substr(3), serve::ResultCache::format_sample_row(sample))
            << "pooled delta row diverged from offline analyzer at minute " << minute;
    }
    daemon.stop();
}

TEST(ServeDaemon, TextAndBinaryOfSameSnapshotShareContentHash) {
    const auto snaps = capture_series();
    serve::Daemon daemon(test_config());
    daemon.start();
    const std::string h_text = hash_of(daemon.ingest_bytes(to_text(snaps[0]), "t"));
    const std::string h_bin = hash_of(daemon.ingest_bytes(to_binary(snaps[0]), "b"));
    EXPECT_EQ(h_text, h_bin);
    const auto counters = daemon.counters();
    EXPECT_EQ(counters.ingested, 1u);
    EXPECT_EQ(counters.duplicates, 1u);
    daemon.stop();
}

TEST(ServeDaemon, MalformedIngestIsRejectedWithoutDamage) {
    const auto snaps = capture_series();
    serve::Daemon daemon(test_config());
    daemon.start();

    const std::string garbage = daemon.ingest_bytes("complete garbage\n", "bad1");
    EXPECT_TRUE(garbage.starts_with("ERR bad1:")) << garbage;

    // A truncated binary snapshot: valid magic, missing payload.
    std::string truncated = to_binary(snaps[0]).substr(0, 40);
    const std::string trunc_resp = daemon.ingest_bytes(truncated, "bad2");
    EXPECT_TRUE(trunc_resp.starts_with("ERR bad2:")) << trunc_resp;

    const std::string empty = daemon.ingest_bytes("", "bad3");
    EXPECT_TRUE(empty.starts_with("ERR bad3:")) << empty;

    // The daemon still works: a good snapshot ingests and analyzes.
    const std::string hash = hash_of(daemon.ingest_bytes(to_text(snaps[0]), "good"));
    EXPECT_TRUE(daemon.handle_request("KAPPA " + hash).starts_with("OK kappa_min="));

    const auto counters = daemon.counters();
    EXPECT_EQ(counters.rejected, 3u);
    EXPECT_EQ(counters.ingested, 1u);
    EXPECT_EQ(counters.analysis_failures, 0u);
    daemon.stop();
}

TEST(ServeDaemon, IngestQueueAppliesBackpressure) {
    const auto snaps = capture_series();
    auto config = test_config();
    config.queue_capacity = 1;
    serve::Daemon daemon(std::move(config));
    // Not started: nothing drains the queue yet. The first ingest fills the
    // single slot; the second must block in push() until the worker starts.
    ASSERT_TRUE(daemon.ingest_bytes(to_text(snaps[0]), "first").starts_with("OK"));
    std::atomic<bool> second_done{false};
    std::thread producer([&] {
        EXPECT_TRUE(daemon.ingest_bytes(to_text(snaps[1]), "second").starts_with("OK"));
        second_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(second_done.load()) << "push did not block on a full queue";
    daemon.start();
    producer.join();
    EXPECT_TRUE(second_done.load());
    EXPECT_TRUE(daemon.handle_request("METRICS latest").starts_with("OK "));
    daemon.stop();
}

TEST(ServeDaemon, EvictedHotStateIsRebuiltFromSpool) {
    const auto snaps = capture_series();
    TempDir tmp("daemon_lru");
    auto config = test_config();
    config.hot_capacity = 1;  // the second ingest evicts the first
    config.cache_dir = tmp.path;
    serve::Daemon daemon(std::move(config));
    daemon.start();

    const std::string first = hash_of(daemon.ingest_bytes(to_text(snaps[0]), "a"));
    const std::string second = hash_of(daemon.ingest_bytes(to_text(snaps[1]), "b"));
    ASSERT_TRUE(daemon.handle_request("METRICS " + second).starts_with("OK "));

    // Find a non-adjacent pair in the first snapshot and the offline answer.
    std::istringstream in(to_text(snaps[0]));
    const auto parsed = graph::RoutingSnapshot::parse(in);
    const auto g = parsed.to_digraph();
    int u = -1;
    int v = -1;
    for (int a = 0; a < g.vertex_count() && u < 0; ++a) {
        for (int b = 0; b < g.vertex_count(); ++b) {
            if (a != b && !g.has_edge(a, b)) {
                u = a;
                v = b;
                break;
            }
        }
    }
    ASSERT_GE(u, 0) << "test graph is complete; no non-adjacent pair";
    const auto offline_cut = flow::min_vertex_cut(g, u, v);

    const std::string response = daemon.handle_request(
        "PAIR " + first + " " + std::to_string(u) + " " + std::to_string(v));
    ASSERT_TRUE(response.starts_with("OK kappa=")) << response;
    EXPECT_TRUE(response.starts_with("OK kappa=" + std::to_string(offline_cut.size())))
        << response << " vs offline kappa " << offline_cut.size();

    const auto counters = daemon.counters();
    EXPECT_GE(counters.hot_evictions, 1u);
    daemon.stop();
}

TEST(ServeDaemon, SecondDaemonAnswersFromSharedResultCache) {
    const auto snaps = capture_series();
    TempDir tmp("daemon_cache");
    auto config = test_config();
    config.cache_dir = tmp.path;

    std::string row;
    {
        serve::Daemon daemon{serve::DaemonConfig{config}};
        daemon.start();
        const std::string hash = hash_of(daemon.ingest_bytes(to_text(snaps[0]), "a"));
        row = daemon.handle_request("METRICS " + hash);
        ASSERT_TRUE(row.starts_with("OK ")) << row;
        EXPECT_EQ(daemon.counters().analyzed, 1u);
        daemon.stop();
    }
    {
        serve::Daemon daemon{serve::DaemonConfig{config}};
        daemon.start();
        const std::string hash = hash_of(daemon.ingest_bytes(to_text(snaps[0]), "a"));
        EXPECT_EQ(daemon.handle_request("METRICS " + hash), row);
        const auto counters = daemon.counters();
        EXPECT_EQ(counters.result_cache_hits, 1u);
        EXPECT_EQ(counters.analyzed, 0u) << "restart re-analyzed a cached snapshot";
        daemon.stop();
    }
}

TEST(ServeDaemon, QueryErrorsAreDiagnosticNotFatal) {
    const auto snaps = capture_series();
    serve::Daemon daemon(test_config());
    daemon.start();
    EXPECT_EQ(daemon.handle_request("KAPPA latest"), "ERR no snapshots ingested");
    EXPECT_TRUE(daemon.handle_request("BOGUS").starts_with("ERR unknown command"));
    EXPECT_TRUE(daemon.handle_request("KAPPA nope").starts_with("ERR unknown snapshot"));
    EXPECT_TRUE(daemon.handle_request("INGEST only-a-label")
                    .starts_with("ERR INGEST needs"));

    const std::string hash = hash_of(daemon.ingest_bytes(to_text(snaps[0]), "a"));
    EXPECT_TRUE(daemon.handle_request("PAIR latest 0 0").starts_with("ERR PAIR needs"));
    EXPECT_TRUE(
        daemon.handle_request("PAIR latest -1 3").starts_with("ERR PAIR needs"));
    // Prefix resolution: the first 12 hex chars are unambiguous here.
    EXPECT_TRUE(daemon.handle_request("KAPPA " + hash.substr(0, 12))
                    .starts_with("OK kappa_min="));
    EXPECT_TRUE(daemon.handle_request("PING") == "OK pong");
    const auto counters = daemon.counters();
    EXPECT_GE(counters.query_errors, 5u);
    daemon.stop();
}

TEST(ServeDaemon, ShutdownRequestSetsStopFlagAfterReply) {
    serve::Daemon daemon(test_config());
    daemon.start();
    bool deferred = false;
    EXPECT_EQ(daemon.handle_request("SHUTDOWN", &deferred), "OK shutting down");
    EXPECT_TRUE(deferred);
    EXPECT_FALSE(daemon.stop_requested()) << "deferred shutdown applied early";
    EXPECT_EQ(daemon.handle_request("SHUTDOWN"), "OK shutting down");
    EXPECT_TRUE(daemon.stop_requested());
    daemon.stop();
}

}  // namespace
}  // namespace kadsim
