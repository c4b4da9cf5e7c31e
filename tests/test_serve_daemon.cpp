// serve::Daemon — the resilience-as-a-service analysis daemon, driven
// through its in-process request API (the socket layer is the same
// handle_request engine behind protocol framing; the framing itself is
// pinned in test_serve.cpp and the full socket path by tools/smoke_daemon.sh).
//
// The load-bearing property is the determinism contract: a METRICS response
// carries byte-for-byte the row the offline analyzer produces for the same
// snapshot file. The remaining tests pin the daemon's failure-isolation and
// resource-bounding behavior: malformed ingest is rejected without damage,
// the ingest queue applies backpressure, the hot-state LRU evicts and
// rebuilds from the snapshot spool but never from a spool file that no
// longer holds the snapshot its name hashes, only files the daemon read
// itself are rebuild sources (a socket client's label is never opened), the
// content hash that names
// spool files and result-cache keys is pinned, and ended socket connections
// give their threads back.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "flow/mincut.h"
#include "flow/vertex_connectivity.h"
#include "graph/snapshot.h"
#include "scen/runner.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "util/sha1.h"

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

/// The first ordered pair (u, v), u != v, with no edge u -> v; (-1, -1) if
/// the graph is complete.
std::pair<int, int> non_adjacent_pair(const graph::Digraph& g) {
    for (int u = 0; u < g.vertex_count(); ++u) {
        for (int v = 0; v < g.vertex_count(); ++v) {
            if (u != v && !g.has_edge(u, v)) return {u, v};
        }
    }
    return {-1, -1};
}

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

TEST(ServeDaemon, ContentHashIsSha1OfCanonicalBytes) {
    // The hash names spool files and keys result-cache rows, so a daemon
    // restarted on an older build's cache finds them only if no snapshot's
    // hash ever changes. The golden is the SHA-1 of this snapshot's 100
    // canonical save_binary bytes (coreutils sha1sum of them agrees).
    std::istringstream text("t 7200000\nn 4\n10: 20 30\n20: 10 40\n30: 40\n40: 10 20 30\n");
    const auto snap = graph::RoutingSnapshot::parse(text);
    ASSERT_EQ(to_binary(snap).size(), 100u);
    EXPECT_EQ(serve::Daemon::content_hash(snap), "6fc6f297f3254a5b7a55c4d0123552533f2cf31f");

    for (const auto& captured : capture_series()) {
        EXPECT_EQ(serve::Daemon::content_hash(captured),
                  util::to_hex(util::sha1(to_binary(captured))));
    }
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
    const auto [u, v] = non_adjacent_pair(g);
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

TEST(ServeDaemon, ReplacedSpoolFileIsNotServed) {
    const auto snaps = capture_series();
    TempDir tmp("daemon_spool_swap");
    auto config = test_config();
    config.hot_capacity = 1;  // the second ingest evicts the first
    config.cache_dir = tmp.path;
    serve::Daemon daemon(std::move(config));
    daemon.start();

    // Labels that name no file: the spool is the only way back to A.
    const std::string a = hash_of(daemon.ingest_bytes(to_text(snaps[0]), "no-such-file-a"));
    const std::string b = hash_of(daemon.ingest_bytes(to_text(snaps[1]), "no-such-file-b"));
    ASSERT_TRUE(daemon.handle_request("METRICS " + b).starts_with("OK "));
    const std::string spool_a = tmp.path + "/snapshots/" + a + ".ksnp";
    const std::string spool_b = tmp.path + "/snapshots/" + b + ".ksnp";
    ASSERT_TRUE(std::filesystem::exists(spool_a));
    ASSERT_TRUE(std::filesystem::exists(spool_b));

    // A pair B answers, so serving B's file for A would answer it too.
    std::istringstream in(to_text(snaps[1]));
    const auto g = graph::RoutingSnapshot::parse(in).to_digraph();
    const auto [u, v] = non_adjacent_pair(g);
    ASSERT_GE(u, 0) << "test graph is complete; no non-adjacent pair";
    const std::string pair = " " + std::to_string(u) + " " + std::to_string(v);
    ASSERT_TRUE(daemon.handle_request("PAIR " + b + pair).starts_with("OK kappa="));

    const auto replace_spool_a = [&](const std::string& bytes) {
        const std::string staged = spool_a + ".staged";
        {
            std::ofstream out(staged, std::ios::binary);
            out << bytes;
        }
        std::filesystem::rename(staged, spool_a);
    };
    const std::string evicted =
        "ERR hot state for " + a + " was evicted and no snapshot file remains";

    // A well-formed snapshot, but not the one the name hashes: B's
    // canonical bytes.
    std::ifstream b_file(spool_b, std::ios::binary);
    std::ostringstream b_bytes;
    b_bytes << b_file.rdbuf();
    replace_spool_a(b_bytes.str());
    EXPECT_EQ(daemon.handle_request("PAIR " + a + pair), evicted);

    // A torn spool: A's own bytes, cut short.
    replace_spool_a(to_binary(snaps[0]).substr(0, 40));
    EXPECT_EQ(daemon.handle_request("PAIR " + a + pair), evicted);
    daemon.stop();
}

/// Ingests snapshot A through `ingest_a`, where `file` holds A's own
/// bytes, then B, into a daemon with one hot slot and no cache directory,
/// and returns the PAIR response for A's first non-adjacent pair after B's
/// analysis evicted A (`kappa` gets the offline answer).
template <typename IngestA>
std::string pair_after_eviction(IngestA ingest_a, const char* tag, int& kappa,
                                std::string& hash_a) {
    const auto snaps = capture_series();
    TempDir tmp(tag);
    const std::string file = tmp.path + "/a.txt";
    const std::string a_bytes = to_text(snaps[0]);
    {
        std::ofstream out(file, std::ios::binary);
        out << a_bytes;
    }
    auto config = test_config();
    config.hot_capacity = 1;  // the second ingest evicts the first
    serve::Daemon daemon(std::move(config));
    daemon.start();

    hash_a = hash_of(ingest_a(daemon, file, a_bytes));
    const std::string b = hash_of(daemon.ingest_bytes(to_text(snaps[1]), "b"));
    EXPECT_TRUE(daemon.handle_request("METRICS " + b).starts_with("OK "));

    std::istringstream in(a_bytes);
    const auto g = graph::RoutingSnapshot::parse(in).to_digraph();
    const auto [u, v] = non_adjacent_pair(g);
    EXPECT_GE(u, 0) << "test graph is complete; no non-adjacent pair";
    kappa = flow::pair_vertex_connectivity(g, u, v);
    std::string response = daemon.handle_request(
        "PAIR " + hash_a + " " + std::to_string(u) + " " + std::to_string(v));
    EXPECT_GE(daemon.counters().hot_evictions, 1u);
    daemon.stop();
    return response;
}

TEST(ServeDaemon, SocketLabelIsNotARebuildSource) {
    // A socket client's label names a file holding A's bytes; the daemon
    // never opened it, so it must not read it to rebuild A.
    int kappa = -1;
    std::string a;
    const std::string response = pair_after_eviction(
        [](serve::Daemon& daemon, const std::string& file, const std::string& bytes) {
            return daemon.handle_request("INGEST " + file + "\n" + bytes);
        },
        "daemon_label", kappa, a);
    EXPECT_EQ(response, "ERR hot state for " + a + " was evicted and no snapshot file remains");
}

TEST(ServeDaemon, IngestedFileIsARebuildSource) {
    int kappa = -1;
    std::string a;
    const std::string response = pair_after_eviction(
        [](serve::Daemon& daemon, const std::string& file, const std::string&) {
            return daemon.ingest_file(file);
        },
        "daemon_file", kappa, a);
    EXPECT_TRUE(response.starts_with("OK kappa=" + std::to_string(kappa) + " "))
        << response << " vs offline kappa " << kappa;
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

/// This process's virtual size in KiB, from /proc/self/status.
std::int64_t vm_size_kib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.starts_with("VmSize:")) return std::stoll(line.substr(7));
    }
    ADD_FAILURE() << "no VmSize line in /proc/self/status";
    return 0;
}

// Each socket connection runs on its own thread. An ended connection's
// thread must be joined before stop(): an exited but unjoined thread keeps
// its stack mapped (8 MiB by default), so 200 sequential one-PING
// connections grew the address space by about 1.6 GiB when every handle
// waited for stop(). Joined, they reuse a few cached stacks.
TEST(ServeDaemon, EndedConnectionThreadsAreJoined) {
    const TempDir dir("conn_threads");
    serve::DaemonConfig config = test_config();
    config.socket_path = dir.path + "/daemon.sock";
    serve::Daemon daemon(config);
    daemon.start();
    const auto ping = [&config] {
        std::string error;
        const int fd = serve::connect_unix(config.socket_path, error);
        ASSERT_GE(fd, 0) << error;
        std::string reply;
        EXPECT_EQ(serve::write_frame(fd, "PING"), serve::FrameResult::kOk);
        EXPECT_EQ(serve::read_frame(fd, reply), serve::FrameResult::kOk);
        EXPECT_EQ(reply, "OK pong");
        ::close(fd);
    };
    // The first connections map the allocator arena and stack cache that
    // later ones reuse.
    for (int i = 0; i < 4; ++i) ping();
    const std::int64_t before = vm_size_kib();
    for (int i = 0; i < 200; ++i) ping();
    const std::int64_t grown_mib = (vm_size_kib() - before) / 1024;
    EXPECT_LT(grown_mib, 256) << "200 connections grew VmSize by " << grown_mib << " MiB";
    daemon.stop();
}

}  // namespace
}  // namespace kadsim
