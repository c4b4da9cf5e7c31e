// Resilience-as-a-service analysis daemon.
//
// A long-running process that ingests routing-graph snapshots — from a
// watched directory and/or a local AF_UNIX socket — and answers
// connectivity-metric queries over the length-prefixed protocol in
// serve/protocol.h. Ingest and analysis are decoupled through an
// exec::BoundedQueue feeding one analysis worker (so analysis runs in strict
// ingest order, which is what lets the worker's ConnectivityAnalyzer reuse
// κ/λ bounds across consecutive snapshots via analysis::SnapshotDeltaCache);
// the worker fans each snapshot's flow sweeps over an exec::ThreadPool.
//
// Determinism contract: a query's metric values are bit-identical to running
// the offline analyzer (core::ConnectivityAnalyzer with the same sample_c /
// min_sources) on the same snapshot file — the daemon runs exactly that
// pipeline, and the delta/threads/push-relabel toggles are all bit-identical
// by construction. METRICS responses carry the exact
// ResultCache::format_sample_row bytes, so daemon and offline outputs can be
// compared byte for byte (tests/test_serve_daemon.cpp pins this).
//
// State tiers, by cost:
//   - entries_: one small record per ingested snapshot (hash, state, the
//     28-column result row) — kept for the daemon's lifetime.
//   - hot_: finalized witness FlowNetwork + compacted Digraph + snapshot,
//     LRU-bounded; evicted states are rebuilt on demand from the snapshot
//     spool (cache_dir/snapshots/<hash>.ksnp) or, for a snapshot the daemon
//     read from a file itself (ingest_file, the watch directory), that file.
//   - result cache: the shared content-addressed on-disk cache
//     (serve/result_cache.h), keyed by snapshot content hash + analyzer
//     options, shared with the bench runners.
//
// Malformed input (truncated KSNP, garbage text, impossible counts) is
// rejected with a diagnostic and counted — it never crashes the daemon or
// leaves partially-ingested state.
#ifndef KADSIM_SERVE_DAEMON_H
#define KADSIM_SERVE_DAEMON_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/analyzer.h"
#include "exec/bounded_queue.h"
#include "flow/flow_network.h"
#include "graph/digraph.h"
#include "graph/snapshot.h"
#include "serve/lru_cache.h"
#include "serve/result_cache.h"
#include "stats/histogram.h"

namespace kadsim::exec {
class ThreadPool;
}

namespace kadsim::serve {

struct DaemonConfig {
    /// Directory polled for new snapshot files ("" disables the watcher).
    /// Files must appear atomically (write elsewhere, then rename in).
    std::string watch_dir;
    /// AF_UNIX listening socket path ("" disables the socket server —
    /// tests drive handle_request() in-process instead).
    std::string socket_path;
    /// Root of the on-disk result cache and snapshot spool ("" disables
    /// both; evicted hot state is then only rebuildable from source files).
    std::string cache_dir;
    /// Pool size for the κ sweep and metric suite of the single analysis
    /// worker, which joins the pool as one extra lane; 1 = no pool.
    int analysis_threads = 1;
    /// Hot-state LRU capacity (entries, each holding a finalized witness
    /// network — the dominant resident cost).
    std::size_t hot_capacity = 4;
    /// Ingest queue bound; a full queue blocks producers (backpressure).
    std::size_t queue_capacity = 16;
    int watch_poll_ms = 200;
    /// How long a metric query waits for its snapshot to finish analysis.
    int query_timeout_ms = 60000;
    core::AnalyzerOptions analyzer;
};

/// Point-in-time counters (COUNTERS endpoint, tests).
struct DaemonCounters {
    std::uint64_t ingested = 0;           ///< snapshots accepted (deduped)
    std::uint64_t duplicates = 0;         ///< re-ingests of a known hash
    std::uint64_t rejected = 0;           ///< malformed inputs turned away
    std::uint64_t analyzed = 0;           ///< fresh analyses completed
    std::uint64_t analysis_failures = 0;
    std::uint64_t result_cache_hits = 0;  ///< analyses answered from disk
    std::uint64_t queries = 0;
    std::uint64_t query_errors = 0;
    std::uint64_t hot_hits = 0;
    std::uint64_t hot_misses = 0;
    std::uint64_t hot_evictions = 0;
    std::size_t queue_depth = 0;
    std::int64_t query_latency_p50_us = 0;
    std::int64_t query_latency_p99_us = 0;
};

class Daemon {
public:
    explicit Daemon(DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Spawns the analysis worker plus (per config) the directory watcher
    /// and socket acceptor. Throws std::runtime_error if the socket cannot
    /// be bound.
    void start();

    /// Idempotent clean shutdown: stops intake, drains the queued
    /// snapshots through analysis, disconnects clients, joins every thread.
    void stop();

    /// Executes one protocol request and returns the "OK ..."/"ERR ..."
    /// response. Thread-safe; this is the socket handler's engine and the
    /// in-process API the tests drive directly. `shutdown_after_reply`
    /// (optional) defers a SHUTDOWN's stop-request until the caller has
    /// delivered the response; when null, SHUTDOWN takes effect immediately.
    std::string handle_request(std::string_view request,
                               bool* shutdown_after_reply = nullptr);

    /// Parses + enqueues snapshot bytes. `source` is only a label, for
    /// diagnostics and LIST; it is never opened. Without a cache_dir spool,
    /// such a snapshot cannot be rebuilt once its hot state is evicted.
    /// Returns "OK <hash>" or "ERR <diagnostic>".
    std::string ingest_bytes(std::string_view bytes, const std::string& source);

    /// ingest_bytes over a file's contents; the file is also a rebuild
    /// source for the snapshot's evicted hot state.
    std::string ingest_file(const std::string& path);

    [[nodiscard]] DaemonCounters counters() const;
    [[nodiscard]] const DaemonConfig& config() const noexcept { return config_; }

    /// Set by a SHUTDOWN request; the hosting binary polls this and calls
    /// stop() (a connection thread cannot join itself).
    [[nodiscard]] bool stop_requested() const noexcept {
        return stop_requested_.load(std::memory_order_relaxed);
    }

    /// Content hash of a snapshot: sha1 over its canonical binary
    /// serialization — text and binary files of the same snapshot share it.
    [[nodiscard]] static std::string content_hash(const graph::RoutingSnapshot& snap);

private:
    enum class EntryState { kQueued, kAnalyzed, kFailed };

    /// Per-snapshot lifetime record, kept after analysis (the heavy state
    /// lives in hot_ / on disk, not here).
    struct Entry {
        EntryState state = EntryState::kQueued;
        core::ResilienceSample sample{};
        std::string row;    ///< ResultCache::format_sample_row bytes
        std::string error;  ///< diagnostic when state == kFailed
        std::string source; ///< label, for diagnostics and LIST
        std::string file;   ///< rebuild source the daemon read itself, or empty
    };

    /// Analysis-ready state kept hot between queries.
    struct HotState {
        HotState(graph::RoutingSnapshot snapshot, graph::Digraph graph,
                 flow::FlowNetwork net)
            : snap(std::move(snapshot)), g(std::move(graph)),
              witness_net(std::move(net)) {}

        graph::RoutingSnapshot snap;
        graph::Digraph g;
        flow::FlowNetwork witness_net;
    };

    struct Job {
        std::string hash;
        std::shared_ptr<graph::RoutingSnapshot> snap;
    };

    std::string dispatch(std::string_view request, bool* shutdown_after_reply);
    /// ingest_bytes, with `file` the rebuild source (empty for none).
    std::string ingest(std::string_view bytes, const std::string& source,
                       const std::string& file);
    std::string ingest_snapshot(graph::RoutingSnapshot snap, const std::string& source,
                                const std::string& file);
    void analysis_worker();
    void process_job(Job job);
    void watch_loop();
    void accept_loop();
    void serve_connection(int fd);

    /// Resolves "latest", a full hash, or a unique prefix, then waits for
    /// analysis (bounded by query_timeout_ms). On success fills `hash` and
    /// returns empty; otherwise returns the "ERR ..." response.
    std::string resolve_and_wait(std::string_view id, std::string& hash);

    /// Hot state for an analyzed snapshot, rebuilding from the spool or the
    /// entry's file after eviction. nullptr (with `error` set) if neither
    /// holds the snapshot.
    std::shared_ptr<HotState> hydrate(const std::string& hash, std::string& error);

    [[nodiscard]] std::string result_key(const std::string& hash) const;
    [[nodiscard]] std::string spool_path(const std::string& hash) const;
    [[nodiscard]] std::shared_ptr<HotState> build_hot(
        std::shared_ptr<graph::RoutingSnapshot> snap) const;

    std::string cmd_metrics(std::string_view id, std::string_view field);
    std::string cmd_pair(std::string_view rest);
    std::string cmd_counters() const;
    std::string cmd_list();

    const DaemonConfig config_;

    mutable std::mutex mutex_;
    std::condition_variable analyzed_cv_;
    std::unordered_map<std::string, Entry> entries_;
    std::vector<std::string> order_;  ///< ingest order of hashes
    DaemonCounters counters_{};       ///< LRU + latency fields filled on read
    stats::Log2Histogram query_latency_us_;

    exec::BoundedQueue<Job> queue_;
    LruCache<std::string, HotState> hot_;
    std::unique_ptr<ResultCache> result_cache_;
    std::unique_ptr<exec::ThreadPool> pool_;
    core::ConnectivityAnalyzer analyzer_;

    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};
    int listen_fd_ = -1;
    std::thread worker_;
    std::thread watcher_;
    std::thread acceptor_;
    std::mutex conn_mutex_;
    std::vector<std::thread> conn_threads_;  ///< open connections
    std::thread finished_conn_;  ///< the last ended connection, not yet joined
    std::vector<int> conn_fds_;
};

}  // namespace kadsim::serve

#endif  // KADSIM_SERVE_DAEMON_H
