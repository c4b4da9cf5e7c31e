#include "serve/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "exec/thread_pool.h"
#include "flow/flow_workspace.h"
#include "flow/mincut.h"
#include "serve/protocol.h"
#include "util/csv.h"
#include "util/sha1.h"

namespace kadsim::serve {

namespace {

[[nodiscard]] bool is_err(std::string_view response) {
    return response.starts_with("ERR");
}

[[nodiscard]] std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() &&
           (s.back() == ' ' || s.back() == '\t' || s.back() == '\n' || s.back() == '\r')) {
        s.remove_suffix(1);
    }
    return s;
}

/// Output sink that feeds each write straight into SHA-1, so a snapshot's
/// canonical bytes are hashed as save_binary produces them, with no
/// serialized copy in between.
class Sha1Sink final : public std::streambuf {
public:
    [[nodiscard]] util::Sha1Digest finish() noexcept { return sha1_.finish(); }

protected:
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        sha1_.update(std::string_view(s, static_cast<std::size_t>(n)));
        return n;
    }

    int_type overflow(int_type ch) override {
        if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
        const char c = traits_type::to_char_type(ch);
        sha1_.update(std::string_view(&c, 1));
        return ch;
    }

private:
    util::Sha1 sha1_;
};

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity),
      hot_(config_.hot_capacity),
      analyzer_(config_.analyzer) {
    if (!config_.cache_dir.empty()) {
        result_cache_ = std::make_unique<ResultCache>(config_.cache_dir);
    }
    if (config_.analysis_threads > 1) {
        pool_ = std::make_unique<exec::ThreadPool>(config_.analysis_threads);
    }
}

Daemon::~Daemon() { stop(); }

std::string Daemon::content_hash(const graph::RoutingSnapshot& snap) {
    Sha1Sink sink;
    std::ostream out(&sink);
    snap.save_binary(out);
    return util::to_hex(sink.finish());
}

std::string Daemon::result_key(const std::string& hash) const {
    std::ostringstream key;
    key << "snapshot|" << hash << "|c=" << config_.analyzer.sample_c
        << "|minsrc=" << config_.analyzer.min_sources;
    return key.str();
}

std::string Daemon::spool_path(const std::string& hash) const {
    if (config_.cache_dir.empty()) return {};
    return config_.cache_dir + "/snapshots/" + hash + ".ksnp";
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void Daemon::start() {
    if (running_.exchange(true)) return;
    if (!config_.socket_path.empty()) {
        std::string error;
        listen_fd_ = listen_unix(config_.socket_path, error);
        if (listen_fd_ < 0) {
            running_.store(false);
            throw std::runtime_error("resilience daemon: " + error);
        }
    }
    worker_ = std::thread(&Daemon::analysis_worker, this);
    if (!config_.watch_dir.empty()) {
        // Create the watch directory up front so producers can start moving
        // files in immediately (and the poll loop doesn't log a miss every
        // cycle until the first producer creates it).
        if (!util::ensure_directory(config_.watch_dir)) {
            std::fprintf(stderr,
                         "resilience daemon: cannot create watch dir %s\n",
                         config_.watch_dir.c_str());
        }
        watcher_ = std::thread(&Daemon::watch_loop, this);
    }
    if (listen_fd_ >= 0) acceptor_ = std::thread(&Daemon::accept_loop, this);
}

void Daemon::stop() {
    running_.store(false);
    // Intake first: stop accepting connections and watching the directory,
    // then disconnect clients, and only then drain the analysis queue — a
    // client mid-query still gets its answer because the worker outlives it.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    if (watcher_.joinable()) watcher_.join();
    {
        std::lock_guard lock(conn_mutex_);
        for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    std::vector<std::thread> conns;
    {
        std::lock_guard lock(conn_mutex_);
        conns.swap(conn_threads_);
        conns.push_back(std::move(finished_conn_));
    }
    for (auto& t : conns) {
        if (t.joinable()) t.join();
    }
    queue_.close();
    if (worker_.joinable()) worker_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(config_.socket_path.c_str());
    }
}

// ---------------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------------

std::string Daemon::ingest_bytes(std::string_view bytes, const std::string& source) {
    return ingest(bytes, source, std::string());
}

std::string Daemon::ingest(std::string_view bytes, const std::string& source,
                           const std::string& file) {
    graph::RoutingSnapshot snap;
    try {
        std::istringstream in(std::string(bytes), std::ios::binary);
        snap = graph::RoutingSnapshot::parse(in);
    } catch (const std::exception& e) {
        std::lock_guard lock(mutex_);
        ++counters_.rejected;
        return "ERR " + source + ": " + e.what();
    }
    if (snap.nodes.empty()) {
        std::lock_guard lock(mutex_);
        ++counters_.rejected;
        return "ERR " + source + ": no nodes parsed (empty or unrecognized snapshot)";
    }
    return ingest_snapshot(std::move(snap), source, file);
}

std::string Daemon::ingest_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::lock_guard lock(mutex_);
        ++counters_.rejected;
        return "ERR cannot open snapshot file: " + path;
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (in.bad()) {
        std::lock_guard lock(mutex_);
        ++counters_.rejected;
        return "ERR read failed: " + path;
    }
    return ingest(bytes.str(), path, path);
}

std::string Daemon::ingest_snapshot(graph::RoutingSnapshot snap,
                                    const std::string& source, const std::string& file) {
    const std::string hash = content_hash(snap);
    {
        std::lock_guard lock(mutex_);
        const auto [it, inserted] = entries_.try_emplace(hash);
        if (!inserted) {
            ++counters_.duplicates;
            return "OK " + hash;
        }
        it->second.source = source;
        it->second.file = file;
        order_.push_back(hash);
        ++counters_.ingested;
    }
    // push() blocks while the queue is full — ingest backpressure: a
    // producer can never race arbitrarily far ahead of the analysis worker.
    Job job{hash, std::make_shared<graph::RoutingSnapshot>(std::move(snap))};
    if (!queue_.push(std::move(job))) {
        {
            std::lock_guard lock(mutex_);
            auto& entry = entries_[hash];
            entry.state = EntryState::kFailed;
            entry.error = "daemon stopping";
        }
        analyzed_cv_.notify_all();
        return "ERR daemon stopping";
    }
    return "OK " + hash;
}

// ---------------------------------------------------------------------------
// Analysis worker
// ---------------------------------------------------------------------------

void Daemon::analysis_worker() {
    // The single worker is what makes AnalyzerOptions::use_delta legal here:
    // snapshots are analyzed one at a time, in ingest order.
    while (auto job = queue_.pop()) process_job(std::move(*job));
}

std::shared_ptr<Daemon::HotState> Daemon::build_hot(
    std::shared_ptr<graph::RoutingSnapshot> snap) const {
    graph::Digraph g = snap->to_digraph(pool_.get());
    flow::FlowNetwork witness_net = flow::mincut_witness_network(g);
    return std::make_shared<HotState>(std::move(*snap), std::move(g),
                                      std::move(witness_net));
}

void Daemon::process_job(Job job) {
    const std::string key = result_key(job.hash);
    core::ResilienceSample sample{};
    bool cached = false;
    if (result_cache_) {
        core::ExperimentSeries series;
        if (result_cache_->load(key, series) && series.samples.size() == 1) {
            sample = series.samples.front();
            cached = true;
        }
    }
    if (!cached) {
        try {
            sample = analyzer_.analyze(*job.snap, pool_.get());
        } catch (const std::exception& e) {
            {
                std::lock_guard lock(mutex_);
                auto& entry = entries_[job.hash];
                entry.state = EntryState::kFailed;
                entry.error = e.what();
                ++counters_.analysis_failures;
            }
            analyzed_cv_.notify_all();
            return;
        }
        if (result_cache_) {
            core::ExperimentSeries series;
            series.samples.push_back(sample);
            (void)result_cache_->store(key, series);
        }
    }
    // Spool the canonical binary so evicted hot state can be rebuilt even
    // when the snapshot arrived over the socket (no source file).
    const std::string spool = spool_path(job.hash);
    if (!spool.empty() && !std::filesystem::exists(spool) &&
        util::ensure_directory(config_.cache_dir + "/snapshots")) {
        (void)publish_file(spool,
                           [&](std::ostream& out) { job.snap->save_binary(out); });
    }
    hot_.put(job.hash, build_hot(std::move(job.snap)));
    {
        std::lock_guard lock(mutex_);
        auto& entry = entries_[job.hash];
        entry.state = EntryState::kAnalyzed;
        entry.sample = sample;
        entry.row = ResultCache::format_sample_row(sample);
        if (cached) {
            ++counters_.result_cache_hits;
        } else {
            ++counters_.analyzed;
        }
    }
    analyzed_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Directory watcher
// ---------------------------------------------------------------------------

void Daemon::watch_loop() {
    namespace fs = std::filesystem;
    std::set<std::string> seen;
    while (running_.load(std::memory_order_relaxed)) {
        std::vector<std::string> fresh;
        try {
            for (const auto& dirent : fs::directory_iterator(config_.watch_dir)) {
                if (!dirent.is_regular_file()) continue;
                const std::string name = dirent.path().filename().string();
                // Dotfiles are the in-progress-write convention: writers
                // drop ".name.tmp" and rename to "name" once complete.
                if (name.empty() || name.front() == '.') continue;
                const std::string path = dirent.path().string();
                if (seen.insert(path).second) fresh.push_back(path);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "resilience daemon: watch %s: %s\n",
                         config_.watch_dir.c_str(), e.what());
        }
        // Name order within one poll round: a batch dropped between polls is
        // ingested as the series its filenames spell.
        std::sort(fresh.begin(), fresh.end());
        for (const auto& path : fresh) {
            const std::string response = ingest_file(path);
            if (is_err(response)) {
                std::fprintf(stderr, "resilience daemon: rejected %s\n",
                             response.c_str() + 4);
            }
        }
        for (int waited = 0;
             waited < config_.watch_poll_ms && running_.load(std::memory_order_relaxed);
             waited += 20) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }
}

// ---------------------------------------------------------------------------
// Socket server
// ---------------------------------------------------------------------------

void Daemon::accept_loop() {
    while (running_.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            break;  // stop() shut the listening socket down
        }
        std::lock_guard lock(conn_mutex_);
        if (!running_.load(std::memory_order_relaxed)) {
            ::close(fd);
            break;
        }
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back(&Daemon::serve_connection, this, fd);
    }
}

void Daemon::serve_connection(int fd) {
    std::string request;
    while (true) {
        const FrameResult r = read_frame(fd, request);
        if (r == FrameResult::kTooLarge) {
            (void)write_frame(fd, "ERR frame exceeds maximum size");
            break;
        }
        if (r != FrameResult::kOk) break;
        bool shutdown_after_reply = false;
        const std::string response = handle_request(request, &shutdown_after_reply);
        const FrameResult w = write_frame(fd, response);
        // SHUTDOWN's stop-request is raised only after the reply frame went
        // out (or definitively failed), so the client always sees its "OK".
        if (shutdown_after_reply) stop_requested_.store(true);
        if (w != FrameResult::kOk) break;
    }
    // Park this thread's handle in the finished slot and join the one it
    // displaces, which has nothing left to run: an ended connection's
    // thread, and its stack, is reclaimed when the next connection ends or
    // by stop(), so the daemon holds one thread per open connection plus at
    // most one finished. After stop() took the handles it finds none here.
    std::thread previous;
    {
        std::lock_guard lock(conn_mutex_);
        conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                        conn_fds_.end());
        const auto self = std::find_if(
            conn_threads_.begin(), conn_threads_.end(),
            [](const std::thread& t) { return t.get_id() == std::this_thread::get_id(); });
        if (self != conn_threads_.end()) {
            previous = std::exchange(finished_conn_, std::move(*self));
            conn_threads_.erase(self);
        }
    }
    ::close(fd);
    if (previous.joinable()) previous.join();
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

std::string Daemon::handle_request(std::string_view request,
                                   bool* shutdown_after_reply) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::string response = dispatch(request, shutdown_after_reply);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::lock_guard lock(mutex_);
    query_latency_us_.add(us);
    ++counters_.queries;
    if (is_err(response)) ++counters_.query_errors;
    return response;
}

std::string Daemon::dispatch(std::string_view request, bool* shutdown_after_reply) {
    const std::size_t sp = request.find_first_of(" \n");
    const std::string_view cmd =
        request.substr(0, sp == std::string_view::npos ? request.size() : sp);
    const std::string_view rest =
        sp == std::string_view::npos ? std::string_view{} : request.substr(sp + 1);

    if (cmd == "PING") return "OK pong";
    if (cmd == "COUNTERS") return cmd_counters();
    if (cmd == "LIST") return cmd_list();
    if (cmd == "SHUTDOWN") {
        if (shutdown_after_reply) {
            *shutdown_after_reply = true;
        } else {
            stop_requested_.store(true);
        }
        return "OK shutting down";
    }
    if (cmd == "METRICS") return cmd_metrics(trim(rest), "row");
    if (cmd == "KAPPA") return cmd_metrics(trim(rest), "kappa");
    if (cmd == "LAMBDA") return cmd_metrics(trim(rest), "lambda");
    if (cmd == "SCC") return cmd_metrics(trim(rest), "scc");
    if (cmd == "ART") return cmd_metrics(trim(rest), "art");
    if (cmd == "PAIR") return cmd_pair(rest);
    if (cmd == "INGEST") {
        // Payload: "INGEST <source-label>\n<raw snapshot bytes>".
        const std::size_t nl = rest.find('\n');
        if (nl == std::string_view::npos) {
            return "ERR INGEST needs a source label line followed by snapshot bytes";
        }
        const std::string source{trim(rest.substr(0, nl))};
        return ingest_bytes(rest.substr(nl + 1),
                            source.empty() ? std::string("socket") : source);
    }
    return "ERR unknown command: " + std::string(cmd);
}

std::string Daemon::resolve_and_wait(std::string_view id, std::string& hash) {
    std::unique_lock lock(mutex_);
    std::string resolved;
    if (id.empty() || id == "latest") {
        if (order_.empty()) return "ERR no snapshots ingested";
        resolved = order_.back();
    } else {
        const std::string want(id);
        if (entries_.contains(want)) {
            resolved = want;
        } else {
            for (const auto& candidate : order_) {
                if (candidate.starts_with(want)) {
                    if (!resolved.empty()) return "ERR ambiguous snapshot id: " + want;
                    resolved = candidate;
                }
            }
            if (resolved.empty()) return "ERR unknown snapshot id: " + want;
        }
    }
    auto& entry = entries_[resolved];
    const bool done = analyzed_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.query_timeout_ms),
        [&entry] { return entry.state != EntryState::kQueued; });
    if (!done) return "ERR timed out waiting for analysis of " + resolved;
    if (entry.state == EntryState::kFailed) {
        return "ERR analysis of " + resolved + " failed: " + entry.error;
    }
    hash = resolved;
    return {};
}

std::string Daemon::cmd_metrics(std::string_view id, std::string_view field) {
    std::string hash;
    if (std::string err = resolve_and_wait(id, hash); !err.empty()) return err;
    core::ResilienceSample s{};
    std::string row;
    {
        std::lock_guard lock(mutex_);
        const auto& entry = entries_[hash];
        s = entry.sample;
        row = entry.row;
    }
    if (field == "row") return "OK " + row;
    std::ostringstream out;
    out << "OK ";
    if (field == "kappa") {
        out << "kappa_min=" << s.kappa_min << " kappa_avg=" << s.kappa_avg;
    } else if (field == "lambda") {
        out << "lambda_min=" << s.lambda_min << " lambda_avg=" << s.lambda_avg;
    } else if (field == "scc") {
        out << "scc=" << s.scc_count << " scc_frac=" << s.scc_frac
            << " wcc_frac=" << s.wcc_frac;
    } else {
        out << "articulation=" << s.articulation_points << " bridges=" << s.bridges;
    }
    return out.str();
}

std::shared_ptr<Daemon::HotState> Daemon::hydrate(const std::string& hash,
                                                  std::string& error) {
    if (auto hot = hot_.get(hash)) return hot;
    std::string file;
    {
        std::lock_guard lock(mutex_);
        file = entries_[hash].file;
    }
    for (const std::string& path : {spool_path(hash), file}) {
        if (path.empty()) continue;
        std::ifstream in(path, std::ios::binary);
        if (!in) continue;
        auto snap = std::make_shared<graph::RoutingSnapshot>();
        try {
            *snap = graph::RoutingSnapshot::parse(in);
        } catch (const std::exception&) {
            continue;
        }
        // The file may have been replaced since ingest; serve only the
        // snapshot the hash names.
        if (content_hash(*snap) != hash) continue;
        auto hot = build_hot(std::move(snap));
        hot_.put(hash, hot);
        return hot;
    }
    error = "hot state for " + hash + " was evicted and no snapshot file remains";
    return nullptr;
}

std::string Daemon::cmd_pair(std::string_view rest) {
    std::istringstream in{std::string(rest)};
    std::string id;
    int u = -1;
    int v = -1;
    if (!(in >> id >> u >> v)) return "ERR usage: PAIR <id> <u> <v>";
    std::string hash;
    if (std::string err = resolve_and_wait(id, hash); !err.empty()) return err;
    std::string error;
    const auto hot = hydrate(hash, error);
    if (!hot) return "ERR " + error;
    const int n = hot->g.vertex_count();
    if (u < 0 || v < 0 || u >= n || v >= n || u == v) {
        return "ERR PAIR needs two distinct vertex indices in [0, " +
               std::to_string(n) + ")";
    }
    // κ(u,v) is undefined for adjacent pairs (no cut separates them); the
    // flow kernel asserts this, so reject here instead of aborting.
    if (hot->g.has_edge(u, v)) {
        return "ERR kappa(u,v) undefined: " + std::to_string(u) + " -> " +
               std::to_string(v) + " is a routing-table edge (adjacent pair)";
    }
    // The workspace (attached arc copies + scratch) is per thread and pinned
    // to its network: repeated PAIR queries on one connection reuse it via
    // the touched-arc undo log instead of re-attaching. The shared_ptr pin
    // also keeps an evicted network alive while this thread still uses it.
    thread_local std::shared_ptr<HotState> pinned;
    thread_local flow::FlowWorkspace workspace;
    if (pinned != hot) {
        workspace.attach(hot->witness_net);
        pinned = hot;
    }
    const auto cut = flow::min_vertex_cut(hot->g, hot->witness_net, workspace, u, v);
    std::ostringstream out;
    out << "OK kappa=" << cut.size() << " cut_addresses=";
    for (std::size_t i = 0; i < cut.size(); ++i) {
        out << (i > 0 ? "," : "")
            << hot->snap.nodes[static_cast<std::size_t>(cut[i])].address;
    }
    return out.str();
}

DaemonCounters Daemon::counters() const {
    DaemonCounters c;
    {
        std::lock_guard lock(mutex_);
        c = counters_;
        c.query_latency_p50_us = query_latency_us_.quantile(0.5);
        c.query_latency_p99_us = query_latency_us_.quantile(0.99);
    }
    const auto lru = hot_.stats();
    c.hot_hits = lru.hits;
    c.hot_misses = lru.misses;
    c.hot_evictions = lru.evictions;
    c.queue_depth = queue_.size();
    return c;
}

std::string Daemon::cmd_counters() const {
    const DaemonCounters c = counters();
    std::ostringstream out;
    out << "OK\n"
        << "ingested=" << c.ingested << '\n'
        << "duplicates=" << c.duplicates << '\n'
        << "rejected=" << c.rejected << '\n'
        << "analyzed=" << c.analyzed << '\n'
        << "analysis_failures=" << c.analysis_failures << '\n'
        << "result_cache_hits=" << c.result_cache_hits << '\n'
        << "queue_depth=" << c.queue_depth << '\n'
        << "hot_hits=" << c.hot_hits << '\n'
        << "hot_misses=" << c.hot_misses << '\n'
        << "hot_evictions=" << c.hot_evictions << '\n'
        << "queries=" << c.queries << '\n'
        << "query_errors=" << c.query_errors << '\n'
        << "query_latency_p50_us=" << c.query_latency_p50_us << '\n'
        << "query_latency_p99_us=" << c.query_latency_p99_us;
    return out.str();
}

std::string Daemon::cmd_list() {
    std::lock_guard lock(mutex_);
    std::ostringstream out;
    out << "OK " << order_.size();
    for (const auto& hash : order_) {
        const auto& entry = entries_[hash];
        const char* state = entry.state == EntryState::kAnalyzed  ? "analyzed"
                            : entry.state == EntryState::kFailed ? "failed"
                                                                 : "queued";
        out << '\n' << hash << ' ' << state << ' ' << entry.source;
    }
    return out.str();
}

}  // namespace kadsim::serve
