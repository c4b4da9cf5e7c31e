// resilience_daemon — resilience analysis as a long-running service.
//
//   resilience_daemon serve --socket PATH [--watch DIR] [--cache DIR]
//                           [--threads N] [--lru N] [--queue N]
//                           [--poll-ms MS] [--c FRAC | --exact] [--no-delta]
//   resilience_daemon query  --socket PATH <request words...>
//   resilience_daemon ingest --socket PATH --in FILE [--source NAME]
//
// `serve` runs until SIGINT/SIGTERM or a SHUTDOWN request, then drains the
// analysis queue and exits 0. `query` sends one protocol request (e.g.
// "KAPPA latest", "COUNTERS", "PAIR latest 0 17") and prints the response:
// exit 0 on an OK response, 1 on an ERR response or connection failure.
// `ingest` pushes a snapshot file over the socket (the watched directory is
// the other ingest path). See docs/architecture.md for the protocol.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "serve/daemon.h"
#include "serve/protocol.h"
#include "util/cli.h"
#include "util/env.h"

namespace {

using namespace kadsim;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

/// Reads integer flag `key` (default `def`) into `out`. Returns false, after
/// one `error:` line, unless the value lies in [1, INT_MAX].
bool positive_flag(const util::CliArgs& args, const std::string& key, std::int64_t def,
                   int& out) {
    const std::int64_t value = args.get_int(key, def);
    if (value < 1 || value > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "error: --%s must be an integer in [1, %d], got %lld\n",
                     key.c_str(), std::numeric_limits<int>::max(),
                     static_cast<long long>(value));
        return false;
    }
    out = static_cast<int>(value);
    return true;
}

int cmd_serve(const util::CliArgs& args) {
    serve::DaemonConfig config;
    config.socket_path = args.get(std::string("socket"), "");
    config.watch_dir = args.get(std::string("watch"), "");
    config.cache_dir = args.get(std::string("cache"), "");
    int lru = 0;
    int queue = 0;
    if (!positive_flag(args, "threads", util::repro_threads(), config.analysis_threads) ||
        !positive_flag(args, "lru", 4, lru) || !positive_flag(args, "queue", 16, queue) ||
        !positive_flag(args, "poll-ms", 200, config.watch_poll_ms)) {
        return 2;
    }
    config.hot_capacity = static_cast<std::size_t>(lru);
    config.queue_capacity = static_cast<std::size_t>(queue);
    // Negated so NaN fails too.
    const double c = args.get_double("c", 0.02);
    if (!(c > 0.0 && c <= 1.0)) {
        std::fprintf(stderr, "error: --c must be a finite fraction in (0, 1], got %s\n",
                     args.get(std::string("c"), "").c_str());
        return 2;
    }
    config.analyzer.sample_c = args.has("exact") ? 1.0 : c;
    config.analyzer.use_delta = !args.has("no-delta");
    if (config.socket_path.empty() && config.watch_dir.empty()) {
        std::fprintf(stderr, "error: serve needs --socket and/or --watch\n");
        return 2;
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // A client vanishing mid-response must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    serve::Daemon daemon(std::move(config));
    daemon.start();
    std::printf("resilience daemon: serving%s%s%s%s\n",
                daemon.config().socket_path.empty() ? "" : " socket=",
                daemon.config().socket_path.c_str(),
                daemon.config().watch_dir.empty() ? "" : " watch=",
                daemon.config().watch_dir.c_str());
    std::fflush(stdout);
    while (g_signal == 0 && !daemon.stop_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    daemon.stop();
    std::printf("resilience daemon: clean shutdown (%s)\n",
                g_signal != 0 ? "signal" : "SHUTDOWN request");
    return 0;
}

/// One request/response round trip; returns the response ("ERR ..." on
/// transport failures, so callers have a single error path).
std::string round_trip(const std::string& socket_path, const std::string& request) {
    std::string error;
    const int fd = serve::connect_unix(socket_path, error);
    if (fd < 0) return "ERR " + error;
    std::string response = "ERR connection closed before response";
    if (serve::write_frame(fd, request) == serve::FrameResult::kOk) {
        std::string payload;
        if (serve::read_frame(fd, payload) == serve::FrameResult::kOk) {
            response = std::move(payload);
        }
    } else {
        response = "ERR failed to send request";
    }
    ::close(fd);
    return response;
}

int finish(const std::string& response) {
    std::printf("%s\n", response.c_str());
    return response.rfind("OK", 0) == 0 ? 0 : 1;
}

int cmd_query(const util::CliArgs& args) {
    const std::string socket_path = args.get(std::string("socket"), "");
    if (socket_path.empty() || args.positional().size() < 2) {
        std::fprintf(stderr, "error: query needs --socket PATH and a request\n");
        return 2;
    }
    std::string request;
    for (std::size_t i = 1; i < args.positional().size(); ++i) {
        if (i > 1) request += ' ';
        request += args.positional()[i];
    }
    return finish(round_trip(socket_path, request));
}

int cmd_ingest(const util::CliArgs& args) {
    const std::string socket_path = args.get(std::string("socket"), "");
    const std::string in_path = args.get(std::string("in"), "");
    if (socket_path.empty() || in_path.empty()) {
        std::fprintf(stderr, "error: ingest needs --socket PATH and --in FILE\n");
        return 2;
    }
    std::ifstream in(in_path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "error: cannot open snapshot file: %s\n", in_path.c_str());
        return 1;
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (in.bad()) {
        std::fprintf(stderr, "error: read failed: %s\n", in_path.c_str());
        return 1;
    }
    const std::string source = args.get(std::string("source"), in_path);
    return finish(round_trip(socket_path, "INGEST " + source + "\n" + bytes.str()));
}

void print_usage(const char* program) {
    std::fprintf(
        stderr,
        "usage: %s <serve|query|ingest> [--key value ...]\n"
        "\n"
        "  serve  --socket PATH [--watch DIR] [--cache DIR] [--threads N]\n"
        "         [--lru N] [--queue N] [--poll-ms MS] [--c FRAC | --exact]\n"
        "         [--no-delta]\n"
        "         --threads N: analysis pool size (default REPRO_THREADS, else\n"
        "         the core count); the analysis thread is one extra lane,\n"
        "         and N = 1 analyses on that thread alone\n"
        "         every N and MS must be >= 1, and FRAC in (0, 1]\n"
        "  query  --socket PATH <request words...>   e.g. KAPPA latest\n"
        "  ingest --socket PATH --in FILE [--source NAME]\n"
        "\n"
        "Requests: PING | LIST | COUNTERS | SHUTDOWN | METRICS <id> |\n"
        "          KAPPA <id> | LAMBDA <id> | SCC <id> | ART <id> |\n"
        "          PAIR <id> <u> <v>      (<id> = latest | hash | prefix)\n",
        program);
}

}  // namespace

int main(int argc, char** argv) {
    const kadsim::util::CliArgs args(argc, argv);
    if (args.positional().empty() || args.has("help")) {
        print_usage(args.program().c_str());
        return args.has("help") ? 0 : 2;
    }
    const std::string& command = args.positional().front();
    try {
        if (command == "serve") return cmd_serve(args);
        if (command == "query") return cmd_query(args);
        if (command == "ingest") return cmd_ingest(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "error: unknown command: %s\n", command.c_str());
    return 2;
}
