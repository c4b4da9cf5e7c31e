// snapshot_tool — offline analysis of routing-table snapshots, mirroring the
// paper's §5.2 batch pipeline (snapshot file → Even transform → DIMACS →
// max-flow on a cluster). Lets a user analyze saved overlays without
// re-simulating, and exports DIMACS problems consumable by external solvers
// such as the original HIPR.
//
//   snapshot_tool dump    --nodes 200 --minutes 120 --out snap.txt [--binary]
//   snapshot_tool analyze --in snap.txt [--exact] [--c 0.02]
//   snapshot_tool cut     --in snap.txt --from 0 --to 17
//   snapshot_tool dimacs  --in snap.txt --from 0 --to 17 --out problem.max
//   snapshot_tool convert --in snap.txt --out snap.bin --to-binary
//   snapshot_tool convert --in snap.bin --out snap.txt --to-text
//
// Snapshot files are auto-detected on read: the text format ("# kadsim
// snapshot" header) and the versioned little-endian binary format (KSNP
// magic; see --help) are interchangeable everywhere a snapshot is consumed.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "core/analyzer.h"
#include "core/resilience.h"
#include "exec/thread_pool.h"
#include "flow/dimacs.h"
#include "flow/even_transform.h"
#include "flow/mincut.h"
#include "graph/graph_stats.h"
#include "graph/snapshot.h"
#include "scen/runner.h"
#include "util/cli.h"
#include "util/env.h"

namespace {

using namespace kadsim;

graph::RoutingSnapshot load_snapshot(const std::string& path) {
    // Binary mode: parse() auto-detects the format, and the KSNP payload
    // must not go through newline translation.
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open snapshot file: " + path);
    graph::RoutingSnapshot snap;
    try {
        snap = graph::RoutingSnapshot::parse(in);
    } catch (const std::exception& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
    // An empty result means the file held no snapshot data at all (empty
    // file, or a format parse() does not recognize as either text or KSNP):
    // every command needs nodes to operate on, so fail here with the path.
    if (snap.nodes.empty()) {
        throw std::runtime_error(path + ": no nodes parsed (empty or unrecognized "
                                        "snapshot file)");
    }
    return snap;
}

void save_snapshot(const graph::RoutingSnapshot& snap, const std::string& path,
                   bool binary) {
    std::ofstream out(path, binary ? std::ios::binary : std::ios::out);
    if (!out) throw std::runtime_error("cannot open output file: " + path);
    if (binary) {
        snap.save_binary(out);
    } else {
        snap.save(out);
    }
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + path);
}

int cmd_dump(const util::CliArgs& args) {
    const int nodes = static_cast<int>(args.get_int("nodes", 200));
    const auto minutes = args.get_int("minutes", 120);
    const std::string out_path = args.get(std::string("out"), "snapshot.txt");

    scen::ScenarioConfig scenario;
    scenario.name = "snapshot-dump";
    scenario.initial_size = nodes;
    scenario.seed = util::repro_seed();
    scenario.kad.k = static_cast<int>(args.get_int("k", 20));
    scenario.kad.s = 1;
    scenario.traffic.enabled = true;
    scenario.phases.end = sim::minutes(minutes);
    scenario.phases.setup_end = std::min(scenario.phases.setup_end, scenario.phases.end);
    scenario.phases.stabilization_end =
        std::min(scenario.phases.stabilization_end, scenario.phases.end);

    scen::Runner runner(scenario);
    runner.step_to(sim::minutes(minutes));
    const auto snap = runner.snapshot();
    save_snapshot(snap, out_path, args.has("binary"));
    std::printf("wrote %zu nodes to %s (t=%lld min)\n", snap.nodes.size(),
                out_path.c_str(), static_cast<long long>(minutes));
    return 0;
}

int cmd_convert(const util::CliArgs& args) {
    const bool to_binary = args.has("to-binary");
    const bool to_text = args.has("to-text");
    if (to_binary == to_text) {
        std::fprintf(stderr,
                     "error: convert needs exactly one of --to-binary / --to-text\n");
        return 2;
    }
    const std::string in_path = args.get(std::string("in"), "snapshot.txt");
    const std::string out_path =
        args.get(std::string("out"), to_binary ? "snapshot.bin" : "snapshot.txt");
    const auto snap = load_snapshot(in_path);
    save_snapshot(snap, out_path, to_binary);
    std::printf("converted %s -> %s (%zu nodes, %s)\n", in_path.c_str(),
                out_path.c_str(), snap.nodes.size(),
                to_binary ? "binary" : "text");
    return 0;
}

int cmd_analyze(const util::CliArgs& args) {
    // Negated so NaN fails too.
    const double c = args.get_double("c", 0.02);
    if (!(c > 0.0 && c <= 1.0)) {
        std::fprintf(stderr, "error: --c must be a finite fraction in (0, 1], got %s\n",
                     args.get(std::string("c"), "").c_str());
        return 2;
    }
    const auto snap = load_snapshot(args.get(std::string("in"), "snapshot.txt"));
    core::AnalyzerOptions options;
    options.sample_c = args.has("exact") ? 1.0 : c;
    exec::ThreadPool pool(util::repro_threads());
    const auto sample = core::ConnectivityAnalyzer(options).analyze(snap, &pool);

    const auto g = snap.to_digraph();
    const auto out_deg = graph::out_degree_summary(g);
    const auto in_deg = graph::in_degree_summary(g);

    std::printf("snapshot: t=%.0f min, n=%d, m=%lld\n", sample.time_min, sample.n,
                static_cast<long long>(sample.m));
    std::printf("degrees: out min/mean/max = %d/%.1f/%d   in = %d/%.1f/%d\n",
                out_deg.min, out_deg.mean, out_deg.max, in_deg.min, in_deg.mean,
                in_deg.max);
    std::printf("reciprocity: %.3f   strongly connected components: %d\n",
                sample.reciprocity, sample.scc_count);
    std::printf("vertex connectivity: kappa_min=%d kappa_avg=%.2f (%llu pairs%s)\n",
                sample.kappa_min, sample.kappa_avg,
                static_cast<unsigned long long>(sample.pairs_evaluated),
                options.sample_c >= 1.0 ? ", exact" : ", sampled");
    std::printf("resilience: r = %d  (%s)\n",
                core::resilience_from_connectivity(sample.kappa_min),
                core::resilience_verdict(sample.kappa_min,
                                         static_cast<int>(args.get_int("attackers", 1)))
                    .c_str());
    return 0;
}

int cmd_cut(const util::CliArgs& args) {
    const auto snap = load_snapshot(args.get(std::string("in"), "snapshot.txt"));
    const auto g = snap.to_digraph();
    int from = static_cast<int>(args.get_int("from", -1));
    int to = static_cast<int>(args.get_int("to", -1));
    if (from < 0 || to < 0) {
        // No pair given: use the first non-adjacent pair (κ is only defined
        // for those).
        for (int u = 0; u < g.vertex_count() && from < 0; ++u) {
            for (int v = 0; v < g.vertex_count(); ++v) {
                if (u != v && !g.has_edge(u, v)) {
                    from = u;
                    to = v;
                    break;
                }
            }
        }
        if (from < 0) {
            std::fprintf(stderr, "error: graph is complete: kappa = n-1, no cut\n");
            return 1;
        }
    }
    if (from >= g.vertex_count() || to >= g.vertex_count() || from == to ||
        g.has_edge(from, to)) {
        std::fprintf(stderr, "error: need two distinct, non-adjacent vertex indices\n");
        return 1;
    }
    const auto cut = flow::min_vertex_cut(g, from, to);
    std::printf("kappa(%d, %d) = %zu\nminimum vertex cut (addresses):", from, to,
                cut.size());
    for (const int v : cut) {
        std::printf(" %u", snap.nodes[static_cast<std::size_t>(v)].address);
    }
    std::printf("\n");
    return 0;
}

int cmd_dimacs(const util::CliArgs& args) {
    const auto snap = load_snapshot(args.get(std::string("in"), "snapshot.txt"));
    const auto g = snap.to_digraph();
    const int from = static_cast<int>(args.get_int("from", 0));
    const int to = static_cast<int>(args.get_int("to", g.vertex_count() - 1));
    if (from < 0 || to < 0 || from >= g.vertex_count() || to >= g.vertex_count() ||
        from == to) {
        std::fprintf(stderr,
                     "error: --from/--to must be distinct vertex indices in [0, %d)\n",
                     g.vertex_count());
        return 1;
    }
    const std::string out_path = args.get(std::string("out"), "problem.max");
    const auto net = flow::even_transform(g);
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot open output file: " + out_path);
    flow::write_dimacs(net, flow::out_vertex(from), flow::in_vertex(to), out);
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + out_path);
    std::printf("wrote DIMACS max-flow problem (%d vertices, %d arcs) to %s\n",
                net.vertex_count(), net.arc_count() / 2, out_path.c_str());
    return 0;
}

}  // namespace

namespace {

void print_usage(const char* program) {
    std::fprintf(
        stderr,
        "usage: %s <dump|analyze|cut|dimacs|convert> [--key value ...]\n"
        "\n"
        "  dump    --nodes N --minutes M --out FILE [--binary]\n"
        "  analyze --in FILE [--exact] [--c FRAC] [--attackers N]   (0 < FRAC <= 1)\n"
        "  cut     --in FILE [--from U --to V]\n"
        "  dimacs  --in FILE [--from U --to V] --out FILE\n"
        "  convert --in FILE --out FILE (--to-binary | --to-text)\n"
        "\n"
        "Snapshot files are read with format auto-detection (text or binary).\n"
        "Binary snapshot layout (all fields little-endian):\n"
        "  char[4]  magic    'K' 'S' 'N' 'P'\n"
        "  u32      version  currently 1\n"
        "  i64      time_ms  capture instant (simulated ms)\n"
        "  u64      n        node count\n"
        "  u64      m        total contact count\n"
        "  u32[n]   addresses\n"
        "  u32[n+1] offsets   CSR row starts into contacts (omitted when n=0)\n"
        "  u32[m]   contacts  global addresses, rows in offsets order\n",
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
        if (command == "dump") return cmd_dump(args);
        if (command == "analyze") return cmd_analyze(args);
        if (command == "cut") return cmd_cut(args);
        if (command == "dimacs") return cmd_dimacs(args);
        if (command == "convert") return cmd_convert(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "error: unknown command: %s\n", command.c_str());
    return 2;
}
