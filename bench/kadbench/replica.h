// Traced replays of the production pipelines kadbench measures.
//
// Each function here calls the same public functions, with the same inputs
// and options, in the order and with the concurrency production uses, and
// wraps every call into a layer in a Span. Outputs are bit-identical to the
// production path (the benchmark checks this: a traced run must print the
// untraced run's output_sha1). Spans inside the library itself are a later
// change; until then these replays must follow production:
//   - analyze()        ConnectivityAnalyzer::analyze   (core/analyzer.cpp)
//   - run_pipelined()  run_experiment's pipelined engine + Runner::run
//                      (core/experiment.cpp, scen/runner.cpp)
//   - DaemonReplica    Daemon::ingest_bytes, process_job, hydrate, cmd_pair
//                      (serve/daemon.cpp)
#ifndef KADBENCH_REPLICA_H
#define KADBENCH_REPLICA_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "analysis/incremental.h"
#include "core/analyzer.h"
#include "core/experiment.h"
#include "exec/thread_pool.h"
#include "flow/flow_network.h"
#include "flow/flow_workspace.h"
#include "graph/digraph.h"
#include "graph/snapshot.h"
#include "serve/lru_cache.h"
#include "serve/result_cache.h"
#include "tracer.h"

namespace kadbench {

/// ConnectivityAnalyzer::analyze, call by call. `pool` null runs everything
/// inline (a pipelined lane); `delta` null means delta off. `item` labels
/// the spans.
kadsim::core::ResilienceSample analyze(const kadsim::graph::RoutingSnapshot& snap,
                                       const kadsim::core::AnalyzerOptions& options,
                                       kadsim::exec::ThreadPool* pool,
                                       kadsim::analysis::SnapshotDeltaCache* delta,
                                       Tracer& tracer, std::uint64_t item);

/// run_experiment on a caller pool with delta off: Runner::run's stages on
/// this thread, one analysis task per snapshot on `pool`.
kadsim::core::ExperimentSeries run_pipelined(const kadsim::core::ExperimentConfig& config,
                                             kadsim::exec::ThreadPool& pool,
                                             Tracer& tracer);

/// The daemon's ingest and analysis worker (one snapshot at a time, pooled
/// sweeps, delta per the options) and its PAIR path, without the socket.
class DaemonReplica {
public:
    DaemonReplica(std::string cache_dir, kadsim::core::AnalyzerOptions options,
                  kadsim::exec::ThreadPool& pool, std::size_t hot_capacity,
                  Tracer& tracer);

    /// INGEST followed by the worker's process_job. Returns the content hash
    /// and stores the METRICS row (without "OK ") in `row`.
    std::string ingest(std::string_view bytes, std::uint64_t item, std::string& row);

    /// PAIR <hash> u v: hydrate, then the minimum vertex cut. Returns the
    /// daemon's response bytes.
    std::string pair(const std::string& hash, int u, int v, std::uint64_t item);

    /// Delta-cache hits over lookups, κ and λ together (0 with delta off).
    [[nodiscard]] double delta_hit_ratio() const;

private:
    struct HotState {
        kadsim::graph::RoutingSnapshot snap;
        kadsim::graph::Digraph g;
        kadsim::flow::FlowNetwork witness_net;
    };

    [[nodiscard]] std::string result_key(const std::string& hash) const;
    [[nodiscard]] std::string spool_path(const std::string& hash) const;
    std::shared_ptr<HotState> build_hot(kadsim::graph::RoutingSnapshot snap,
                                        std::uint64_t item);

    const std::string cache_dir_;
    const kadsim::core::AnalyzerOptions options_;
    kadsim::exec::ThreadPool& pool_;
    Tracer& tracer_;
    kadsim::serve::ResultCache cache_;
    kadsim::serve::LruCache<std::string, HotState> hot_;
    std::unique_ptr<kadsim::analysis::SnapshotDeltaCache> delta_;
    std::shared_ptr<HotState> pinned_;
    kadsim::flow::FlowWorkspace workspace_;
};

}  // namespace kadbench

#endif  // KADBENCH_REPLICA_H
