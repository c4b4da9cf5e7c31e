// Per-thread mutable state of a max-flow computation over one immutable
// flow::FlowNetwork.
//
// A workspace owns exactly the state a solver mutates: the residual arcs
// (capacity interleaved with the arc head, so the hot BFS/DFS loops touch
// one cache line per arc probe) and the shared scratch buffers of the
// Dinic and push-relabel kernels. Ownership rule: the attached
// FlowNetwork must outlive the workspace, many workspaces may attach to one
// network concurrently, and a workspace must never be shared across threads.
//
// Every capacity mutation goes through add_flow(), which records the touched
// arc pair in an undo log; reset() restores only those arcs, so the per-pair
// reset cost of a connectivity sweep is O(arcs touched by the previous run)
// instead of O(m+n). With κ ≈ k and degree-capped early stops a run touches
// a few dozen arcs of a multi-thousand-arc network — the log, not the sweep,
// is what makes large-n snapshots affordable.
#ifndef KADSIM_FLOW_FLOW_WORKSPACE_H
#define KADSIM_FLOW_FLOW_WORKSPACE_H

#include <cstdint>
#include <vector>

#include "flow/flow_network.h"
#include "util/assert.h"

namespace kadsim::flow {

class FlowWorkspace {
public:
    /// Residual state of one arc: capacity plus a copy of the head vertex,
    /// interleaved so solvers read both with one load.
    struct ResidualArc {
        int cap = 0;
        int to = 0;
    };

    /// Kernel counters, cumulative across the workspace's lifetime. A
    /// "reset" here is a touched-arc undo of a run that modified anything;
    /// it is counted as a full sweep avoided when the log was shorter than
    /// the arc array (i.e. the undo did strictly less work than the old
    /// O(m+n) capacity sweep).
    struct Stats {
        std::uint64_t arcs_touched = 0;
        std::uint64_t resets = 0;
        std::uint64_t full_sweeps_avoided = 0;
    };

    FlowWorkspace() = default;
    explicit FlowWorkspace(const FlowNetwork& net) { attach(net); }

    /// Binds to `net`: copies the as-built capacities and arc heads, sizes
    /// the scratch buffers, clears the undo log and the counters.
    void attach(const FlowNetwork& net) {
        KADSIM_ASSERT(net.finalized());
        net_ = &net;
        const auto caps = net.original_caps();
        arcs_.resize(caps.size());
        for (std::size_t a = 0; a < caps.size(); ++a) {
            arcs_[a] = ResidualArc{caps[a], net.arc_to(static_cast<int>(a))};
        }
        in_log_.assign(arcs_.size(), 0);
        touched_.clear();
        stats_ = Stats{};
    }

    [[nodiscard]] bool attached() const noexcept { return net_ != nullptr; }
    [[nodiscard]] const FlowNetwork& network() const {
        KADSIM_ASSERT(net_ != nullptr);
        return *net_;
    }

    /// Residual arc (capacity + head) of arc `index`.
    [[nodiscard]] const ResidualArc& arc(int index) const {
        return arcs_[static_cast<std::size_t>(index)];
    }

    /// Residual capacity of arc `index`.
    [[nodiscard]] int cap(int index) const {
        return arcs_[static_cast<std::size_t>(index)].cap;
    }

    /// Routes `delta` units through arc `index` (and its reverse), logging
    /// both arcs for the next reset().
    void add_flow(int index, int delta) {
        touch(index);
        touch(index ^ 1);
        arcs_[static_cast<std::size_t>(index)].cap -= delta;
        arcs_[static_cast<std::size_t>(index ^ 1)].cap += delta;
    }

    /// Flow currently routed through forward arc `index`.
    [[nodiscard]] int flow_on(int index) const {
        return net_->original_cap(index) - cap(index);
    }

    /// Restores every touched arc to its as-built capacity (no-op on a clean
    /// workspace — it neither sweeps nor counts).
    void reset() noexcept {
        if (touched_.empty()) return;
        ++stats_.resets;
        if (touched_.size() < arcs_.size()) ++stats_.full_sweeps_avoided;
        stats_.arcs_touched += touched_.size();
        for (const int a : touched_) {
            arcs_[static_cast<std::size_t>(a)].cap = net_->original_cap(a);
            in_log_[static_cast<std::size_t>(a)] = 0;
        }
        touched_.clear();
    }

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    /// Bytes held by the residual arcs, undo log and scratch buffers (arena
    /// accounting in benches).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        std::size_t bytes = arcs_.capacity() * sizeof(ResidualArc) +
                            in_log_.capacity() * sizeof(char) +
                            touched_.capacity() * sizeof(int) +
                            level.capacity() * sizeof(int) +
                            iter.capacity() * sizeof(std::size_t) +
                            queue.capacity() * sizeof(int) +
                            excess.capacity() * sizeof(long long) +
                            height.capacity() * sizeof(int) +
                            height_count.capacity() * sizeof(int) +
                            active.capacity() * sizeof(std::vector<int>);
        for (const auto& bucket : active) bytes += bucket.capacity() * sizeof(int);
        return bytes;
    }

    // Solver scratch, reused across runs within one workspace. Contents are
    // unspecified between max_flow calls; each kernel (re)initializes what it
    // uses. Shared here rather than per-solver so a worker evaluating
    // thousands of pairs holds one arena, not one per algorithm instance.
    std::vector<int> level;               // Dinic: BFS levels
    std::vector<std::size_t> iter;        // Dinic / push-relabel: arc cursors
    std::vector<int> queue;               // BFS queues (Dinic, relabel)
    std::vector<long long> excess;        // push-relabel
    std::vector<int> height;              // push-relabel
    std::vector<int> height_count;        // push-relabel: gap heuristic
    std::vector<std::vector<int>> active; // push-relabel: buckets per height

private:
    void touch(int index) {
        const auto a = static_cast<std::size_t>(index);
        if (in_log_[a] == 0) {
            in_log_[a] = 1;
            touched_.push_back(index);
        }
    }

    const FlowNetwork* net_ = nullptr;
    std::vector<ResidualArc> arcs_;  ///< residual cap + head per arc id
    std::vector<char> in_log_;       ///< arc already in the undo log?
    std::vector<int> touched_;       ///< undo log: arcs whose cap may differ
    Stats stats_;
};

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_FLOW_WORKSPACE_H
