// Cross-snapshot pair-reuse hook for the connectivity kernels.
//
// The kernels store only pairs settled at their source's out-degree:
// value f = out°(u), the number of u's out-neighbours. Such a pair carries
// a two-sided certificate of f that is cheap to re-check on a later graph:
//
//   * f disjoint u→v paths, stored with the pair, prove κ (or λ) ≥ f, and
//   * u's own out-row proves κ (or λ) ≤ f: removing u's f successors (or
//     its f out-edges) isolates u. κ pairs are never adjacent, so v is not
//     in that row and the row separates.
//
// The κ/λ workers offer every pair to this hook before computing, and hand
// every pair settled at out°(u) back together with its paths; the
// snapshot-delta cache (analysis/incremental.h) stores them keyed by stable
// overlay address, and on a later snapshot a pair is reused iff
//
//   (a) out°(u) in the current graph is still f (the out-row is still a
//       size-f cut, so value ≤ f), and
//   (b) every witness path still exists edge-for-edge in the current graph
//       (the paths are still disjoint — their vertex sets did not change —
//       so value ≥ f).
//
// Together (a) and (b) re-prove value = f against the *current* graph, with
// no reference to v's in-degree or any other degree the original
// computation ran under: reuse survives degree drift anywhere but u's
// out-row, and can never drift — only be refused.
//
// Threading contract: lookup() and store() are called concurrently from
// every flow worker of a sweep. lookup() must only read state that is
// frozen for the duration of the sweep; store() may buffer internally (a
// pair is stored at most once per sweep). Implementations must not let a
// store affect any lookup of the same sweep — that is what keeps results
// bit-identical across thread counts and work distributions.
#ifndef KADSIM_FLOW_PAIR_REUSE_H
#define KADSIM_FLOW_PAIR_REUSE_H

#include <span>

namespace kadsim::flow {

class PairReuseHook {
public:
    virtual ~PairReuseHook() = default;

    /// Attempts to settle (u, v) — current-graph vertex ids — from a stored
    /// witness. Returns the settled value, or -1 to make the kernel compute.
    [[nodiscard]] virtual int lookup(int u, int v) = 0;

    /// Records a pair settled at value = out°(u) with its disjoint paths.
    /// `path_offsets` has one entry per path plus a terminator, path p's
    /// interior vertices being witness[path_offsets[p] .. path_offsets[p+1]);
    /// a zero-length path is the direct edge u→v (λ only). All ids are
    /// current-graph ids.
    virtual void store(int u, int v, int value, std::span<const int> witness,
                       std::span<const int> path_offsets) = 0;
};

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_PAIR_REUSE_H
