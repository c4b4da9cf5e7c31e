// Allocation-free arena for in-flight iterative lookups (paper §4.1).
//
// "Given a target identifier, a node queries α nodes from its routing table
// closest to that identifier. Those, in turn, answer with their own list of
// closest nodes, which can then be used in new queries. ... This process ends
// when a number of k nodes have been successfully contacted, or no more
// progress is made in getting closer to the target identifier."
//
// The state machine is pure (no I/O): the owning node asks next_query() for
// contacts to send FIND_NODE/FIND_VALUE to and feeds back on_response() /
// on_failure(), which keeps the protocol logic unit-testable without a
// simulator (tests/test_lookup_state.cpp drives one slot directly).
//
// A per-lookup heap object (plus a growable shortlist vector) is the
// throughput wall for million-lookup workloads, so LookupArena stores every
// lookup struct-of-arrays instead: per-slot scalars (target, in-flight
// window, no-progress streak, hop counter, issue timestamp) in parallel
// vectors, and the k-closest shortlist as a sorted flat slice of a shared
// fixed-stride slab. Slots are recycled through a free list, so after
// warmup the steady state allocates nothing (pinned by the arena-reuse
// purity test in tests/test_lookup_engine.cpp).
//
// Each NodeArena (= one id-space region) owns one LookupArena shared by all
// of its nodes; regions never share one, so sharded stepping needs no
// synchronization here.
#ifndef KADSIM_KAD_LOOKUP_ARENA_H
#define KADSIM_KAD_LOOKUP_ARENA_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "kad/contact.h"
#include "sim/time.h"

namespace kadsim::kad {

enum class LookupMode { kFindNode, kFindValue };

struct LookupStats {
    int rpcs_sent = 0;
    int rpcs_failed = 0;
    int rpcs_succeeded = 0;
};

class LookupArena {
public:
    using Slot = std::uint32_t;
    static constexpr Slot kInvalidSlot = 0xFFFFFFFFu;

    struct Params {
        int k = 20;     ///< stop after k successful contacts
        int alpha = 3;  ///< base max queries in flight
        std::size_t shortlist_cap = 0;  ///< 0 = 4·k (fixed slab stride)
        /// Salah-style lookup improvement (see kad::KademliaConfig::
        /// lookup_boost): each observed query failure widens the in-flight
        /// window by one, up to alpha + boost. 0 disables (paper behavior).
        int boost = 0;
    };

    explicit LookupArena(Params params);

    /// Opens a lookup and returns its slot. `strict_k` disables the
    /// no-progress early exit (join / STORE placement); `now` is recorded
    /// as the issue timestamp for latency accounting.
    [[nodiscard]] Slot begin(const NodeId& self, const NodeId& target,
                             LookupMode mode, bool strict_k, sim::SimTime now);

    /// Returns the slot to the free list. The slot id may be reused by the
    /// very next begin(); callers must drop their handle.
    void release(Slot slot);

    /// Seeds the shortlist with the caller's own closest contacts (depth 0).
    void seed(Slot slot, std::span<const Contact> contacts);

    /// Next contact to query, marking it in-flight — or nullopt when the
    /// in-flight window is full or no un-queried candidate remains among the
    /// k closest non-failed entries. Call repeatedly until nullopt.
    [[nodiscard]] std::optional<Contact> next_query(Slot slot);

    /// Successful reply from `from` carrying its closest contacts.
    /// `value_found` short-circuits a kFindValue lookup.
    void on_response(Slot slot, const NodeId& from,
                     std::span<const Contact> returned, bool value_found);

    /// Query to `from` failed (timeout).
    void on_failure(Slot slot, const NodeId& from);

    /// Terminal-state test (§4.1): k successes, value found, α consecutive
    /// responses without progress (closest candidate contacted), or
    /// candidate exhaustion.
    [[nodiscard]] bool finished(Slot slot) const;

    [[nodiscard]] bool value_found(Slot slot) const noexcept {
        return value_found_[slot] != 0;
    }
    [[nodiscard]] const NodeId& target(Slot slot) const noexcept {
        return target_[slot];
    }
    [[nodiscard]] LookupMode mode(Slot slot) const noexcept {
        return static_cast<LookupMode>(mode_[slot]);
    }
    [[nodiscard]] int inflight(Slot slot) const noexcept {
        return inflight_[slot];
    }
    [[nodiscard]] const LookupStats& stats(Slot slot) const noexcept {
        return stats_[slot];
    }
    /// Iteration depth: 1 + the deepest successfully contacted candidate
    /// (seeds are depth 0, contacts learned from a depth-d reply are d+1).
    [[nodiscard]] int hop_count(Slot slot) const noexcept {
        return hops_[slot];
    }
    [[nodiscard]] sim::SimTime issued_at(Slot slot) const noexcept {
        return issued_[slot];
    }
    [[nodiscard]] std::size_t shortlist_size(Slot slot) const noexcept {
        return size_[slot];
    }

    /// Appends the successfully contacted nodes, closest-first, at most k.
    void successful_closest(Slot slot, std::vector<Contact>& out) const;

    [[nodiscard]] const Params& params() const noexcept { return params_; }
    [[nodiscard]] std::size_t slot_count() const noexcept {
        return self_.size();
    }
    [[nodiscard]] std::size_t live_count() const noexcept { return live_; }
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    enum class State : std::uint8_t { kNew, kInflight, kOk, kFailed };

    struct Entry {
        NodeId distance;  // to target (cached sort key)
        Contact contact;
        State state = State::kNew;
        std::uint8_t depth = 0;  // iteration depth the contact was learned at
    };

    /// Returns true when the candidate was inserted AND is now the closest
    /// known candidate ("progress in getting closer", §4.1).
    bool insert_candidate(Slot slot, const Contact& c, std::uint8_t depth);
    [[nodiscard]] bool has_launchable(Slot slot) const;
    [[nodiscard]] bool closest_candidate_contacted(Slot slot) const;
    Entry* find_by_id(Slot slot, const NodeId& id);

    [[nodiscard]] Entry* slab(Slot slot) noexcept {
        return entries_.data() + static_cast<std::size_t>(slot) * stride_;
    }
    [[nodiscard]] const Entry* slab(Slot slot) const noexcept {
        return entries_.data() + static_cast<std::size_t>(slot) * stride_;
    }

    Params params_;
    std::size_t stride_;  // = resolved shortlist cap

    // Per-slot state, struct-of-arrays; index = Slot.
    std::vector<NodeId> self_;
    std::vector<NodeId> target_;
    std::vector<std::uint8_t> mode_;
    std::vector<std::uint8_t> strict_;
    std::vector<std::uint8_t> value_found_;
    std::vector<std::uint16_t> size_;      // live entries in the slot's slab
    std::vector<std::int16_t> inflight_;
    std::vector<std::int16_t> ok_;
    std::vector<std::int16_t> streak_;     // consecutive no-progress responses
    std::vector<std::uint8_t> widen_;      // granted extra window (<= boost)
    std::vector<std::uint8_t> hops_;
    std::vector<sim::SimTime> issued_;
    std::vector<LookupStats> stats_;
    std::vector<Entry> entries_;  // slot i owns [i·stride_, i·stride_+size_[i])
    std::vector<Slot> free_;
    std::size_t live_ = 0;
};

}  // namespace kadsim::kad

#endif  // KADSIM_KAD_LOOKUP_ARENA_H
