// Bucketed calendar queue: the hot-path pending-event set of the simulator.
//
// A binary heap pays O(log n) pointer-chasing sifts per operation once
// hundreds of thousands of events are pending (n=100k+ overlay scenarios).
// Almost all simulator traffic is near-future — RPC deliveries
// (10–100 ms), timeouts (2 s), per-minute scenario ticks — so a calendar
// layout makes those O(1) amortized: time is divided into fixed-width epochs
// and an epoch ring covers the near-future band; only far-future events
// (hourly bucket refreshes, storage expiry, initial join schedules) fall back
// to a small binary heap and migrate into the ring as the window slides.
//
// Pop order is EXACTLY the binary heap's: non-decreasing (time, seq), with
// seq assigned at push. The structure never influences ordering — the epoch
// being drained is a sorted run plus a tiny min-heap of late arrivals, pop
// takes the smaller front, and every other tier holds strictly later epochs —
// so replays are bit-identical to a stable binary heap (pinned by
// tests/test_calendar_queue.cpp's differential suite against the heap oracle
// in tests/event_queue_oracle.h).
#ifndef KADSIM_SIM_CALENDAR_QUEUE_H
#define KADSIM_SIM_CALENDAR_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/assert.h"
#include "util/inplace_function.h"

namespace kadsim::sim {

/// Event payload: a small move-only callable. 128 bytes of inline capture is
/// enough for every handler in the code base, including RPC delivery closures
/// carrying a contact-list vector (compile-time enforced).
using EventFn = util::InplaceFunction<void(), 128>;

class CalendarQueue {
public:
    struct Entry {
        SimTime time = 0;
        std::uint64_t seq = 0;
        EventFn fn;
    };

    /// Epoch width 2^4 = 16 ms: narrow enough that the current-epoch heap
    /// stays tiny, wide enough that the 4096-slot ring spans 65.5 s — every
    /// RPC delivery, timeout and minute tick lands in the O(1) band.
    static constexpr int kEpochShift = 4;
    static constexpr std::size_t kRingBuckets = 4096;
    static constexpr std::size_t kRingMask = kRingBuckets - 1;

    CalendarQueue() : ring_(kRingBuckets) {}

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Earliest pending timestamp; queue must be non-empty. May advance the
    /// internal epoch cursor (cheap, amortized O(1)) — hence not const.
    [[nodiscard]] SimTime next_time() {
        KADSIM_ASSERT(size_ > 0);
        if (cur_.empty() && late_.empty()) refill();
        return pop_from_late() ? late_.front().time : cur_.back().time;
    }

    void push(SimTime time, EventFn fn) {
        std::uint32_t slot;
        if (!free_slots_.empty()) {
            slot = free_slots_.back();
            free_slots_.pop_back();
            pool_[slot] = std::move(fn);
        } else {
            slot = static_cast<std::uint32_t>(pool_.size());
            pool_.push_back(std::move(fn));
        }
        place(Handle{time, next_seq_++, slot});
        ++size_;
    }

    /// Removes and returns the earliest event (stable tie-break by seq).
    Entry pop() {
        KADSIM_ASSERT(size_ > 0);
        if (cur_.empty() && late_.empty()) refill();
        Handle top;
        if (pop_from_late()) {
            std::pop_heap(late_.begin(), late_.end(), after);
            top = late_.back();
            late_.pop_back();
        } else {
            top = cur_.back();
            cur_.pop_back();
        }
        --size_;
        Entry entry{top.time, top.seq, std::move(pool_[top.slot])};
        free_slots_.push_back(top.slot);
        return entry;
    }

    void clear() noexcept {
        cur_.clear();
        late_.clear();
        for (auto& bucket : ring_) bucket.clear();
        ring_count_ = 0;
        overflow_.clear();
        pool_.clear();
        free_slots_.clear();
        size_ = 0;
        cur_epoch_ = 0;
    }

    /// Total events ever pushed (also the next sequence number).
    [[nodiscard]] std::uint64_t pushed() const noexcept { return next_seq_; }

    /// Approximate resident footprint of the queue (capacity-based), for the
    /// bench counters. Ignores out-of-line closure captures (none exist:
    /// EventFn is inline-only).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        std::size_t bytes = cur_.capacity() * sizeof(Handle) +
                            late_.capacity() * sizeof(Handle) +
                            overflow_.capacity() * sizeof(Handle) +
                            pool_.capacity() * sizeof(EventFn) +
                            free_slots_.capacity() * sizeof(std::uint32_t) +
                            ring_.capacity() * sizeof(std::vector<Handle>);
        for (const auto& bucket : ring_) bytes += bucket.capacity() * sizeof(Handle);
        return bytes;
    }

private:
    /// 16-byte handle; the (large) callables stay put in the slot pool, so
    /// sifts and epoch sorts move handles, not closures.
    struct Handle {
        SimTime time;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    [[nodiscard]] static constexpr std::int64_t epoch_of(SimTime t) noexcept {
        return t >> kEpochShift;
    }
    [[nodiscard]] static bool before(const Handle& a, const Handle& b) noexcept {
        return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    }
    /// std:: heap algorithms build max-heaps; inverting the order yields the
    /// min-heap on (time, seq).
    [[nodiscard]] static bool after(const Handle& a, const Handle& b) noexcept {
        return before(b, a);
    }

    /// True when the next pop must come from the late-arrival heap rather
    /// than the sorted drain vector. Seqs are unique, so no tie to break.
    [[nodiscard]] bool pop_from_late() const noexcept {
        return !late_.empty() && (cur_.empty() || before(late_.front(), cur_.back()));
    }

    /// Routes a handle to its tier. Invariant: `cur_` (sorted DESCENDING by
    /// (time,seq) — earliest at the back) plus the `late_` min-heap together
    /// hold every pending event of epoch <= cur_epoch_; the ring holds epochs
    /// in (cur_epoch_, cur_epoch_ + kRingBuckets) — at most kRingBuckets - 1
    /// distinct epochs, so slots never alias — and the overflow heap holds
    /// everything at or beyond the window end. `cur_` is filled (and sorted)
    /// only once per epoch at refill; events that land in an epoch already
    /// being drained go to `late_`, and pop() takes the smaller of the two
    /// fronts — the same (time,seq) order the one-heap layout produced.
    void place(Handle h) {
        const std::int64_t e = epoch_of(h.time);
        if (e <= cur_epoch_) {
            late_.push_back(h);
            std::push_heap(late_.begin(), late_.end(), after);
        } else if (e < cur_epoch_ + static_cast<std::int64_t>(kRingBuckets)) {
            ring_[static_cast<std::size_t>(e) & kRingMask].push_back(h);
            ++ring_count_;
        } else {
            overflow_.push_back(h);
            std::push_heap(overflow_.begin(), overflow_.end(), after);
        }
    }

    /// Slides the window forward until the current epoch has events. With an
    /// empty ring it jumps straight to the overflow's earliest epoch instead
    /// of walking idle slots one by one. (migrate_overflow may drop events
    /// into `late_` when it lands them in the new current epoch — hence the
    /// two-tier emptiness check.)
    void refill() {
        KADSIM_ASSERT(size_ > 0);
        while (cur_.empty() && late_.empty()) {
            if (ring_count_ == 0) {
                KADSIM_ASSERT(!overflow_.empty());
                cur_epoch_ = epoch_of(overflow_.front().time);
            } else {
                ++cur_epoch_;
            }
            migrate_overflow();
            auto& bucket = ring_[static_cast<std::size_t>(cur_epoch_) & kRingMask];
            if (!bucket.empty()) {
                ring_count_ -= bucket.size();
                cur_.insert(cur_.end(), bucket.begin(), bucket.end());
                bucket.clear();
                std::sort(cur_.begin(), cur_.end(), after);  // descending
            }
        }
    }

    /// Moves overflow events that now fall inside the window into the ring
    /// (or the current heap). Each far event migrates exactly once.
    void migrate_overflow() {
        const std::int64_t window_end =
            cur_epoch_ + static_cast<std::int64_t>(kRingBuckets);
        while (!overflow_.empty() && epoch_of(overflow_.front().time) < window_end) {
            std::pop_heap(overflow_.begin(), overflow_.end(), after);
            const Handle h = overflow_.back();
            overflow_.pop_back();
            place(h);
        }
    }

    std::vector<Handle> cur_;   // sorted descending: current epoch's drain
    std::vector<Handle> late_;  // min-heap: arrivals into the current epoch
    std::vector<std::vector<Handle>> ring_;   // unsorted near-future band
    std::size_t ring_count_ = 0;
    std::vector<Handle> overflow_;            // min-heap: beyond the window
    std::vector<EventFn> pool_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 0;
    std::size_t size_ = 0;
    std::int64_t cur_epoch_ = 0;
};

}  // namespace kadsim::sim

#endif  // KADSIM_SIM_CALENDAR_QUEUE_H
