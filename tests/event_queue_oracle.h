// Reference pending-event set: a stable binary heap, the oracle for
// sim::CalendarQueue.
//
// Semantics mirror PeerSim's event-driven mode: events execute in
// non-decreasing timestamp order; ties break by insertion order (stable), so
// runs are bit-reproducible regardless of heap internals. The simulator
// runs on the calendar queue; tests/test_calendar_queue.cpp drives both
// through identical schedules and asserts their pop streams match.
#ifndef KADSIM_TESTS_EVENT_QUEUE_ORACLE_H
#define KADSIM_TESTS_EVENT_QUEUE_ORACLE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/time.h"
#include "util/assert.h"

namespace kadsim::test_support {

class EventQueue {
public:
    struct Entry {
        sim::SimTime time = 0;
        std::uint64_t seq = 0;
        sim::EventFn fn;
    };

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

    /// Earliest pending timestamp; queue must be non-empty.
    [[nodiscard]] sim::SimTime next_time() const noexcept {
        KADSIM_ASSERT(!heap_.empty());
        return heap_.front().time;
    }

    void push(sim::SimTime time, sim::EventFn fn) {
        std::uint32_t slot;
        if (!free_slots_.empty()) {
            slot = free_slots_.back();
            free_slots_.pop_back();
            pool_[slot] = std::move(fn);
        } else {
            slot = static_cast<std::uint32_t>(pool_.size());
            pool_.push_back(std::move(fn));
        }
        heap_.push_back(Handle{time, next_seq_++, slot});
        sift_up(heap_.size() - 1);
    }

    /// Removes and returns the earliest event (stable tie-break by seq).
    Entry pop() {
        KADSIM_ASSERT(!heap_.empty());
        const Handle top = heap_.front();
        if (heap_.size() > 1) {
            heap_.front() = heap_.back();
            heap_.pop_back();
            sift_down(0);
        } else {
            heap_.pop_back();
        }
        Entry entry{top.time, top.seq, std::move(pool_[top.slot])};
        free_slots_.push_back(top.slot);
        return entry;
    }

    /// Total events ever pushed (also the next sequence number).
    [[nodiscard]] std::uint64_t pushed() const noexcept { return next_seq_; }

private:
    /// The heap orders lightweight 16-byte handles; the (large) callables
    /// stay put in a slot pool, so sifts move handles, not closures.
    struct Handle {
        sim::SimTime time;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    [[nodiscard]] static bool before(const Handle& a, const Handle& b) noexcept {
        return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    }

    void sift_up(std::size_t i) noexcept {
        const Handle item = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(item, heap_[parent])) break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = item;
    }

    void sift_down(std::size_t i) noexcept {
        const std::size_t n = heap_.size();
        const Handle item = heap_[i];
        while (true) {
            const std::size_t left = 2 * i + 1;
            const std::size_t right = left + 1;
            std::size_t smallest = i;
            const Handle* best = &item;
            if (left < n && before(heap_[left], *best)) {
                smallest = left;
                best = &heap_[left];
            }
            if (right < n && before(heap_[right], *best)) {
                smallest = right;
                best = &heap_[right];
            }
            if (smallest == i) break;
            heap_[i] = heap_[smallest];
            i = smallest;
        }
        heap_[i] = item;
    }

    std::vector<Handle> heap_;
    std::vector<sim::EventFn> pool_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 0;
};

}  // namespace kadsim::test_support

#endif  // KADSIM_TESTS_EVENT_QUEUE_ORACLE_H
