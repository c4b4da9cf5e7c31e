// Discrete-event simulator (PeerSim "EDSimulator" equivalent).
//
// Single-threaded by design: protocols run as callbacks on a virtual clock;
// determinism comes from the stable event queue plus per-component RNG
// streams handed out by split_rng(). The pending set is the calendar queue
// (O(1) amortized near-future band); its pop order is bit-identical to a
// stable binary heap (tests/event_queue_oracle.h), so switching cost the
// replay goldens nothing.
#ifndef KADSIM_SIM_SIMULATOR_H
#define KADSIM_SIM_SIMULATOR_H

#include <cstdint>

#include "sim/calendar_queue.h"
#include "sim/time.h"
#include "util/assert.h"
#include "util/rng.h"

namespace kadsim::sim {

class Simulator {
public:
    explicit Simulator(std::uint64_t seed) : master_rng_(seed) {}

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Schedules `fn` to run at now() + delay (delay ≥ 0).
    void schedule_in(SimTime delay, EventFn fn) {
        KADSIM_ASSERT(delay >= 0);
        queue_.push(now_ + delay, std::move(fn));
    }

    /// Schedules `fn` at absolute time t (t ≥ now()).
    void schedule_at(SimTime t, EventFn fn) {
        KADSIM_ASSERT(t >= now_);
        queue_.push(t, std::move(fn));
    }

    /// Runs until the queue drains or the clock passes `end` (events at
    /// exactly `end` still run). Returns the number of events executed.
    std::uint64_t run_until(SimTime end);

    /// Runs every pending event (use only for small bounded scenarios).
    std::uint64_t run_all();

    /// Independent deterministic RNG stream for a component. Call order
    /// defines the stream id, so construct components in a fixed order.
    [[nodiscard]] util::Rng split_rng() noexcept {
        return master_rng_.split(next_stream_++);
    }

    [[nodiscard]] std::uint64_t events_executed() const noexcept {
        return events_executed_;
    }
    [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }

    /// Capacity-based footprint of the pending-event set (bench counters).
    [[nodiscard]] std::size_t queue_memory_bytes() const noexcept {
        return queue_.memory_bytes();
    }

private:
    CalendarQueue queue_;
    util::Rng master_rng_;
    SimTime now_ = 0;
    std::uint64_t next_stream_ = 0;
    std::uint64_t events_executed_ = 0;
};

}  // namespace kadsim::sim

#endif  // KADSIM_SIM_SIMULATOR_H
