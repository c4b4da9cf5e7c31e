// CalendarQueue vs the reference binary-heap EventQueue (the oracle in
// event_queue_oracle.h): the calendar layout must never influence ordering.
// The differential suite drives both through identical randomized push/pop
// schedules (ties included) and asserts the pop streams match
// element-for-element — the property that makes swapping the simulator's
// queue invisible to the byte-identity replay goldens.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "event_queue_oracle.h"
#include "sim/calendar_queue.h"
#include "util/rng.h"

namespace kadsim::sim {
namespace {

/// Pushes the same (time, payload) into both queues; payloads record pop
/// order so the streams can be compared exactly.
class Tandem {
public:
    void push(SimTime t) {
        const std::uint64_t tag = next_tag_++;
        reference_.push(t, [this, tag] { reference_log_.push_back(tag); });
        calendar_.push(t, [this, tag] { calendar_log_.push_back(tag); });
    }

    void pop_one() {
        ASSERT_FALSE(reference_.empty());
        ASSERT_FALSE(calendar_.empty());
        ASSERT_EQ(reference_.next_time(), calendar_.next_time());
        auto a = reference_.pop();
        auto b = calendar_.pop();
        ASSERT_EQ(a.time, b.time);
        ASSERT_EQ(a.seq, b.seq);
        a.fn();
        b.fn();
        ASSERT_EQ(reference_log_.back(), calendar_log_.back());
    }

    void drain() {
        while (!reference_.empty()) pop_one();
        EXPECT_TRUE(calendar_.empty());
        EXPECT_EQ(reference_log_, calendar_log_);
    }

    [[nodiscard]] std::size_t pending() const { return reference_.size(); }
    [[nodiscard]] const std::vector<std::uint64_t>& log() const {
        return calendar_log_;
    }

private:
    test_support::EventQueue reference_;
    CalendarQueue calendar_;
    std::uint64_t next_tag_ = 0;
    std::vector<std::uint64_t> reference_log_;
    std::vector<std::uint64_t> calendar_log_;
};

TEST(CalendarQueue, PopsInTimeOrderWithStableTies) {
    CalendarQueue q;
    std::vector<std::uint64_t> order;
    q.push(50, [&] { order.push_back(2); });
    q.push(10, [&] { order.push_back(0); });
    q.push(50, [&] { order.push_back(3); });  // tie: insertion order wins
    q.push(20, [&] { order.push_back(1); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_EQ(q.pushed(), 4u);
}

TEST(CalendarQueue, DifferentialRandomizedMixedWorkload) {
    // Time offsets drawn from a mix that exercises every tier: same-epoch
    // (< 16 ms), ring-band (< 65 s) and overflow (minutes-to-hours ahead),
    // plus deliberate exact-tie collisions.
    util::Rng rng(20170327);
    Tandem tandem;
    SimTime now = 0;
    SimTime last_tie = 0;
    for (int round = 0; round < 20000; ++round) {
        const std::uint64_t action = rng.next_below(100);
        if (action < 60 || tandem.pending() == 0) {
            SimTime t;
            const std::uint64_t band = rng.next_below(10);
            if (band < 4) {
                t = now + static_cast<SimTime>(rng.next_below(16));
            } else if (band < 8) {
                t = now + static_cast<SimTime>(rng.next_below(65000));
            } else if (band < 9) {
                t = now + static_cast<SimTime>(rng.next_below(3600 * 1000));
            } else {
                t = last_tie;  // exact timestamp collision
            }
            if (t < now) t = now;
            last_tie = t;
            tandem.push(t);
        } else {
            tandem.pop_one();
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
    tandem.drain();
    EXPECT_GT(tandem.log().size(), 10000u);  // most rounds pushed
}

TEST(CalendarQueue, DifferentialSimulatorShapedWorkload) {
    // Mimics the simulator's actual push profile: pops advance a clock and
    // each popped event schedules a handful of follow-ups at RPC-delivery,
    // timeout and minute-tick distances from the *current* time.
    util::Rng rng(7);
    Tandem tandem;
    SimTime now = 0;
    for (int i = 0; i < 200; ++i) {
        tandem.push(static_cast<SimTime>(rng.next_below(30 * 60 * 1000)));
    }
    for (int round = 0; round < 30000 && tandem.pending() > 0; ++round) {
        tandem.pop_one();
        if (::testing::Test::HasFatalFailure()) return;
        now += static_cast<SimTime>(rng.next_below(40));
        const std::uint64_t fanout = rng.next_below(3);
        for (std::uint64_t j = 0; j < fanout; ++j) {
            const std::uint64_t kind = rng.next_below(10);
            SimTime t = now;
            if (kind < 6) {
                t += 10 + static_cast<SimTime>(rng.next_below(90));  // delivery
            } else if (kind < 9) {
                t += 2000;  // RPC timeout
            } else {
                t += 60 * 1000;  // minute tick / refresh spread
            }
            tandem.push(t);
        }
    }
    tandem.drain();
}

TEST(CalendarQueue, FarFutureFallbackMigratesExactlyOnce) {
    // A burst of far-future events (initial-join style: uniform over 30 min)
    // goes to the overflow heap, then migrates through the ring as the window
    // slides. The pop stream must still be globally sorted by (time, seq).
    util::Rng rng(99);
    CalendarQueue q;
    std::vector<SimTime> times;
    for (int i = 0; i < 5000; ++i) {
        const auto t = static_cast<SimTime>(rng.next_below(30 * 60 * 1000));
        times.push_back(t);
        q.push(t, [] {});
    }
    SimTime prev = -1;
    std::uint64_t prev_seq = 0;
    std::size_t popped = 0;
    while (!q.empty()) {
        const auto e = q.pop();
        if (e.time == prev) {
            EXPECT_GT(e.seq, prev_seq);
        } else {
            EXPECT_GT(e.time, prev);
        }
        prev = e.time;
        prev_seq = e.seq;
        ++popped;
    }
    EXPECT_EQ(popped, times.size());
}

TEST(CalendarQueue, JumpsIdleStretchesWithoutWalkingTheRing) {
    // Sparse far-apart events (hours apart): the queue must jump to the next
    // overflow epoch rather than walking empty ring slots; this test would
    // time out if each gap cost one iteration per 16 ms epoch... at Debug
    // assertion levels it simply pins correctness of the jump path.
    CalendarQueue q;
    std::vector<std::uint64_t> order;
    for (std::uint64_t h = 10; h > 0; --h) {
        q.push(static_cast<SimTime>(h) * 3600 * 1000, [&order, h] { order.push_back(h); });
    }
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order.size(), 10u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(CalendarQueue, PushIntoDrainedPastEpochStillOrdersCorrectly) {
    // After the cursor jumps far forward (overflow refill), a push at an
    // earlier time — legal as long as it is >= the last popped time — must
    // still pop before the later events.
    CalendarQueue q;
    q.push(0, [] {});
    q.push(3600 * 1000, [] {});
    (void)q.pop();                     // now at epoch 0
    EXPECT_EQ(q.next_time(), 3600 * 1000);  // cursor jumped to the far epoch
    std::vector<int> order;
    q.push(5, [&] { order.push_back(0); });  // before the far event
    q.push(3600 * 1000, [&] { order.push_back(1); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(CalendarQueue, ClearResetsEverything) {
    CalendarQueue q;
    for (SimTime t = 0; t < 100; ++t) q.push(t * 1000, [] {});
    EXPECT_EQ(q.size(), 100u);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push(7, [] {});
    EXPECT_EQ(q.next_time(), 7);
    EXPECT_GT(q.memory_bytes(), 0u);
}

}  // namespace
}  // namespace kadsim::sim
