// Discrete-event engine: ordering, stability, clock semantics, periodic
// tasks. Determinism here underwrites every experiment in the repo.
#include <gtest/gtest.h>

#include <vector>

#include "event_queue_oracle.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace kadsim::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
    test_support::EventQueue q;
    std::vector<int> order;
    q.push(30, [&order] { order.push_back(3); });
    q.push(10, [&order] { order.push_back(1); });
    q.push(20, [&order] { order.push_back(2); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
    test_support::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
        q.push(5, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) q.pop().fn();
    for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, InterleavedPushPop) {
    test_support::EventQueue q;
    q.push(10, [] {});
    q.push(5, [] {});
    EXPECT_EQ(q.next_time(), 5);
    (void)q.pop();
    q.push(1, [] {});
    EXPECT_EQ(q.next_time(), 1);
    (void)q.pop();
    EXPECT_EQ(q.next_time(), 10);
}

TEST(EventQueue, SizeAndPushedCounters) {
    test_support::EventQueue q;
    EXPECT_TRUE(q.empty());
    q.push(1, [] {});
    q.push(2, [] {});
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pushed(), 2u);
    (void)q.pop();
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pushed(), 2u);
}

TEST(Simulator, RunUntilExecutesInclusiveBoundary) {
    Simulator sim(1);
    int fired = 0;
    sim.schedule_at(100, [&fired] { ++fired; });
    sim.schedule_at(101, [&fired] { fired += 10; });
    const auto executed = sim.run_until(100);
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 100);
    sim.run_until(200);
    EXPECT_EQ(fired, 11);
}

TEST(Simulator, ClockAdvancesToHorizonWhenIdle) {
    Simulator sim(1);
    sim.run_until(500);
    EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, ScheduleInIsRelative) {
    Simulator sim(1);
    SimTime seen = -1;
    sim.schedule_at(50, [&sim, &seen] {
        sim.schedule_in(25, [&sim, &seen] { seen = sim.now(); });
    });
    sim.run_until(1000);
    EXPECT_EQ(seen, 75);
}

TEST(Simulator, EventsCanScheduleAtSameTime) {
    Simulator sim(1);
    std::vector<int> order;
    sim.schedule_at(10, [&] {
        order.push_back(1);
        sim.schedule_in(0, [&order] { order.push_back(2); });
    });
    sim.schedule_at(10, [&order] { order.push_back(3); });
    sim.run_until(10);
    // The zero-delay event was inserted after the second t=10 event.
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, RunAllDrainsEverything) {
    Simulator sim(1);
    int count = 0;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(i * 10, [&] {
            if (++count <= 5) sim.schedule_in(1000, [&count] { ++count; });
        });
    }
    sim.run_all();
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_EQ(count, 15);
}

TEST(Simulator, SplitRngDeterministicByCallOrder) {
    Simulator a(77);
    Simulator b(77);
    auto ra0 = a.split_rng();
    auto ra1 = a.split_rng();
    auto rb0 = b.split_rng();
    auto rb1 = b.split_rng();
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(ra0.next_u64(), rb0.next_u64());
        EXPECT_EQ(ra1.next_u64(), rb1.next_u64());
    }
}

TEST(Simulator, TimeConversionHelpers) {
    EXPECT_EQ(minutes(2), 120000);
    EXPECT_EQ(seconds(3), 3000);
    EXPECT_DOUBLE_EQ(to_minutes(minutes(90)), 90.0);
    EXPECT_EQ(kHour, 60 * kMinute);
}

TEST(PeriodicTask, FiresAtFixedIntervals) {
    Simulator sim(1);
    std::vector<SimTime> fired;
    auto task = PeriodicTask::start(sim, 100, 50,
                                    [&fired](SimTime t) { fired.push_back(t); });
    sim.run_until(300);
    EXPECT_EQ(fired, (std::vector<SimTime>{100, 150, 200, 250, 300}));
}

TEST(PeriodicTask, CancelStopsFutureFirings) {
    Simulator sim(1);
    int count = 0;
    auto task = PeriodicTask::start(sim, 10, 10, [&count](SimTime) { ++count; });
    sim.run_until(35);
    EXPECT_EQ(count, 3);
    task->cancel();
    sim.run_until(1000);
    EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, DestructionStopsFirings) {
    Simulator sim(1);
    int count = 0;
    {
        auto task = PeriodicTask::start(sim, 10, 10, [&count](SimTime) { ++count; });
        sim.run_until(25);
    }
    sim.run_until(500);
    EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, TaskCanCancelItselfFromTick) {
    Simulator sim(1);
    int count = 0;
    std::unique_ptr<PeriodicTask> task;
    task = PeriodicTask::start(sim, 10, 10, [&](SimTime) {
        if (++count == 3) task->cancel();
    });
    sim.run_until(1000);
    EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace kadsim::sim
