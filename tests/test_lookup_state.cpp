// The iterative lookup state machine (paper §4.1): α-parallelism, k-success
// termination, no-progress termination, value short-circuit. Each case
// drives one slot of a fresh LookupArena, the way a node runs one lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kad/lookup_arena.h"
#include "util/rng.h"

namespace kadsim::kad {
namespace {

std::vector<Contact> make_contacts(util::Rng& rng, int count, net::Address base) {
    std::vector<Contact> out;
    for (int i = 0; i < count; ++i) {
        out.push_back(Contact{NodeId::random(rng, 160), base + static_cast<net::Address>(i)});
    }
    return out;
}

using Slot = LookupArena::Slot;

LookupArena::Params params(int k, int alpha) { return {k, alpha, 0}; }

/// Opens the arena's one lookup (issued at t = 0).
Slot open_lookup(LookupArena& arena, const NodeId& self, const NodeId& target,
                 LookupMode mode, bool strict_k = false) {
    return arena.begin(self, target, mode, strict_k, 0);
}

std::vector<Contact> successful_closest(const LookupArena& arena, Slot slot) {
    std::vector<Contact> out;
    arena.successful_closest(slot, out);
    return out;
}

TEST(LookupState, EmptySeedFinishesImmediately) {
    util::Rng rng(1);
    LookupArena arena(params(3, 2));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), NodeId::random(rng, 160),
                                  LookupMode::kFindNode);
    EXPECT_FALSE(arena.next_query(slot).has_value());
    EXPECT_TRUE(arena.finished(slot));
    EXPECT_TRUE(successful_closest(arena, slot).empty());
}

TEST(LookupState, RespectsAlphaInflightBound) {
    util::Rng rng(2);
    LookupArena arena(params(10, 3));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), NodeId::random(rng, 160),
                                  LookupMode::kFindNode);
    const auto seeds = make_contacts(rng, 8, 1);
    arena.seed(slot, seeds);
    int launched = 0;
    while (arena.next_query(slot).has_value()) ++launched;
    EXPECT_EQ(launched, 3);
    EXPECT_EQ(arena.inflight(slot), 3);
    EXPECT_FALSE(arena.finished(slot));
}

TEST(LookupState, SeedsSelfAreIgnored) {
    util::Rng rng(3);
    const NodeId self = NodeId::random(rng, 160);
    LookupArena arena(params(3, 2));
    const Slot slot = open_lookup(arena, self, NodeId::random(rng, 160), LookupMode::kFindNode);
    arena.seed(slot, std::vector<Contact>{Contact{self, 1}});
    EXPECT_FALSE(arena.next_query(slot).has_value());
    EXPECT_TRUE(arena.finished(slot));
}

TEST(LookupState, TerminatesAfterKSuccesses) {
    util::Rng rng(4);
    const NodeId target = NodeId::random(rng, 160);
    LookupArena arena(params(3, 3));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), target, LookupMode::kFindNode);
    const auto seeds = make_contacts(rng, 6, 1);
    arena.seed(slot, seeds);
    int responded = 0;
    while (!arena.finished(slot)) {
        const auto q = arena.next_query(slot);
        ASSERT_TRUE(q.has_value());
        arena.on_response(slot, q->id, {}, false);
        ++responded;
    }
    EXPECT_EQ(responded, 3);  // k successes end the lookup
    EXPECT_EQ(successful_closest(arena, slot).size(), 3u);
    EXPECT_EQ(arena.stats(slot).rpcs_succeeded, 3);
}

TEST(LookupState, NoProgressTerminationWhenAllFail) {
    util::Rng rng(5);
    LookupArena arena(params(5, 2));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), NodeId::random(rng, 160),
                                  LookupMode::kFindNode);
    arena.seed(slot, make_contacts(rng, 4, 1));
    while (!arena.finished(slot)) {
        const auto q = arena.next_query(slot);
        if (!q.has_value()) break;
        arena.on_failure(slot, q->id);
    }
    EXPECT_TRUE(arena.finished(slot));
    EXPECT_TRUE(successful_closest(arena, slot).empty());
    EXPECT_EQ(arena.stats(slot).rpcs_failed, 4);
}

TEST(LookupState, ResponsesFeedNewCandidatesWhileProgressing) {
    // Hand-built ids: target 0, seed at distance 0x40; every response returns
    // a strictly closer contact, so the lookup keeps going until k successes.
    const NodeId target;  // zero
    const NodeId self = NodeId::from_limbs(0xF000, 0, 0);
    LookupArena arena(params(4, 1));
    const Slot slot = open_lookup(arena, self, target, LookupMode::kFindNode);
    const std::uint64_t distances[] = {0x40, 0x20, 0x10, 0x08, 0x04};
    arena.seed(slot, std::vector<Contact>{
        Contact{NodeId::from_limbs(distances[0], 0, 0), 1}});
    int responded = 0;
    for (int i = 0; i < 4; ++i) {
        const auto q = arena.next_query(slot);
        ASSERT_TRUE(q.has_value()) << "query " << i;
        // Each response advertises the next-closer node: progress every time.
        const Contact closer{NodeId::from_limbs(distances[i + 1], 0, 0),
                             static_cast<net::Address>(10 + i)};
        arena.on_response(slot, q->id, std::vector<Contact>{closer}, false);
        ++responded;
    }
    EXPECT_TRUE(arena.finished(slot));  // 4 successes == k
    EXPECT_EQ(responded, 4);
    EXPECT_EQ(successful_closest(arena, slot).size(), 4u);
}

TEST(LookupState, NoProgressWaveTerminatesEarly) {
    // §4.1: "no more progress is made in getting closer" — α consecutive
    // unhelpful responses end the lookup even though un-queried candidates
    // remain.
    util::Rng rng(6);
    const NodeId target = NodeId::random(rng, 160);
    LookupArena arena(params(20, 3));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), target, LookupMode::kFindNode);
    arena.seed(slot, make_contacts(rng, 12, 1));
    int responded = 0;
    while (!arena.finished(slot)) {
        const auto q = arena.next_query(slot);
        ASSERT_TRUE(q.has_value());
        arena.on_response(slot, q->id, {}, false);  // nothing new, no progress
        ++responded;
    }
    EXPECT_EQ(responded, 3);  // one full α-wave without progress
    EXPECT_LT(successful_closest(arena, slot).size(), 12u);
}

TEST(LookupState, ValueFoundShortCircuits) {
    util::Rng rng(7);
    LookupArena arena(params(10, 2));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), NodeId::random(rng, 160),
                                  LookupMode::kFindValue);
    arena.seed(slot, make_contacts(rng, 5, 1));
    const auto q = arena.next_query(slot);
    ASSERT_TRUE(q.has_value());
    arena.on_response(slot, q->id, {}, true);
    EXPECT_TRUE(arena.finished(slot));
    EXPECT_TRUE(arena.value_found(slot));
}

TEST(LookupState, ValueFlagIgnoredInFindNodeMode) {
    util::Rng rng(8);
    LookupArena arena(params(10, 2));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), NodeId::random(rng, 160),
                                  LookupMode::kFindNode);
    arena.seed(slot, make_contacts(rng, 5, 1));
    const auto q = arena.next_query(slot);
    ASSERT_TRUE(q.has_value());
    arena.on_response(slot, q->id, {}, true);
    EXPECT_FALSE(arena.value_found(slot));
    EXPECT_FALSE(arena.finished(slot));
}

TEST(LookupState, StaleResponsesAreIgnored) {
    util::Rng rng(9);
    LookupArena arena(params(5, 2));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), NodeId::random(rng, 160),
                                  LookupMode::kFindNode);
    const auto seeds = make_contacts(rng, 3, 1);
    arena.seed(slot, seeds);
    // Respond for a contact never queried: no effect.
    arena.on_response(slot, seeds[2].id, {}, false);
    EXPECT_EQ(arena.stats(slot).rpcs_succeeded, 0);
    // Failure for unknown id: no effect.
    arena.on_failure(slot, NodeId::random(rng, 160));
    EXPECT_EQ(arena.stats(slot).rpcs_failed, 0);
}

TEST(LookupState, DuplicateCandidatesNotDoubleTracked) {
    util::Rng rng(10);
    const NodeId target = NodeId::random(rng, 160);
    LookupArena arena(params(5, 5));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), target, LookupMode::kFindNode);
    const auto seeds = make_contacts(rng, 3, 1);
    arena.seed(slot, seeds);
    arena.seed(slot, seeds);  // duplicates
    EXPECT_EQ(arena.shortlist_size(slot), 3u);
}

TEST(LookupState, SuccessfulClosestIsSortedByDistance) {
    util::Rng rng(11);
    const NodeId target = NodeId::random(rng, 160);
    LookupArena arena(params(10, 10));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), target, LookupMode::kFindNode);
    const auto seeds = make_contacts(rng, 10, 1);
    arena.seed(slot, seeds);
    while (true) {
        const auto q = arena.next_query(slot);
        if (!q.has_value()) break;
        arena.on_response(slot, q->id, {}, false);
    }
    const auto closest = successful_closest(arena, slot);
    ASSERT_EQ(closest.size(), 10u);
    for (std::size_t i = 1; i < closest.size(); ++i) {
        EXPECT_LT(target.distance_to(closest[i - 1].id),
                  target.distance_to(closest[i].id));
    }
}

TEST(LookupState, ShortlistCapBoundsMemory) {
    util::Rng rng(12);
    const NodeId target = NodeId::random(rng, 160);
    LookupArena arena(params(2, 1));  // cap = 4k = 8
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), target, LookupMode::kFindNode);
    arena.seed(slot, make_contacts(rng, 4, 1));
    const auto q = arena.next_query(slot);
    ASSERT_TRUE(q.has_value());
    arena.on_response(slot, q->id, make_contacts(rng, 50, 100), false);
    EXPECT_LE(arena.shortlist_size(slot), 8u);
}

TEST(LookupState, FailedContactsAreReplacedByFartherOnes) {
    // A failed near candidate must not block farther candidates from the
    // query window: after the two closest fail, the lookup queries the third.
    util::Rng rng(13);
    const NodeId target = NodeId::random(rng, 160);
    LookupArena arena(params(2, 1));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), target, LookupMode::kFindNode);
    auto seeds = make_contacts(rng, 4, 1);
    std::sort(seeds.begin(), seeds.end(), [&target](const Contact& a, const Contact& b) {
        return target.distance_to(a.id) < target.distance_to(b.id);
    });
    arena.seed(slot, seeds);
    // Fail the two closest; failures don't count as "no progress" waves.
    for (int i = 0; i < 2; ++i) {
        const auto q = arena.next_query(slot);
        ASSERT_TRUE(q.has_value());
        EXPECT_EQ(q->id, seeds[static_cast<std::size_t>(i)].id);
        arena.on_failure(slot, q->id);
        EXPECT_FALSE(arena.finished(slot));
    }
    // The third candidate succeeds; with α=1 one unhelpful response is a
    // full wave, and the closest live candidate has now been contacted.
    const auto q = arena.next_query(slot);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->id, seeds[2].id);
    arena.on_response(slot, q->id, {}, false);
    EXPECT_TRUE(arena.finished(slot));
    const auto closest = successful_closest(arena, slot);
    ASSERT_EQ(closest.size(), 1u);
    EXPECT_EQ(closest[0].id, seeds[2].id);
}

TEST(LookupState, StrictModeIgnoresNoProgressWaves) {
    // Strict-k (join/STORE placement): unhelpful responses do not end the
    // lookup — it must contact the k closest it knows about.
    util::Rng rng(14);
    const NodeId target = NodeId::random(rng, 160);
    LookupArena arena(params(6, 3));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), target,
                                  LookupMode::kFindNode, /*strict_k=*/true);
    arena.seed(slot, make_contacts(rng, 10, 1));
    int responded = 0;
    while (!arena.finished(slot)) {
        const auto q = arena.next_query(slot);
        ASSERT_TRUE(q.has_value());
        arena.on_response(slot, q->id, {}, false);  // never any progress
        ++responded;
    }
    EXPECT_EQ(responded, 6);  // exactly k successes, no early exit
    EXPECT_EQ(successful_closest(arena, slot).size(), 6u);
}

TEST(LookupState, StrictModeStillExhausts) {
    util::Rng rng(15);
    LookupArena arena(params(20, 3));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), NodeId::random(rng, 160),
                                  LookupMode::kFindNode, /*strict_k=*/true);
    arena.seed(slot, make_contacts(rng, 4, 1));  // fewer candidates than k
    while (true) {
        const auto q = arena.next_query(slot);
        if (!q.has_value()) break;
        arena.on_response(slot, q->id, {}, false);
    }
    EXPECT_TRUE(arena.finished(slot));
    EXPECT_EQ(successful_closest(arena, slot).size(), 4u);
}

class LookupSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (k, alpha)

TEST_P(LookupSweepTest, AlwaysTerminatesUnderRandomOutcomes) {
    const auto [k, alpha] = GetParam();
    util::Rng rng(100 + static_cast<std::uint64_t>(k * 10 + alpha));
    const NodeId target = NodeId::random(rng, 160);
    LookupArena arena(params(k, alpha));
    const Slot slot = open_lookup(arena, NodeId::random(rng, 160), target, LookupMode::kFindNode);
    arena.seed(slot, make_contacts(rng, k, 1));
    int steps = 0;
    net::Address next_addr = 1000;
    while (!arena.finished(slot) && steps < 10000) {
        const auto q = arena.next_query(slot);
        if (q.has_value()) {
            if (rng.next_bool(0.3)) {
                arena.on_failure(slot, q->id);
            } else {
                const int fan = static_cast<int>(rng.next_below(4));
                auto more = make_contacts(rng, fan, next_addr);
                next_addr += 10;
                arena.on_response(slot, q->id, more, false);
            }
        }
        ++steps;
    }
    EXPECT_TRUE(arena.finished(slot));
    EXPECT_LE(static_cast<int>(successful_closest(arena, slot).size()), k);
    EXPECT_EQ(arena.inflight(slot), 0 + arena.inflight(slot));  // no negative inflight
    EXPECT_GE(arena.inflight(slot), 0);
}

INSTANTIATE_TEST_SUITE_P(KAlphaGrid, LookupSweepTest,
                         ::testing::Combine(::testing::Values(1, 2, 5, 20),
                                            ::testing::Values(1, 3, 5)));

}  // namespace
}  // namespace kadsim::kad
