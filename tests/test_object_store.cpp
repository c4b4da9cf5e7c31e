// kad::ObjectStore vs the sorted-vector store it replaced (the oracle in
// object_store_oracle.h). Both run identical seeded sequences of puts (new
// and existing keys), finds, storage-GC erases and releases at an advancing
// clock, from an empty store that must allocate nothing; after every
// operation every key of the pool — never put, live and expired alike — must
// read the same live object (expires > now) from both.
// That is the property that keeps the hashed store, and its dropping of
// expired objects before it grows, invisible to the simulation goldens.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kad/node_arena.h"
#include "kad/node_id.h"
#include "object_store_oracle.h"
#include "util/rng.h"

namespace kadsim::kad {
namespace {

constexpr int kKeysPerFamily = 160;

/// SHA-1 ids, ids sharing limb 0, and ids that differ only in limb 2 — the
/// last two would pile onto few slots under a hash of limb 0 alone.
std::vector<NodeId> key_pool(std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<NodeId> keys;
    for (int i = 0; i < kKeysPerFamily; ++i) {
        keys.push_back(NodeId::hash_of(
            "object-" + std::to_string(seed) + "-" + std::to_string(i), 160));
    }
    const std::uint64_t fixed_lo = rng.next_u64();
    for (int i = 0; i < kKeysPerFamily; ++i) {
        keys.push_back(
            NodeId::from_limbs(fixed_lo, rng.next_u64(), rng.next_u64() & 0xFFFFFFFFULL));
    }
    const std::uint64_t fixed_mid = rng.next_u64();
    for (int i = 0; i < kKeysPerFamily; ++i) {
        keys.push_back(
            NodeId::from_limbs(fixed_lo, fixed_mid, static_cast<std::uint64_t>(i) + 1));
    }
    return keys;
}

/// Every key reads the same live object from both stores, and the store
/// holds every live object (it only ever drops expired ones).
void expect_same_live_objects(const ObjectStore& store,
                              const test_support::SortedObjectStore& oracle,
                              const std::vector<NodeId>& keys, sim::SimTime now,
                              const std::string& where) {
    for (const NodeId& key : keys) {
        const StoredObject* got = store.find(key);
        const StoredObject* want = oracle.find(key);
        const bool got_live = got != nullptr && got->expires > now;
        const bool want_live = want != nullptr && want->expires > now;
        ASSERT_EQ(got_live, want_live) << where << " key " << key.to_hex();
        if (!want_live) continue;
        ASSERT_EQ(got->key, key) << where;
        ASSERT_EQ(got->value, want->value) << where << " key " << key.to_hex();
        ASSERT_EQ(got->expires, want->expires) << where << " key " << key.to_hex();
    }
    ASSERT_GE(store.size(), oracle.live_count(now)) << where << ": a live object was dropped";
    ASSERT_LE(store.size(), oracle.size()) << where;
}

TEST(ObjectStore, MatchesSortedOracle) {
    // Object lifetimes of at most 40 ms churn a small store through drop
    // passes; 2000 ms lets the live set reach the whole pool, so the slot
    // table grows through several doublings.
    for (const sim::SimTime max_life : {40, 400, 2000}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const std::vector<NodeId> keys = key_pool(seed);
            util::Rng rng(seed * 1000 + static_cast<std::uint64_t>(max_life));
            ObjectStore store;
            test_support::SortedObjectStore oracle;
            sim::SimTime now = 0;
            store.erase_expired(now);
            ASSERT_EQ(store.memory_bytes(), 0u) << "an empty store allocated";
            for (int step = 0; step < 3000; ++step) {
                now += static_cast<sim::SimTime>(rng.next_below(3));
                const std::uint64_t op = rng.next_below(100);
                const std::string where = "life " + std::to_string(max_life) +
                                          " seed " + std::to_string(seed) +
                                          " step " + std::to_string(step);
                if (op < 60) {
                    const NodeId& key = keys[rng.next_below(keys.size())];
                    const std::uint64_t value = rng.next_u64();
                    const sim::SimTime expires =
                        now + 1 +
                        static_cast<sim::SimTime>(
                            rng.next_below(static_cast<std::uint64_t>(max_life)));
                    store.put(key, value, expires, now);
                    oracle.put(key, value, expires, now);
                } else if (op < 96) {
                    // The find itself; the full sweep below repeats it for
                    // every key.
                    const NodeId& key = keys[rng.next_below(keys.size())];
                    const StoredObject* got = store.find(key);
                    const StoredObject* want = oracle.find(key);
                    ASSERT_EQ(got != nullptr && got->expires > now,
                              want != nullptr && want->expires > now)
                        << where;
                } else if (op < 99) {
                    store.erase_expired(now);
                    oracle.erase_expired(now);
                    ASSERT_EQ(store.size(), oracle.size()) << where;
                } else {
                    store.release();
                    oracle.release();
                    ASSERT_EQ(store.size(), 0u) << where;
                    ASSERT_EQ(store.memory_bytes(), 0u) << where;
                }
                expect_same_live_objects(store, oracle, keys, now, where);
                if (HasFatalFailure()) return;
            }
        }
    }
}

}  // namespace
}  // namespace kadsim::kad
