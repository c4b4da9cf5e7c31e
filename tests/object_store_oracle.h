// Reference object store: one key-sorted vector per node, the oracle for
// kad::ObjectStore.
//
// This is the store the simulator ran before the hashed one: every find and
// update is a binary search, an insert shifts the tail, and nothing leaves
// before the storage GC or a crash. tests/test_object_store.cpp drives both
// through identical operation sequences and asserts every live object
// (expires > now) reads the same from each.
#ifndef KADSIM_TESTS_OBJECT_STORE_ORACLE_H
#define KADSIM_TESTS_OBJECT_STORE_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kad/node_arena.h"
#include "kad/node_id.h"
#include "sim/time.h"

namespace kadsim::test_support {

class SortedObjectStore {
public:
    [[nodiscard]] const kad::StoredObject* find(const kad::NodeId& key) const noexcept {
        const auto pos = lower_bound(key);
        return pos != objects_.end() && pos->key == key ? &*pos : nullptr;
    }

    /// Upsert; `now` is unused (the sorted store never drops on insert).
    void put(const kad::NodeId& key, std::uint64_t value, sim::SimTime expires,
             sim::SimTime /*now*/) {
        const auto pos = lower_bound(key);
        if (pos != objects_.end() && pos->key == key) {
            auto& obj = objects_[static_cast<std::size_t>(pos - objects_.begin())];
            obj.value = value;
            obj.expires = expires;
        } else {
            objects_.insert(pos, kad::StoredObject{key, value, expires});
        }
    }

    void erase_expired(sim::SimTime now) {
        std::erase_if(objects_,
                      [now](const kad::StoredObject& obj) { return obj.expires <= now; });
    }

    void release() noexcept { std::vector<kad::StoredObject>().swap(objects_); }

    [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }

    /// Objects with expires > now.
    [[nodiscard]] std::size_t live_count(sim::SimTime now) const noexcept {
        return static_cast<std::size_t>(
            std::count_if(objects_.begin(), objects_.end(),
                          [now](const kad::StoredObject& obj) { return obj.expires > now; }));
    }

private:
    [[nodiscard]] std::vector<kad::StoredObject>::const_iterator lower_bound(
        const kad::NodeId& key) const {
        return std::lower_bound(
            objects_.begin(), objects_.end(), key,
            [](const kad::StoredObject& obj, const kad::NodeId& k) { return obj.key < k; });
    }

    std::vector<kad::StoredObject> objects_;
};

}  // namespace kadsim::test_support

#endif  // KADSIM_TESTS_OBJECT_STORE_ORACLE_H
