// Struct-of-arrays storage for every Kademlia node of one overlay (or one
// region of a sharded overlay).
//
// The arena replaces the former vector<unique_ptr<KademliaNode>>: all
// per-node scalar state lives in parallel vectors indexed by net::Address,
// routing-bucket entries live in one shared BucketArena slab, and pending
// RPCs share a single map keyed by arena-globally-unique rpc ids. What
// remains of KademliaNode is a 16-byte handle (arena pointer + address),
// kept in a deque so delivery closures can capture stable `KademliaNode*`.
//
// The arena is also the address directory (the former NodeDirectory virtual
// interface): peer resolution on the RPC hot path is now a direct indexed
// load instead of a virtual call.
//
// Determinism contract (byte-identity with the pre-arena engine, pinned by
// tests/test_fault_equivalence.cpp):
//  - add_node draws the node's RNG stream at the same sequence point the old
//    KademliaNode constructor did;
//  - periodic maintenance is generation-checked self-re-arming events with
//    exactly the old PeriodicTask schedule (one push per firing, same order
//    refresh → storage-gc → advertise);
//  - the shared pending-RPC map is only ever probed by key (ids unique), so
//    its iteration order is unobservable; entries of crashed nodes are
//    lazily released by their timeout events.
#ifndef KADSIM_KAD_NODE_ARENA_H
#define KADSIM_KAD_NODE_ARENA_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "kad/bucket_arena.h"
#include "kad/config.h"
#include "kad/lookup_arena.h"
#include "kad/node.h"
#include "kad/routing_table.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "util/rng.h"

namespace kadsim::kad {

/// Single-probe open-addressing table for in-flight RPCs, keyed by the
/// strictly increasing rpc id. An id is live from send until its response or
/// timeout (≤ rpc_timeout), so the live-id span is bounded by send rate ×
/// timeout; once the power-of-two capacity exceeds that span, two live ids
/// cannot share a residue. A collision therefore only means the table is too
/// small — grow past the live span and retry. find/erase are one indexed
/// load: no hashing, no chains, no probe walks.
class PendingRpcMap {
public:
    PendingRpcMap() : slots_(kInitialSlots) {}

    /// Live entry for `id`, or nullptr (answered / timed out / never sent).
    [[nodiscard]] KademliaNode::PendingRpc* find(std::uint64_t id) noexcept {
        Slot& s = slots_[id & (slots_.size() - 1)];
        return s.id == id ? &s.rpc : nullptr;
    }

    /// Inserts a fresh id (ids are never reused, so `id` is absent).
    void emplace(std::uint64_t id, KademliaNode::PendingRpc rpc) {
        Slot* s = &slots_[id & (slots_.size() - 1)];
        if (s->id != 0) {
            grow(id);
            s = &slots_[id & (slots_.size() - 1)];
        }
        s->id = id;
        s->rpc = rpc;
    }

    /// Releases a live id (caller guarantees find(id) != nullptr).
    void erase(std::uint64_t id) noexcept {
        slots_[id & (slots_.size() - 1)].id = 0;
    }

    /// Capacity-based footprint for the bench counters.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return slots_.capacity() * sizeof(Slot);
    }

private:
    struct Slot {
        std::uint64_t id = 0;  // 0 = empty (rpc ids start at 1)
        KademliaNode::PendingRpc rpc;
    };
    static constexpr std::size_t kInitialSlots = 1024;

    /// Doubles capacity until it exceeds the live-id span (new id included),
    /// then rehashes — collision-free by the span argument above.
    void grow(std::uint64_t new_id) {
        std::uint64_t lo = new_id;
        std::uint64_t hi = new_id;
        for (const Slot& s : slots_) {
            if (s.id == 0) continue;
            lo = std::min(lo, s.id);
            hi = std::max(hi, s.id);
        }
        std::size_t cap = slots_.size();
        while (cap <= hi - lo) cap *= 2;
        if (cap == slots_.size()) cap *= 2;
        std::vector<Slot> bigger(cap);
        for (const Slot& s : slots_) {
            if (s.id != 0) bigger[s.id & (cap - 1)] = s;
        }
        slots_ = std::move(bigger);
    }

    std::vector<Slot> slots_;
};

/// One data object held by a node (paper §4.1 STORE / FIND_VALUE).
struct StoredObject {
    NodeId key;
    std::uint64_t value = 0;
    sim::SimTime expires = 0;
};

/// One node's stored objects: a dense, unsorted object array, grown by half
/// at a time, plus a power-of-two slot table (0 = empty, else object index
/// + 1) probed linearly from a multiply-shift hash of the key, at load
/// ≤ 3/4. A find or an update is one slot-table walk and, in the common
/// case, one object load. Keys are unique: put is an upsert.
///
/// Expired objects (expires ≤ now) are unobservable — readers skip them and
/// a put of the same key overwrites them — so before the store grows either
/// array it drops them, and a node's footprint follows its live set rather
/// than every object since the last storage GC. An empty store allocates
/// nothing.
class ObjectStore {
public:
    /// The object stored under `key`, expired or not, or nullptr.
    [[nodiscard]] const StoredObject* find(const NodeId& key) const noexcept {
        if (slots_.empty()) return nullptr;
        const std::uint32_t slot = slots_[probe(key)];
        return slot != 0 ? &objects_[slot - 1] : nullptr;
    }

    /// Stores `value` under `key` until `expires`, rewriting the key's
    /// object if one is held, expired or not.
    void put(const NodeId& key, std::uint64_t value, sim::SimTime expires,
             sim::SimTime now) {
        std::size_t at = 0;
        if (!slots_.empty()) {
            at = probe(key);
            if (slots_[at] != 0) {
                StoredObject& obj = objects_[slots_[at] - 1];
                obj.value = value;
                obj.expires = expires;
                return;
            }
        }
        if (objects_.size() == objects_.capacity()) {
            drop_expired(now);
            // Grow unless the drop freed over a sixteenth of the array, so
            // each O(size) drop pass is paid for by the puts it makes room
            // for.
            if (objects_.capacity() - objects_.size() <= objects_.capacity() / 16) {
                grow();
            } else {
                rebuild_slots();
            }
            at = probe(key);
        }
        slots_[at] = static_cast<std::uint32_t>(objects_.size() + 1);
        objects_.push_back(StoredObject{key, value, expires});
    }

    /// Erases every object with expires ≤ now (the periodic storage GC).
    void erase_expired(sim::SimTime now) {
        if (drop_expired(now)) rebuild_slots();
    }

    /// Frees both arrays (crash).
    void release() noexcept {
        std::vector<StoredObject>().swap(objects_);
        std::vector<std::uint32_t>().swap(slots_);
    }

    /// Objects held, expired ones not yet dropped included.
    [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }

    /// Capacity-based footprint for the bench counters.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return objects_.capacity() * sizeof(StoredObject) +
               slots_.capacity() * sizeof(std::uint32_t);
    }

private:
    static constexpr std::size_t kInitialObjects = 12;

    /// First slot of `key`'s probe walk: multiply-shift over all three limbs,
    /// so ids that differ only in a high limb still spread over the table.
    [[nodiscard]] std::size_t home(const NodeId& key) const noexcept {
        const std::uint64_t h = key.limb(0) * 0x9E3779B97F4A7C15ULL +
                                key.limb(1) * 0xC2B2AE3D27D4EB4FULL +
                                key.limb(2) * 0x165667B19E3779F9ULL;
        return static_cast<std::size_t>(h >> (64 - std::countr_zero(slots_.size())));
    }

    /// Slot holding `key`, or the empty slot that ends its probe walk.
    [[nodiscard]] std::size_t probe(const NodeId& key) const noexcept {
        const std::size_t mask = slots_.size() - 1;
        std::size_t at = home(key);
        while (slots_[at] != 0 && objects_[slots_[at] - 1].key != key) {
            at = (at + 1) & mask;
        }
        return at;
    }

    /// Erases expired objects from the object array only; true if any went.
    bool drop_expired(sim::SimTime now) {
        return std::erase_if(objects_, [now](const StoredObject& obj) {
                   return obj.expires <= now;
               }) != 0;
    }

    /// Grows the object array by half (exactly: reserve allocates what it
    /// is asked for) and the slot table to keep its load ≤ 3/4.
    void grow() {
        const std::size_t cap = objects_.capacity();
        const std::size_t objects = cap == 0 ? kInitialObjects : cap + cap / 2;
        objects_.reserve(objects);
        slots_.resize(std::bit_ceil(objects + (objects + 2) / 3));
        rebuild_slots();
    }

    /// Re-indexes every object (keys are unique, so no key compares).
    void rebuild_slots() noexcept {
        std::fill(slots_.begin(), slots_.end(), 0);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = 0; i < objects_.size(); ++i) {
            std::size_t at = home(objects_[i].key);
            while (slots_[at] != 0) at = (at + 1) & mask;
            slots_[at] = static_cast<std::uint32_t>(i + 1);
        }
    }

    std::vector<StoredObject> objects_;
    std::vector<std::uint32_t> slots_;
};

class NodeArena {
public:
    /// `config` is validated once here; all three references must outlive
    /// the arena.
    NodeArena(const KademliaConfig& config, sim::Simulator& sim,
              net::Network& network);

    NodeArena(const NodeArena&) = delete;
    NodeArena& operator=(const NodeArena&) = delete;

    /// Creates the node listening on `address` — addresses must be assigned
    /// densely in order (address == size()). Draws the node's RNG stream
    /// from the simulator at call time, so arena construction order defines
    /// the stream order exactly as per-object construction used to.
    KademliaNode* add_node(NodeId id, net::Address address);

    /// Address → protocol handle (nullptr if never assigned). Crashed nodes
    /// keep their (inert) handle so in-flight delivery closures stay valid.
    [[nodiscard]] KademliaNode* node_at(net::Address address) noexcept {
        return address < nodes_.size() ? &nodes_[address] : nullptr;
    }
    [[nodiscard]] const KademliaNode* node_at(net::Address address) const noexcept {
        return address < nodes_.size() ? &nodes_[address] : nullptr;
    }

    [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

    [[nodiscard]] const KademliaConfig& config() const noexcept { return config_; }
    [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
    [[nodiscard]] net::Network& network() noexcept { return network_; }

    [[nodiscard]] const NodeId& id_of(net::Address address) const {
        return ids_[address];
    }
    [[nodiscard]] bool alive(net::Address address) const {
        return alive_[address] != 0;
    }
    [[nodiscard]] const NodeCounters& counters_of(net::Address address) const {
        return counters_[address];
    }
    [[nodiscard]] const RoutingTable& table_of(net::Address address) const {
        return tables_[address];
    }

    /// Stored-contact count of one node's table — O(1); the snapshot capture
    /// sums these to size its CSR slab before the bulk export pass.
    [[nodiscard]] std::size_t contact_count_of(net::Address address) const noexcept {
        return tables_[address].size();
    }

    /// Bulk contact export (snapshot capture): writes the addresses of every
    /// contact stored by `address`'s table into `out` —
    /// contact_count_of(address) slots — as `local * mul + add` (the region's
    /// local→global map) and returns the number written.
    std::size_t export_contacts_of(net::Address address, net::Address* out,
                                   net::Address mul = 1,
                                   net::Address add = 0) const noexcept {
        return tables_[address].export_contacts(out, mul, add);
    }

    /// Capacity-based resident footprint of all node state, including the
    /// shared bucket slab (the bench's arena-bytes counter). O(n) — meant
    /// for per-snapshot sampling, not per-event.
    [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

    /// Cumulative workload metrics of every measured lookup issued by this
    /// arena's nodes (lookup_node / lookup_value — traffic and refresh).
    /// scen::Runner merges these across regions in fixed region order.
    [[nodiscard]] const stats::LookupTraffic& lookup_traffic() const noexcept {
        return traffic_;
    }

    /// The shared in-flight lookup storage (footprint counters, tests).
    [[nodiscard]] const LookupArena& lookup_arena() const noexcept {
        return lookup_arena_;
    }

private:
    friend class KademliaNode;

    enum class TaskKind : std::uint8_t { kRefresh, kStorageGc, kAdvertise };

    /// Generation-checked self-re-arming maintenance event: fires at `at`,
    /// runs the task, re-arms at now + period — unless the node's task
    /// generation moved (crash), which cancels the chain. Push pattern is
    /// identical to the old PeriodicTask (one event per firing).
    void arm_task(net::Address address, TaskKind kind, sim::SimTime at,
                  sim::SimTime period, std::uint32_t generation);
    void run_task(net::Address address, TaskKind kind);

    struct NodeLookups {
        std::vector<KademliaNode::ActiveLookup> slots;
        std::vector<std::uint32_t> free_slots;
    };

    /// Scratch contact buffer for the allocation-free lookup path, indexed
    /// by reentrancy depth: finish_lookup callbacks may synchronously start
    /// (and finish) nested lookups, so a single buffer would be clobbered.
    /// Buffers are heap-pinned (unique_ptr) so references stay valid while
    /// the outer vector grows; after warmup acquire/release allocate
    /// nothing.
    [[nodiscard]] std::vector<Contact>& acquire_scratch() {
        if (scratch_in_use_ == contact_scratch_.size()) {
            contact_scratch_.push_back(std::make_unique<std::vector<Contact>>());
        }
        auto& buf = *contact_scratch_[scratch_in_use_++];
        buf.clear();
        return buf;
    }
    void release_scratch() noexcept { --scratch_in_use_; }

    const KademliaConfig& config_;
    sim::Simulator& sim_;
    net::Network& network_;
    BucketArena buckets_;
    LookupArena lookup_arena_;
    stats::LookupTraffic traffic_;
    std::vector<std::unique_ptr<std::vector<Contact>>> contact_scratch_;
    std::size_t scratch_in_use_ = 0;

    std::deque<KademliaNode> nodes_;  // stable 16-byte handles, by address
    std::vector<NodeId> ids_;
    std::vector<std::uint8_t> alive_;
    std::vector<util::Rng> rngs_;
    std::vector<RoutingTable> tables_;
    std::vector<std::optional<Contact>> bootstraps_;
    std::vector<std::uint32_t> task_gen_;
    std::vector<NodeCounters> counters_;
    std::vector<NodeLookups> lookups_;
    std::vector<ObjectStore> storage_;
    /// address * b + bucket → last lookup touching the bucket; allocated
    /// only under RefreshPolicy::kStaleOnly (the only reader).
    std::vector<sim::SimTime> bucket_last_lookup_;

    /// Shared pending-RPC table; ids are arena-globally unique, so per-node
    /// maps collapsed into one single-probe slot table.
    PendingRpcMap pending_;
    std::uint64_t next_rpc_id_ = 1;
};

}  // namespace kadsim::kad

#endif  // KADSIM_KAD_NODE_ARENA_H
