#include "kad/node.h"

#include <algorithm>

#include "kad/node_arena.h"
#include "util/assert.h"

namespace kadsim::kad {

namespace {
/// How many of its own contacts a node seeds an iterative lookup with.
constexpr std::size_t seed_width(int k) { return static_cast<std::size_t>(k); }
}  // namespace

// Accessor shorthand: every field lives in the arena, indexed by address_.

const NodeId& KademliaNode::id() const noexcept { return arena_->ids_[address_]; }

bool KademliaNode::alive() const noexcept { return arena_->alive_[address_] != 0; }

const RoutingTable& KademliaNode::routing_table() const noexcept {
    return arena_->tables_[address_];
}

const NodeCounters& KademliaNode::counters() const noexcept {
    return arena_->counters_[address_];
}

std::size_t KademliaNode::storage_size() const noexcept {
    return arena_->storage_[address_].size();
}

void KademliaNode::join(const std::optional<Contact>& bootstrap) {
    NodeArena& a = *arena_;
    KADSIM_ASSERT(alive());
    a.bootstraps_[address_] = bootstrap;
    if (bootstrap.has_value()) {
        observe_sender(*bootstrap);
    }
    // Locate our own id: populates buckets along the lookup path and
    // announces our existence to the nodes we contact (paper §5.3). Joins use
    // the strict-k termination of the original protocol — the new node must
    // enter ~k routing tables right away, which is what keeps the minimum
    // connectivity near k under join churn (Table 2).
    start_lookup(id(), LookupMode::kFindNode, LookupDoneFn{}, false, 0,
                 /*strict_k=*/true, /*measured=*/false);

    const KademliaConfig& cfg = a.config_;
    const std::uint32_t gen = a.task_gen_[address_];
    a.arm_task(address_, NodeArena::TaskKind::kRefresh,
               a.sim_.now() + cfg.refresh_interval, cfg.refresh_interval, gen);
    a.arm_task(address_, NodeArena::TaskKind::kStorageGc,
               a.sim_.now() + cfg.storage_expiry, cfg.storage_expiry / 2, gen);
    if (cfg.advertise_per_refresh > 0) {
        // Connectivity-boost extension: γ strict-k self-announcements per
        // refresh interval, evenly spread, starting one period after join —
        // fresh joiners get their first repair quickly, which is where the
        // minimum connectivity is pinned under churn.
        const sim::SimTime period = std::max<sim::SimTime>(
            1, cfg.refresh_interval / cfg.advertise_per_refresh);
        a.arm_task(address_, NodeArena::TaskKind::kAdvertise, a.sim_.now() + period,
                   period, gen);
    }
}

void KademliaNode::crash() {
    NodeArena& a = *arena_;
    if (!alive()) return;
    a.alive_[address_] = 0;
    a.network_.set_up(address_, false);
    ++a.task_gen_[address_];  // cancels the maintenance event chains
    auto& lookups = a.lookups_[address_];
    // Return in-flight arena slots before dropping the handles; crashed
    // lookups never reach finish_lookup (not counted as completed).
    for (auto& slot : lookups.slots) {
        if (slot.arena_slot != LookupArena::kInvalidSlot) {
            a.lookup_arena_.release(slot.arena_slot);
            slot.arena_slot = LookupArena::kInvalidSlot;
        }
    }
    lookups.slots.clear();
    lookups.free_slots.clear();
    a.storage_[address_].release();
    // Clears contacts, replacement candidates and eviction-ping flags, and
    // returns the bucket blocks to the arena free list. Pending-RPC entries
    // are released lazily by their timeout events (ids are unique; nothing
    // observes the map between now and then).
    a.tables_[address_].clear();
}

void KademliaNode::lookup_node(const NodeId& target, LookupDoneFn on_done) {
    start_lookup(target, LookupMode::kFindNode, std::move(on_done), false, 0, false,
                 /*measured=*/true);
}

void KademliaNode::lookup_value(const NodeId& key, LookupDoneFn on_done) {
    start_lookup(key, LookupMode::kFindValue, std::move(on_done), false, 0, false,
                 /*measured=*/true);
}

void KademliaNode::disseminate(const NodeId& key, std::uint64_t value,
                               LookupDoneFn on_done) {
    // STORE placement is strict-k (original protocol): the object must land
    // on the k closest nodes, so the locate phase may not stop early. The
    // locate walk is maintenance, not a measured lookup.
    start_lookup(key, LookupMode::kFindNode, std::move(on_done), true, value, true,
                 /*measured=*/false);
}

std::optional<std::uint64_t> KademliaNode::stored_value(const NodeId& key) const {
    const StoredObject* obj = arena_->storage_[address_].find(key);
    if (obj == nullptr || obj->expires <= arena_->sim_.now()) return std::nullopt;
    return obj->value;
}

// ---------------------------------------------------------------- ingress --

void KademliaNode::handle_ping(const Contact& from, std::uint64_t rpc_id) {
    NodeArena& a = *arena_;
    if (!alive()) return;
    observe_sender(from);
    ++a.counters_[address_].requests_served;
    KademliaNode* peer = a.node_at(from.address);
    if (peer == nullptr) return;
    const Contact me = contact();
    a.network_.transmit(address_, from.address, [peer, rpc_id, me] {
        peer->handle_ping_response(rpc_id, me);
    });
}

void KademliaNode::handle_ping_response(std::uint64_t rpc_id, const Contact& from) {
    if (!alive()) return;
    observe_sender(from);
    PendingRpc pending;
    rpc_succeeded(rpc_id, from, &pending);
}

void KademliaNode::handle_find_node(const Contact& from, std::uint64_t rpc_id,
                                    const NodeId& target) {
    NodeArena& a = *arena_;
    if (!alive()) return;
    observe_sender(from);
    ++a.counters_[address_].requests_served;
    std::vector<Contact> closest;
    closest.reserve(static_cast<std::size_t>(a.config_.k));
    a.tables_[address_].closest(target, static_cast<std::size_t>(a.config_.k),
                                closest, &from.id);
    KademliaNode* peer = a.node_at(from.address);
    if (peer == nullptr) return;
    const Contact me = contact();
    a.network_.transmit(address_, from.address,
                        [peer, rpc_id, me, contacts = std::move(closest)]() mutable {
                            peer->handle_find_node_response(rpc_id, me,
                                                            std::move(contacts));
                        });
}

void KademliaNode::handle_find_node_response(std::uint64_t rpc_id, const Contact& from,
                                             std::vector<Contact> contacts) {
    if (!alive()) return;
    observe_sender(from);
    PendingRpc pending;
    rpc_succeeded(rpc_id, from, &pending);
    if (pending.kind != RpcKind::kLookup) return;
    auto& slot = arena_->lookups_[address_].slots[pending.lookup_slot];
    if (slot.generation != pending.lookup_generation ||
        slot.arena_slot == LookupArena::kInvalidSlot) {
        return;
    }
    arena_->lookup_arena_.on_response(slot.arena_slot, from.id, contacts, false);
    pump_lookup(pending.lookup_slot);
}

void KademliaNode::handle_find_value(const Contact& from, std::uint64_t rpc_id,
                                     const NodeId& key) {
    NodeArena& a = *arena_;
    if (!alive()) return;
    observe_sender(from);
    ++a.counters_[address_].requests_served;
    KademliaNode* peer = a.node_at(from.address);
    if (peer == nullptr) return;
    const Contact me = contact();

    const StoredObject* obj = a.storage_[address_].find(key);
    if (obj != nullptr && obj->expires > a.sim_.now()) {
        const std::uint64_t value = obj->value;
        a.network_.transmit(address_, from.address, [peer, rpc_id, me, value] {
            peer->handle_find_value_response(rpc_id, me, value, {});
        });
        return;
    }
    std::vector<Contact> closest;
    closest.reserve(static_cast<std::size_t>(a.config_.k));
    a.tables_[address_].closest(key, static_cast<std::size_t>(a.config_.k), closest,
                                &from.id);
    a.network_.transmit(address_, from.address,
                        [peer, rpc_id, me, contacts = std::move(closest)]() mutable {
                            peer->handle_find_value_response(rpc_id, me, std::nullopt,
                                                             std::move(contacts));
                        });
}

void KademliaNode::handle_find_value_response(std::uint64_t rpc_id, const Contact& from,
                                              std::optional<std::uint64_t> value,
                                              std::vector<Contact> contacts) {
    if (!alive()) return;
    observe_sender(from);
    PendingRpc pending;
    rpc_succeeded(rpc_id, from, &pending);
    if (pending.kind != RpcKind::kLookup) return;
    auto& slot = arena_->lookups_[address_].slots[pending.lookup_slot];
    if (slot.generation != pending.lookup_generation ||
        slot.arena_slot == LookupArena::kInvalidSlot) {
        return;
    }
    arena_->lookup_arena_.on_response(slot.arena_slot, from.id, contacts,
                                      value.has_value());
    pump_lookup(pending.lookup_slot);
}

void KademliaNode::handle_store(const Contact& from, std::uint64_t rpc_id,
                                const NodeId& key, std::uint64_t value) {
    NodeArena& a = *arena_;
    if (!alive()) return;
    observe_sender(from);
    ++a.counters_[address_].requests_served;
    const sim::SimTime now = a.sim_.now();
    a.storage_[address_].put(key, value, now + a.config_.storage_expiry, now);
    KademliaNode* peer = a.node_at(from.address);
    if (peer == nullptr) return;
    const Contact me = contact();
    a.network_.transmit(address_, from.address, [peer, rpc_id, me] {
        peer->handle_store_response(rpc_id, me);
    });
}

void KademliaNode::handle_store_response(std::uint64_t rpc_id, const Contact& from) {
    if (!alive()) return;
    observe_sender(from);
    PendingRpc pending;
    rpc_succeeded(rpc_id, from, &pending);
}

// ---------------------------------------------------------------- internals --

void KademliaNode::observe_sender(const Contact& from) {
    NodeArena& a = *arena_;
    RoutingTable& table = a.tables_[address_];
    const ObserveResult result = table.observe(from, a.sim_.now());
    if (result == ObserveResult::kBucketFull &&
        a.config_.bucket_policy == BucketPolicy::kPingEvict) {
        const int bucket = table.bucket_index_of(from.id);
        if (table.try_mark_eviction(bucket)) {
            const auto lrs = table.least_recently_seen(from.id);
            if (lrs.has_value()) {
                send_eviction_ping(*lrs);
            } else {
                table.clear_eviction(bucket);
            }
        }
    }
}

void KademliaNode::start_lookup(const NodeId& target, LookupMode mode,
                                LookupDoneFn on_done, bool disseminating,
                                std::uint64_t store_value, bool strict_k,
                                bool measured) {
    NodeArena& a = *arena_;
    KADSIM_ASSERT(alive());
    ++a.counters_[address_].lookups_started;
    if (measured) ++a.traffic_.issued;
    note_lookup_target(target);

    auto& lookups = a.lookups_[address_];
    std::uint32_t slot_index;
    if (!lookups.free_slots.empty()) {
        slot_index = lookups.free_slots.back();
        lookups.free_slots.pop_back();
    } else {
        slot_index = static_cast<std::uint32_t>(lookups.slots.size());
        lookups.slots.emplace_back();
    }
    auto& slot = lookups.slots[slot_index];
    slot.arena_slot =
        a.lookup_arena_.begin(id(), target, mode, strict_k, a.sim_.now());
    slot.on_done = std::move(on_done);
    slot.disseminating = disseminating;
    slot.measured = measured;
    slot.store_value = store_value;

    auto& seeds = a.acquire_scratch();
    a.tables_[address_].closest(target, seed_width(a.config_.k), seeds);
    const auto& bootstrap = a.bootstraps_[address_];
    if (seeds.empty() && bootstrap.has_value() && bootstrap->id != id()) {
        // Empty table (lost-join or drained by staleness): fall back to the
        // configured bootstrap address and try to re-enter the network.
        seeds.push_back(*bootstrap);
    }
    a.lookup_arena_.seed(slot.arena_slot, seeds);
    a.release_scratch();
    pump_lookup(slot_index);
}

void KademliaNode::pump_lookup(std::uint32_t slot_index) {
    NodeArena& a = *arena_;
    auto& slots = a.lookups_[address_].slots;
    while (true) {
        auto& slot = slots[slot_index];
        if (slot.arena_slot == LookupArena::kInvalidSlot) return;
        const auto next = a.lookup_arena_.next_query(slot.arena_slot);
        if (!next.has_value()) break;
        send_lookup_query(slot_index, *next);
    }
    if (a.lookup_arena_.finished(slots[slot_index].arena_slot)) {
        finish_lookup(slot_index);
    }
}

void KademliaNode::finish_lookup(std::uint32_t slot_index) {
    NodeArena& a = *arena_;
    auto& lookups = a.lookups_[address_];
    auto& slot = lookups.slots[slot_index];
    // Detach state before invoking callbacks: a callback may start new
    // lookups, reusing or growing the slot vector (and the arena slot).
    const LookupArena::Slot arena_slot = slot.arena_slot;
    LookupDoneFn on_done = std::move(slot.on_done);
    const bool disseminating = slot.disseminating;
    const bool measured = slot.measured;
    const std::uint64_t store_value = slot.store_value;
    slot.arena_slot = LookupArena::kInvalidSlot;
    slot.on_done.reset();
    ++slot.generation;  // invalidates in-flight RPC references to this slot
    lookups.free_slots.push_back(slot_index);

    auto& counters = a.counters_[address_];
    ++counters.lookups_completed;
    const bool value_found = a.lookup_arena_.value_found(arena_slot);
    const NodeId target = a.lookup_arena_.target(arena_slot);
    if (value_found) ++counters.values_found;

    auto& closest = a.acquire_scratch();
    a.lookup_arena_.successful_closest(arena_slot, closest);
    if (measured) {
        stats::LookupTraffic& t = a.traffic_;
        ++t.completed;
        if (value_found || !closest.empty()) ++t.succeeded;
        if (value_found) ++t.values_found;
        t.hops.add(a.lookup_arena_.hop_count(arena_slot));
        t.latency_ms.add(a.sim_.now() - a.lookup_arena_.issued_at(arena_slot));
    }
    a.lookup_arena_.release(arena_slot);

    if (disseminating) {
        for (const auto& c : closest) send_store(c, target, store_value);
    }
    if (on_done.has_value()) {
        on_done(target, value_found, closest);
    }
    a.release_scratch();
}

void KademliaNode::send_lookup_query(std::uint32_t slot_index, const Contact& to) {
    NodeArena& a = *arena_;
    auto& slot = a.lookups_[address_].slots[slot_index];
    const std::uint64_t rpc_id =
        register_rpc(to, RpcKind::kLookup, slot_index, slot.generation);
    KademliaNode* peer = a.node_at(to.address);
    KADSIM_ASSERT_MSG(peer != nullptr, "lookup query to unknown address");
    const Contact me = contact();
    const NodeId target = a.lookup_arena_.target(slot.arena_slot);
    if (a.lookup_arena_.mode(slot.arena_slot) == LookupMode::kFindValue) {
        a.network_.transmit(address_, to.address, [peer, me, rpc_id, target] {
            peer->handle_find_value(me, rpc_id, target);
        });
    } else {
        a.network_.transmit(address_, to.address, [peer, me, rpc_id, target] {
            peer->handle_find_node(me, rpc_id, target);
        });
    }
}

void KademliaNode::send_store(const Contact& to, const NodeId& key,
                              std::uint64_t value) {
    NodeArena& a = *arena_;
    const std::uint64_t rpc_id = register_rpc(to, RpcKind::kStore, 0, 0);
    ++a.counters_[address_].stores_sent;
    KademliaNode* peer = a.node_at(to.address);
    KADSIM_ASSERT_MSG(peer != nullptr, "store to unknown address");
    const Contact me = contact();
    a.network_.transmit(address_, to.address, [peer, me, rpc_id, key, value] {
        peer->handle_store(me, rpc_id, key, value);
    });
}

void KademliaNode::send_eviction_ping(const Contact& to) {
    NodeArena& a = *arena_;
    const std::uint64_t rpc_id = register_rpc(to, RpcKind::kEviction, 0, 0);
    KademliaNode* peer = a.node_at(to.address);
    KADSIM_ASSERT_MSG(peer != nullptr, "ping to unknown address");
    const Contact me = contact();
    a.network_.transmit(address_, to.address,
                        [peer, me, rpc_id] { peer->handle_ping(me, rpc_id); });
}

std::uint64_t KademliaNode::register_rpc(const Contact& to, RpcKind kind,
                                         std::uint32_t lookup_slot,
                                         std::uint32_t generation) {
    NodeArena& a = *arena_;
    const std::uint64_t rpc_id = a.next_rpc_id_++;
    a.pending_.emplace(rpc_id, PendingRpc{to, kind, lookup_slot, generation});
    ++a.counters_[address_].rpcs_sent;
    a.sim_.schedule_in(a.config_.rpc_timeout,
                       [this, rpc_id] { on_rpc_timeout(rpc_id); });
    return rpc_id;
}

void KademliaNode::on_rpc_timeout(std::uint64_t rpc_id) {
    NodeArena& a = *arena_;
    const PendingRpc* entry = a.pending_.find(rpc_id);
    if (entry == nullptr) return;  // answered in time
    if (!alive()) {
        // Sent before this node crashed: release the entry, change nothing
        // else (the pre-arena engine dropped these wholesale in crash()).
        a.pending_.erase(rpc_id);
        return;
    }
    const PendingRpc pending = *entry;
    a.pending_.erase(rpc_id);
    ++a.counters_[address_].rpcs_failed;

    RoutingTable& table = a.tables_[address_];
    // Staleness accounting (§4.1): the contact is dropped after s consecutive
    // failures. Under ping-evict, a removed contact is replaced from the
    // bucket's parking slot inside record_failure.
    table.record_failure(pending.to.id, a.sim_.now());

    if (pending.kind == RpcKind::kEviction) {
        table.clear_eviction(table.bucket_index_of(pending.to.id));
        return;
    }
    if (pending.kind != RpcKind::kLookup) return;
    auto& slot = a.lookups_[address_].slots[pending.lookup_slot];
    if (slot.generation != pending.lookup_generation ||
        slot.arena_slot == LookupArena::kInvalidSlot) {
        return;
    }
    a.lookup_arena_.on_failure(slot.arena_slot, pending.to.id);
    pump_lookup(pending.lookup_slot);
}

void KademliaNode::rpc_succeeded(std::uint64_t rpc_id, const Contact& from,
                                 PendingRpc* out_pending) {
    NodeArena& a = *arena_;
    const PendingRpc* entry = a.pending_.find(rpc_id);
    if (entry == nullptr) {
        out_pending->kind = RpcKind::kNone;  // late reply after timeout
        return;
    }
    *out_pending = *entry;
    a.pending_.erase(rpc_id);
    if (out_pending->kind == RpcKind::kEviction) {
        RoutingTable& table = a.tables_[address_];
        table.clear_eviction(table.bucket_index_of(from.id));
    }
}

void KademliaNode::do_refresh() {
    NodeArena& a = *arena_;
    if (!alive()) return;
    const sim::SimTime now = a.sim_.now();
    const RoutingTable& table = a.tables_[address_];
    for (int bucket = 0; bucket < a.config_.b; ++bucket) {
        // Only buckets in use are refreshed: with b=160 and realistic network
        // sizes, ~150 buckets cover id ranges containing no nodes at all;
        // refreshing those would make every node probe its own neighbourhood
        // 150 times per hour and over-mix the overlay (the paper's Figs. 2-3
        // hold at kappa ~ k through stabilization, which pins down this
        // reading of "each k-bucket").
        if (table.bucket_entries(bucket).empty()) continue;
        if (a.config_.refresh_policy == RefreshPolicy::kStaleOnly) {
            const sim::SimTime last =
                a.bucket_last_lookup_[static_cast<std::size_t>(address_) *
                                          static_cast<std::size_t>(a.config_.b) +
                                      static_cast<std::size_t>(bucket)];
            if (last + a.config_.refresh_interval > now) continue;
        }
        const NodeId target =
            NodeId::random_in_bucket(id(), bucket, a.rngs_[address_], a.config_.b);
        const auto delay = static_cast<sim::SimTime>(a.rngs_[address_].next_below(
            static_cast<std::uint64_t>(a.config_.refresh_spread)));
        a.sim_.schedule_in(delay, [this, target] {
            if (alive()) lookup_node(target, LookupDoneFn{});
        });
    }
}

void KademliaNode::do_advertise() {
    if (!alive()) return;
    start_lookup(id(), LookupMode::kFindNode, LookupDoneFn{}, false, 0,
                 /*strict_k=*/true, /*measured=*/false);
}

void KademliaNode::note_lookup_target(const NodeId& target) {
    NodeArena& a = *arena_;
    if (a.config_.refresh_policy != RefreshPolicy::kStaleOnly) return;
    if (target == id()) return;
    const int bucket = a.tables_[address_].bucket_index_of(target);
    a.bucket_last_lookup_[static_cast<std::size_t>(address_) *
                              static_cast<std::size_t>(a.config_.b) +
                          static_cast<std::size_t>(bucket)] = a.sim_.now();
}

void KademliaNode::gc_storage() {
    NodeArena& a = *arena_;
    if (!alive()) return;
    a.storage_[address_].erase_expired(a.sim_.now());
}

}  // namespace kadsim::kad
