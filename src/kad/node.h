// A Kademlia node: routing table + RPC endpoints + iterative lookups +
// maintenance (paper §4.1, §5.3).
//
// Lifecycle: construct (via NodeArena::add_node) → join() → traffic
// (lookup/disseminate) + hourly bucket refresh → crash() on churn removal.
// After crash() the instance is inert (handlers no-op) but remains
// addressable so in-flight closures stay valid.
//
// The class itself is a 16-byte handle: every field lives in the owning
// NodeArena's struct-of-arrays storage, indexed by the node's address.
// Handles have stable addresses for the lifetime of the arena (delivery
// closures capture `KademliaNode*`).
#ifndef KADSIM_KAD_NODE_H
#define KADSIM_KAD_NODE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "kad/config.h"
#include "kad/contact.h"
#include "kad/lookup_arena.h"
#include "kad/messages.h"
#include "kad/routing_table.h"
#include "net/network.h"
#include "sim/time.h"

namespace kadsim::kad {

class NodeArena;

/// Aggregate per-node protocol counters (collected by scen::Metrics).
struct NodeCounters {
    std::uint64_t lookups_started = 0;
    std::uint64_t lookups_completed = 0;
    std::uint64_t values_found = 0;
    std::uint64_t stores_sent = 0;
    std::uint64_t rpcs_sent = 0;
    std::uint64_t rpcs_failed = 0;
    std::uint64_t requests_served = 0;
};

class KademliaNode {
public:
    /// Callback invoked when a lookup completes. Kept small: the result
    /// carries the successfully contacted closest nodes.
    using LookupDoneFn =
        util::InplaceFunction<void(const NodeId& target, bool value_found,
                                   const std::vector<Contact>& closest), 48>;

    [[nodiscard]] const NodeId& id() const noexcept;
    [[nodiscard]] net::Address address() const noexcept { return address_; }
    [[nodiscard]] Contact contact() const noexcept { return Contact{id(), address_}; }
    [[nodiscard]] bool alive() const noexcept;
    [[nodiscard]] const RoutingTable& routing_table() const noexcept;
    [[nodiscard]] const NodeCounters& counters() const noexcept;

    /// Joins via `bootstrap` (paper §5.3: a random already-joined node):
    /// inserts the bootstrap contact, looks up the node's own id, and starts
    /// the hourly bucket-refresh cycle.
    void join(const std::optional<Contact>& bootstrap);

    /// Fail-stop crash (churn removal / attacker takedown). Pending state is
    /// released; the instance stays allocated but inert.
    void crash();

    /// Iterative FIND_NODE lookup toward `target`.
    void lookup_node(const NodeId& target, LookupDoneFn on_done);

    /// Iterative FIND_VALUE lookup for data object `key`.
    void lookup_value(const NodeId& key, LookupDoneFn on_done);

    /// Dissemination procedure (paper §4.1): locate the k closest nodes to
    /// `key`, then STORE the object at each of them.
    void disseminate(const NodeId& key, std::uint64_t value, LookupDoneFn on_done);

    /// Local storage lookup (tests / examples).
    [[nodiscard]] std::optional<std::uint64_t> stored_value(const NodeId& key) const;
    [[nodiscard]] std::size_t storage_size() const noexcept;

    // --- RPC ingress (invoked by peers through delivery closures) ---
    void handle_ping(const Contact& from, std::uint64_t rpc_id);
    void handle_ping_response(std::uint64_t rpc_id, const Contact& from);
    void handle_find_node(const Contact& from, std::uint64_t rpc_id,
                          const NodeId& target);
    void handle_find_node_response(std::uint64_t rpc_id, const Contact& from,
                                   std::vector<Contact> contacts);
    void handle_find_value(const Contact& from, std::uint64_t rpc_id, const NodeId& key);
    void handle_find_value_response(std::uint64_t rpc_id, const Contact& from,
                                    std::optional<std::uint64_t> value,
                                    std::vector<Contact> contacts);
    void handle_store(const Contact& from, std::uint64_t rpc_id, const NodeId& key,
                      std::uint64_t value);
    void handle_store_response(std::uint64_t rpc_id, const Contact& from);

private:
    friend class NodeArena;
    friend class PendingRpcMap;  // slot table of in-flight PendingRpc entries

    KademliaNode(NodeArena& arena, net::Address address) noexcept
        : arena_(&arena), address_(address) {}

    struct ActiveLookup {
        /// Slot in the owning NodeArena's shared LookupArena, or
        /// kInvalidSlot when idle.
        std::uint32_t arena_slot = LookupArena::kInvalidSlot;
        LookupDoneFn on_done;
        std::uint32_t generation = 0;
        bool disseminating = false;
        /// Counted in the arena's LookupTraffic histograms: application-level
        /// lookups (lookup_node / lookup_value), not joins/advertisements.
        bool measured = false;
        std::uint64_t store_value = 0;
    };

    enum class RpcKind : std::uint8_t { kNone, kLookup, kStore, kEviction };

    struct PendingRpc {
        Contact to;
        RpcKind kind = RpcKind::kNone;
        std::uint32_t lookup_slot = 0;
        std::uint32_t lookup_generation = 0;
    };

    struct StoredObject {
        NodeId key;
        std::uint64_t value = 0;
        sim::SimTime expires = 0;
    };

    /// Any message received from a peer is liveness evidence (§4.1).
    void observe_sender(const Contact& from);
    void start_lookup(const NodeId& target, LookupMode mode, LookupDoneFn on_done,
                      bool disseminating, std::uint64_t store_value, bool strict_k,
                      bool measured);
    void pump_lookup(std::uint32_t slot);
    void finish_lookup(std::uint32_t slot);
    void send_lookup_query(std::uint32_t slot, const Contact& to);
    void send_store(const Contact& to, const NodeId& key, std::uint64_t value);
    void send_eviction_ping(const Contact& to);
    std::uint64_t register_rpc(const Contact& to, RpcKind kind,
                               std::uint32_t lookup_slot, std::uint32_t generation);
    void on_rpc_timeout(std::uint64_t rpc_id);
    void rpc_succeeded(std::uint64_t rpc_id, const Contact& from,
                       PendingRpc* out_pending);
    void do_refresh();
    void do_advertise();
    void note_lookup_target(const NodeId& target);
    void gc_storage();

    NodeArena* arena_;
    net::Address address_;
};

}  // namespace kadsim::kad

#endif  // KADSIM_KAD_NODE_H
