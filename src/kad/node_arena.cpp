#include "kad/node_arena.h"

#include "util/assert.h"

namespace kadsim::kad {

NodeArena::NodeArena(const KademliaConfig& config, sim::Simulator& sim,
                     net::Network& network)
    : config_(config),
      sim_(sim),
      network_(network),
      buckets_(config.k),
      lookup_arena_(
          LookupArena::Params{config.k, config.alpha, 0, config.lookup_boost}) {
    config.validate();
}

KademliaNode* NodeArena::add_node(NodeId id, net::Address address) {
    KADSIM_ASSERT_MSG(address == nodes_.size(), "addresses must be dense");
    ids_.push_back(id);
    alive_.push_back(1);
    // Stream draw sits exactly where the old per-object constructor drew it:
    // after endpoint registration, before join().
    rngs_.push_back(sim_.split_rng());
    tables_.emplace_back(id, config_, buckets_);
    bootstraps_.emplace_back();
    task_gen_.push_back(0);
    counters_.emplace_back();
    lookups_.emplace_back();
    storage_.emplace_back();
    if (config_.refresh_policy == RefreshPolicy::kStaleOnly) {
        bucket_last_lookup_.resize(ids_.size() * static_cast<std::size_t>(config_.b),
                                   0);
    }
    nodes_.push_back(KademliaNode(*this, address));
    return &nodes_.back();
}

void NodeArena::arm_task(net::Address address, TaskKind kind, sim::SimTime at,
                         sim::SimTime period, std::uint32_t generation) {
    sim_.schedule_at(at, [this, address, kind, period, generation] {
        if (task_gen_[address] != generation) return;  // cancelled by crash
        run_task(address, kind);
        if (task_gen_[address] != generation) return;
        arm_task(address, kind, sim_.now() + period, period, generation);
    });
}

void NodeArena::run_task(net::Address address, TaskKind kind) {
    KademliaNode& node = nodes_[address];
    switch (kind) {
        case TaskKind::kRefresh:
            node.do_refresh();
            break;
        case TaskKind::kStorageGc:
            node.gc_storage();
            break;
        case TaskKind::kAdvertise:
            node.do_advertise();
            break;
    }
}

std::uint64_t NodeArena::memory_bytes() const noexcept {
    std::uint64_t bytes = 0;
    bytes += ids_.capacity() * sizeof(NodeId);
    bytes += alive_.capacity() * sizeof(std::uint8_t);
    bytes += rngs_.capacity() * sizeof(util::Rng);
    bytes += tables_.capacity() * sizeof(RoutingTable);
    bytes += bootstraps_.capacity() * sizeof(std::optional<Contact>);
    bytes += task_gen_.capacity() * sizeof(std::uint32_t);
    bytes += counters_.capacity() * sizeof(NodeCounters);
    bytes += bucket_last_lookup_.capacity() * sizeof(sim::SimTime);
    bytes += nodes_.size() * sizeof(KademliaNode);
    bytes += lookups_.capacity() * sizeof(NodeLookups);
    for (const auto& l : lookups_) {
        bytes += l.slots.capacity() * sizeof(KademliaNode::ActiveLookup);
        bytes += l.free_slots.capacity() * sizeof(std::uint32_t);
    }
    bytes += storage_.capacity() * sizeof(ObjectStore);
    for (const auto& s : storage_) bytes += s.memory_bytes();
    bytes += buckets_.memory_bytes();
    bytes += pending_.memory_bytes();
    bytes += lookup_arena_.memory_bytes();
    bytes += contact_scratch_.capacity() * sizeof(contact_scratch_[0]);
    for (const auto& buf : contact_scratch_) {
        bytes += buf->capacity() * sizeof(Contact);
    }
    bytes += traffic_.hops.memory_bytes() + traffic_.latency_ms.memory_bytes();
    return bytes;
}

}  // namespace kadsim::kad
