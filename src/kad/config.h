// Kademlia protocol parameters (paper §4.1 and §5.3).
#ifndef KADSIM_KAD_CONFIG_H
#define KADSIM_KAD_CONFIG_H

#include <stdexcept>

#include "kad/node_id.h"
#include "sim/time.h"

namespace kadsim::kad {

/// What a node does when a new contact arrives for a full bucket.
enum class BucketPolicy {
    /// Discard the new contact (the behaviour the paper's dynamics exhibit:
    /// slots only free up when entries turn stale; "freed up entries in the
    /// k-buckets" drive the churn-phase connectivity gains, §5.5.1).
    kDropNew,
    /// Maymounkov–Mazières original: ping the least-recently-seen entry and
    /// evict it only if it fails; the candidate is kept in a one-slot
    /// replacement cache. Provided for the `ablation_replacement` bench.
    kPingEvict,
};

/// Which buckets an hourly refresh touches. In both policies only buckets
/// that hold at least one contact are considered: ranges without any nodes
/// would otherwise trigger ~150 self-neighbourhood lookups per node-hour and
/// over-mix the overlay (see KademliaNode::do_refresh).
enum class RefreshPolicy {
    /// The paper's simulator: every (in-use) bucket gets a random-id lookup
    /// each refresh cycle ("a node randomly generates an id from the id range
    /// of each k-bucket and performs lookup procedures for these ids", §5.3).
    kAllBuckets,
    /// Maymounkov–Mazières original: only buckets with no lookup activity in
    /// the past refresh interval. Provided for the `ablation_refresh` bench.
    kStaleOnly,
};

struct KademliaConfig {
    int b = 160;   ///< id bit-length (paper: 160 and 80)
    int k = 20;    ///< bucket size / lookup width (paper: 5, 10, 20, 30)
    int alpha = 3; ///< lookup parallelism (paper: 3 and 5)
    int s = 5;     ///< staleness limit: consecutive failures before removal

    sim::SimTime rpc_timeout = 2 * sim::kSecond;
    sim::SimTime refresh_interval = 60 * sim::kMinute;
    /// Refresh lookups for one cycle are spread uniformly over this window.
    sim::SimTime refresh_spread = 1 * sim::kMinute;
    /// Stored data objects expire after this long (republishing is outside
    /// the paper's scope).
    sim::SimTime storage_expiry = 60 * sim::kMinute;

    BucketPolicy bucket_policy = BucketPolicy::kDropNew;
    RefreshPolicy refresh_policy = RefreshPolicy::kAllBuckets;

    /// Extension of the paper's future work (§6: "introduce a parameter to
    /// control its connectivity independently of the bucket size"): γ
    /// strict-k self-advertisement lookups per refresh interval, spread
    /// evenly (one every refresh_interval/γ, starting that long after the
    /// join). Each re-announces the node to its closest neighbours,
    /// repairing the in-link erosion that pins the *minimum* connectivity
    /// under churn — without touching k. 0 = paper behaviour.
    int advertise_per_refresh = 0;

    /// Salah-style lookup improvement (this repo's reading of Salah &
    /// Strufe's adaptive-parallelism scheme, PAPERS.md): each query failure
    /// observed during a lookup widens that lookup's in-flight window by
    /// one, up to α + lookup_boost — failures are evidence of a stale
    /// neighbourhood, and a wider wave restores progress without raising α
    /// globally. The no-progress termination rule keeps using the base α.
    /// 0 = paper behaviour (the default; the fault-equivalence goldens pin
    /// it).
    int lookup_boost = 0;

    /// Throws std::invalid_argument when parameters are out of range.
    void validate() const {
        if (b <= 0 || b > kMaxBits) throw std::invalid_argument("b must be in (0,160]");
        // Upper bound from the arena bucket layout (8-bit fill counts); the
        // paper never goes past k = 30.
        if (k <= 0 || k > 255) throw std::invalid_argument("k must be in (0,255]");
        if (alpha <= 0) throw std::invalid_argument("alpha must be positive");
        if (s <= 0) throw std::invalid_argument("s must be positive");
        if (rpc_timeout <= 0) throw std::invalid_argument("rpc_timeout must be positive");
        if (refresh_interval <= 0) {
            throw std::invalid_argument("refresh_interval must be positive");
        }
        // Refresh delays are drawn below refresh_spread, and the storage GC
        // re-arms every storage_expiry / 2, which must not be 0.
        if (refresh_spread < 1) {
            throw std::invalid_argument("refresh_spread must be at least 1 ms");
        }
        if (storage_expiry < 2) {
            throw std::invalid_argument("storage_expiry must be at least 2 ms");
        }
        if (lookup_boost < 0 || lookup_boost > 255) {
            throw std::invalid_argument("lookup_boost must be in [0,255]");
        }
    }
};

}  // namespace kadsim::kad

#endif  // KADSIM_KAD_CONFIG_H
