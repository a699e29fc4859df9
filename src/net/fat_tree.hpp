// k-ary fat-tree topology (Al-Fares et al., SIGCOMM'08), the network the
// paper evaluates on (k = 16, 3 tiers, 1024 end-hosts).
//
// Structure for even k:
//   - k pods; each pod has k/2 aggregation and k/2 ToR switches;
//   - each ToR connects k/2 hosts (one rack);
//   - (k/2)^2 core switches arranged in k/2 groups of k/2; core group i
//     connects to aggregation switch i of every pod.
//
// This class is pure structure + routing math; `Fabric` binds NodeIds to
// live objects and delivers packets.
#pragma once

#include <cstdint>
#include <vector>

#include "net/address.hpp"
#include "sim/affinity.hpp"

namespace netrs::net {

/// Coordinates of a switch. For core switches `pod` is unused (0) and `idx`
/// is the flat core index i*(k/2)+j where i is the core group.
struct NETRS_SHARED_IMMUTABLE SwitchCoord {
  Tier tier = Tier::kCore;  ///< Which tier the switch sits in.
  std::uint16_t pod = 0;    ///< Pod index (0 for core switches).
  std::uint16_t idx = 0;    ///< Index within the pod/tier (see above).

  /// Field-wise equality.
  friend bool operator==(const SwitchCoord&, const SwitchCoord&) = default;
};

/// Pure structure + routing math for the k-ary fat-tree (see the file
/// comment); Fabric binds the NodeIds to live objects.
class NETRS_SHARED_IMMUTABLE FatTree {
 public:
  /// Builds a k-ary fat-tree. Throws std::invalid_argument unless k is
  /// even and >= 2.
  explicit FatTree(int k);

  /// The arity k.
  [[nodiscard]] int k() const { return k_; }
  /// Number of pods (= k).
  [[nodiscard]] int pods() const { return k_; }
  /// ToR switches per pod (= k/2).
  [[nodiscard]] int tors_per_pod() const { return k_ / 2; }
  /// Hosts cabled to each ToR (= k/2).
  [[nodiscard]] int hosts_per_rack() const { return k_ / 2; }
  /// Total racks in the tree.
  [[nodiscard]] int racks() const { return pods() * tors_per_pod(); }

  /// Number of core switches, (k/2)^2.
  [[nodiscard]] std::uint32_t core_count() const {
    return static_cast<std::uint32_t>((k_ / 2) * (k_ / 2));
  }
  /// Total switches across all three tiers.
  [[nodiscard]] std::uint32_t switch_count() const {
    return core_count() + static_cast<std::uint32_t>(k_ * (k_ / 2) * 2);
  }
  /// Total end-hosts, k^3/4.
  [[nodiscard]] std::uint32_t host_count() const {
    return static_cast<std::uint32_t>(k_ * (k_ / 2) * (k_ / 2));
  }
  /// Total node-id space used by the tree (switches first, then hosts).
  [[nodiscard]] std::uint32_t node_count() const {
    return switch_count() + host_count();
  }

  // --- NodeId layout: [cores][aggs][tors][hosts] ---------------------------
  /// NodeId of core switch j in core group `group`.
  [[nodiscard]] NodeId core_node(int group, int j) const;
  /// NodeId of aggregation switch `a` in pod `pod`.
  [[nodiscard]] NodeId agg_node(int pod, int a) const;
  /// NodeId of ToR switch `t` in pod `pod`.
  [[nodiscard]] NodeId tor_node(int pod, int t) const;
  /// NodeId of host `h`.
  [[nodiscard]] NodeId host_node(HostId h) const;

  /// True when `n` is a switch NodeId.
  [[nodiscard]] bool is_switch(NodeId n) const { return n < switch_count(); }
  /// True when `n` is a host NodeId.
  [[nodiscard]] bool is_host(NodeId n) const {
    return n >= switch_count() && n < node_count();
  }
  /// HostId of a host NodeId. Precondition: is_host(n).
  [[nodiscard]] HostId host_of(NodeId n) const;

  /// Tier/pod/index coordinates of a switch NodeId.
  [[nodiscard]] SwitchCoord coord(NodeId sw) const;
  /// Tier of a switch NodeId.
  [[nodiscard]] Tier tier(NodeId sw) const { return coord(sw).tier; }

  // --- Host addressing ------------------------------------------------------
  /// HostId at (pod, rack, slot).
  [[nodiscard]] HostId host_id(int pod, int rack, int slot) const;
  /// (pod, rack, slot) of a host.
  [[nodiscard]] HostLocation location(HostId h) const;
  /// The ToR switch host `h` is cabled to.
  [[nodiscard]] NodeId host_tor(HostId h) const;
  /// The (pod, rack) source marker host `h` stamps on responses.
  [[nodiscard]] SourceMarker marker(HostId h) const;
  /// Rack index in [0, racks()) for grouping.
  [[nodiscard]] int rack_index(HostId h) const;

  // --- Adjacency ------------------------------------------------------------
  /// True when `a` and `b` are directly cabled in the tree.
  [[nodiscard]] bool adjacent(NodeId a, NodeId b) const;
  /// All nodes directly cabled to `n`, in ascending NodeId order.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId n) const;

  // --- Routing ---------------------------------------------------------------
  /// Next hop from switch `cur` toward host `dst` using up/down routing;
  /// `ecmp_hash` breaks ties among equal-cost uplinks. Returns the host's
  /// NodeId when `cur` is the destination ToR.
  [[nodiscard]] NodeId next_hop_toward_host(NodeId cur, HostId dst,
                                            std::uint64_t ecmp_hash) const;

  /// Next hop from switch `cur` toward switch `target` without descending
  /// below the target's tier before reaching it (the paper's Eq. (4)
  /// restriction). Precondition: `target` is reachable this way, which holds
  /// for every (traffic-group, RSNode) pair the R matrix permits plus the
  /// response paths back through an RSNode.
  [[nodiscard]] NodeId next_hop_toward_switch(NodeId cur, NodeId target,
                                              std::uint64_t ecmp_hash) const;

  /// Number of switch forwarding operations on the default path src -> dst:
  /// 1 within a rack, 3 within a pod, 5 across pods.
  [[nodiscard]] int default_forwards(HostId src, HostId dst) const;

  /// Paper traffic classification (§III-B): tier-2 = same rack, tier-1 =
  /// same pod different rack, tier-0 = different pods. Equals the tier ID of
  /// the highest switch on the default path.
  [[nodiscard]] int traffic_tier(HostId src, HostId dst) const;

  /// All switch NodeIds, core tier first (useful for placement iteration).
  [[nodiscard]] std::vector<NodeId> all_switches() const;

 private:
  int k_;
  int half_;
};

}  // namespace netrs::net
