// Traffic groups: the granularity at which the Replica Selection Plan maps
// requests to RSNodes (§III-A).
//
// Supported granularities (request-level grouping is explicitly rejected by
// the paper):
//   - host-level: every end-host is its own group;
//   - rack-level: all hosts under one ToR form a group (the default);
//   - sub-rack: n consecutive hosts of a rack per group (the paper's
//     "intervening-level" groups).
//
// Every group is attached to exactly one ToR, so a group's tier ID t(g) is
// the ToR tier (2), matching §III-B.
#pragma once

#include <cstdint>

#include "net/fat_tree.hpp"
#include "sim/affinity.hpp"

namespace netrs::core {

/// How hosts are partitioned into traffic groups (see the file comment).
enum class GroupGranularity {
  kHost,     ///< One group per end-host.
  kRack,     ///< One group per ToR (the default).
  kSubRack,  ///< n consecutive hosts of a rack per group.
};

/// Dense traffic-group index in [0, group_count()).
using GroupId = std::uint32_t;

/// Pure index math mapping hosts to traffic groups and groups to their
/// rack/ToR (no per-host storage).
class NETRS_SHARED_IMMUTABLE TrafficGroups {
 public:
  /// `hosts_per_group` is only used for kSubRack and must divide the rack
  /// size.
  TrafficGroups(const net::FatTree& topo, GroupGranularity granularity,
                int hosts_per_group = 0);

  /// Group of an end-host.
  [[nodiscard]] GroupId group_of_host(net::HostId h) const;
  /// Total number of groups.
  [[nodiscard]] std::uint32_t group_count() const { return count_; }

  /// ToR switch the group's hosts connect to.
  [[nodiscard]] net::NodeId tor_of_group(GroupId g) const;
  /// Pod the group sits in.
  [[nodiscard]] int pod_of_group(GroupId g) const;
  /// Rack index (see FatTree::rack_index) of the group.
  [[nodiscard]] int rack_of_group(GroupId g) const;
  /// Groups per rack; rack r's groups are [r * groups_per_rack(),
  /// (r + 1) * groups_per_rack()).
  [[nodiscard]] int groups_per_rack() const;

 private:
  const net::FatTree& topo_;
  int hosts_per_group_;
  std::uint32_t count_;
};

}  // namespace netrs::core
