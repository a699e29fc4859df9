// NetRS monitor (§IV-D): match-action counters in the egress pipeline of a
// ToR switch.
//
// It counts responses *leaving the network* (next hop is a host port),
// labelled Mmon — NetRS rules relabel every NetRS response to Mmon at its
// RSNode, and DRS responses are born Mmon, so exactly the KV responses of
// this rack's traffic groups are counted. The source marker SM (set by the
// server-side ToR) is compared against this ToR's own marker to classify
// the response's traffic tier: same rack = tier 2, same pod = tier 1,
// otherwise tier 0. The counted hosts are this rack's, and a rack's traffic
// groups are contiguous, so the counters are a dense groups_per_rack x 3
// array, sized once: counting and resetting allocate nothing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/switch.hpp"
#include "netrs/packet_format.hpp"
#include "netrs/traffic_group.hpp"
#include "sim/affinity.hpp"

namespace netrs::core {

/// Egress-pipeline response counters on one ToR (see the file comment).
class NETRS_SHARD_LOCAL Monitor final : public net::Switch::EgressStage {
 public:
  /// `tor` is the switch this monitor is installed on.
  Monitor(const net::FatTree& topo, const TrafficGroups& groups,
          net::NodeId tor);

  /// Counts Mmon responses leaving toward a host port.
  void on_egress(const net::Packet& pkt, net::NodeId next_hop,
                 net::Switch& sw) override;

  /// One group's response counts, indexed by tier (index 0 =
  /// tier-0/inter-pod ... index 2 = tier-2/intra-rack).
  using TierCounts = std::array<std::uint64_t, 3>;

  /// First traffic group of this ToR's rack; row i of counts() is group
  /// first_group() + i.
  [[nodiscard]] GroupId first_group() const { return first_group_; }
  /// Counts since the last reset(), one row per group of the rack (the
  /// periodic report to the NetRS controller).
  [[nodiscard]] std::span<const TierCounts> counts() const { return counts_; }
  /// Zeroes every count (the controller has read them).
  void reset();

 private:
  const net::FatTree& topo_;
  const TrafficGroups& groups_;
  net::SourceMarker local_;
  GroupId first_group_ = 0;
  std::vector<TierCounts> counts_;
};

}  // namespace netrs::core
