// NetRS monitor (§IV-D): match-action counters in the egress pipeline of a
// ToR switch.
//
// It counts responses *leaving the network* (next hop is a host port),
// labelled Mmon — NetRS rules relabel every NetRS response to Mmon at its
// RSNode, and DRS responses are born Mmon, so exactly the KV responses of
// this rack's traffic groups are counted. The source marker SM (set by the
// server-side ToR) is compared against this ToR's own marker to classify
// the response's traffic tier: same rack = tier 2, same pod = tier 1,
// otherwise tier 0.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

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

  /// Per-group response counts since the last snapshot, indexed by tier
  /// (index 0 = tier-0/inter-pod ... index 2 = tier-2/intra-rack).
  using Counts = std::unordered_map<GroupId, std::array<std::uint64_t, 3>>;

  /// Returns accumulated counts and clears them (the periodic report to the
  /// NetRS controller).
  [[nodiscard]] Counts snapshot_and_reset();

 private:
  const net::FatTree& topo_;
  const TrafficGroups& groups_;
  net::SourceMarker local_;
  Counts counts_;
};

}  // namespace netrs::core
