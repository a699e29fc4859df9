// NetRS rules (§IV-B): the Fig. 3 ingress pipeline, installed as a stage on
// every programmable switch of a NetRS deployment.
//
// Per packet:
//   1. Match the magic field. Non-NetRS and Mmon packets fall through to
//      regular forwarding (Mmon ones are counted by ToR egress monitors).
//   2. ToR extras, applied when the packet enters the network from a host:
//        - requests: source IP -> traffic group -> RSNode ID (the RSP); an
//          illegal RID means Degraded Replica Selection: the packet is
//          relabelled f(Mmon) and routed to the client's backup replica;
//        - responses: stamp the source marker SM.
//   3. Match the RSNode ID. If it differs from this operator's, steer the
//      packet toward the RSNode's switch. If it matches: a request is
//      handed to the network accelerator (consumed here, resumed when the
//      selector sends back the rewrite); a response is cloned to the
//      accelerator and the original continues relabelled Mmon — cloning
//      keeps selector processing off the response's critical path.
#pragma once

#include <memory>
#include <vector>

#include "net/switch.hpp"
#include "netrs/packet_format.hpp"
#include "netrs/traffic_group.hpp"
#include "sim/affinity.hpp"

namespace netrs::core {

/// Where each RSNode id lives (operator id -> switch NodeId): a flat table
/// indexed by the id, filled once at setup.
class NETRS_SHARED_IMMUTABLE RsNodeDirectory {
 public:
  /// The entry of `rid`, growing the table to hold it (absent until set).
  net::NodeId& operator[](RsNodeId rid) {
    if (rid >= switch_of_.size()) {
      switch_of_.resize(rid + 1u, net::kInvalidNode);
    }
    return switch_of_[rid];
  }
  /// The switch of `rid`, or net::kInvalidNode for an id never set
  /// (kRidUnset and kRidIllegal included). Never grows the table.
  [[nodiscard]] net::NodeId find(RsNodeId rid) const {
    return rid < switch_of_.size() ? switch_of_[rid] : net::kInvalidNode;
  }

 private:
  std::vector<net::NodeId> switch_of_;  // indexed by RsNodeId
};

/// The ToR's traffic-group -> RSNode table (one RSP slice). kRidIllegal
/// entries enable DRS for that group.
using GroupRidTable = std::vector<RsNodeId>;

/// The Fig. 3 ingress pipeline as a switch stage (see the file comment).
class NETRS_SHARD_LOCAL NetRSRules final : public net::Switch::IngressStage {
 public:
  /// `accelerator_node` is the co-located accelerator to hand packets to.
  /// `directory` is shared across all operators.
  NetRSRules(RsNodeId local_id, net::NodeId accelerator_node,
             std::shared_ptr<const RsNodeDirectory> directory,
             const net::FatTree& topo);

  /// Installs the ToR-only tables; switches that are not ToRs never call
  /// the group logic. `groups` must outlive the rules.
  void install_tor_tables(const TrafficGroups* groups,
                          std::shared_ptr<const GroupRidTable> rid_table);

  /// Swaps in a new group->RSNode mapping (RSP deployment).
  void update_rid_table(std::shared_ptr<const GroupRidTable> rid_table);

  /// Runs the pipeline of the file comment on one arriving packet.
  net::Switch::Disposition on_ingress(net::Packet& pkt, net::NodeId from,
                                      net::Switch& sw) override;

 private:
  net::Switch::Disposition handle_request(net::Packet& pkt, net::NodeId from,
                                          net::Switch& sw);
  net::Switch::Disposition handle_response(net::Packet& pkt, net::NodeId from,
                                           net::Switch& sw);

  RsNodeId local_id_;
  net::NodeId accel_;
  std::shared_ptr<const RsNodeDirectory> directory_;
  const net::FatTree& topo_;

  // ToR-only state.
  const TrafficGroups* groups_ = nullptr;
  std::shared_ptr<const GroupRidTable> rid_table_;
};

}  // namespace netrs::core
