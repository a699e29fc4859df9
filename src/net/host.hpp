// End-host base class: a node cabled to its rack's ToR switch.
#pragma once

#include <cassert>
#include <utility>

#include "net/fabric.hpp"
#include "net/node.hpp"
#include "sim/affinity.hpp"

namespace netrs::net {

/// End-host base class: registers itself with the fabric and exposes the
/// access-link send path to derived application nodes (KV servers,
/// clients).
class NETRS_SHARD_LOCAL Host : public Node {
 public:
  /// Attaches the host to `fabric` at host `id`'s topology position.
  Host(Fabric& fabric, HostId id)
      : fabric_(fabric),
        host_id_(id),
        node_id_(fabric.topology().host_node(id)),
        tor_(fabric.topology().host_tor(id)),
        sim_(fabric.simulator_for(node_id_)) {
    fabric.attach(node_id_, this);
  }

  /// This host's index in [0, host_count).
  [[nodiscard]] HostId host_id() const { return host_id_; }
  /// This host's fabric node id.
  [[nodiscard]] NodeId node_id() const { return node_id_; }

 protected:
  /// Stamps the source address and pushes the packet onto the access link.
  void send(Packet&& pkt) {
    // Shard affinity: only this host's owning worker (or the coordinator
    // between windows) may push onto its access link.
    shard_affinity().check("send");
    pkt.src = host_id_;
    assert(pkt.dst != kInvalidHost);
    fabric_.send(node_id_, tor_, std::move(pkt));
  }

  /// The fabric this host is attached to.
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  /// The simulation clock/scheduler of this host's shard (the only
  /// simulator in serial mode).
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  Fabric& fabric_;
  HostId host_id_;
  NodeId node_id_;
  NodeId tor_;
  sim::Simulator& sim_;
};

}  // namespace netrs::net
