// Programmable switch with a staged ingress/egress pipeline.
//
// The base switch implements default L3 up/down forwarding toward a
// packet's destination host. NetRS installs match-action stages:
//   - ingress stages may rewrite the packet, consume it (hand it to the
//     attached accelerator), or redirect it toward another switch (the
//     RSNode steering of §IV-B);
//   - egress stages observe (packet, next hop) pairs; the NetRS monitor of
//     §IV-D is an egress stage on ToR switches.
#pragma once

#include <variant>
#include <vector>

#include "net/fabric.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/affinity.hpp"

namespace netrs::net {

/// Programmable switch: default up/down L3 forwarding plus installable
/// ingress/egress match-action stages (see the file comment).
class NETRS_SHARD_LOCAL Switch : public Node {
 public:
  /// Pipeline continues to the next stage / default forwarding.
  struct Continue {};
  /// Stage took ownership of the packet (e.g. sent it to the accelerator).
  struct Consumed {};
  /// Forward toward another switch instead of the packet's destination.
  struct Steer {
    NodeId target_switch;  ///< The switch to steer toward.
  };
  /// What an ingress stage decided to do with a packet.
  using Disposition = std::variant<Continue, Consumed, Steer>;

  /// A match-action stage run on every arriving packet.
  class IngressStage {
   public:
    virtual ~IngressStage() = default;  ///< Polymorphic base.
    /// Inspects (and may rewrite) `pkt`; returns its disposition.
    virtual Disposition on_ingress(Packet& pkt, NodeId from, Switch& sw) = 0;
  };

  /// An observation stage run on every departing packet.
  class EgressStage {
   public:
    virtual ~EgressStage() = default;  ///< Polymorphic base.
    /// Observes `pkt` about to leave toward `next_hop`.
    virtual void on_egress(const Packet& pkt, NodeId next_hop, Switch& sw) = 0;
  };

  /// Attaches the switch to `fabric` as node `self`.
  Switch(Fabric& fabric, NodeId self);

  /// Stages run in installation order. Non-owning: the NetRS operator owns
  /// its rules/monitor and outlives the switch's traffic.
  void add_ingress_stage(IngressStage* stage);
  /// Installs an egress observation stage (same ownership rules).
  void add_egress_stage(EgressStage* stage);

  /// Runs the ingress pipeline on a delivered packet.
  void receive(Packet pkt, NodeId from) override;

  /// Sends `pkt` one hop toward its destination host (or delivers it if
  /// this is the destination ToR), running egress stages. Public so stages
  /// can resume default forwarding after a rewrite.
  void forward_toward_host(Packet&& pkt);

  /// Sends `pkt` one hop toward switch `target`, running egress stages.
  void forward_toward_switch(Packet&& pkt, NodeId target);

  /// This switch's NodeId.
  [[nodiscard]] NodeId id() const { return self_; }
  /// This switch's tier in the fat-tree.
  [[nodiscard]] Tier tier() const { return fabric_.topology().tier(self_); }
  /// The fabric this switch forwards on.
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  /// The simulation clock/scheduler of this switch's shard.
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  void run_pipeline(Packet& pkt, NodeId from);
  void emit(Packet&& pkt, NodeId next);

  Fabric& fabric_;
  NodeId self_;
  sim::Simulator& sim_;
  std::vector<IngressStage*> ingress_;
  std::vector<EgressStage*> egress_;
};

}  // namespace netrs::net
