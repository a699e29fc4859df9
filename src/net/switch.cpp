#include "net/switch.hpp"

#include <cassert>
#include <utility>

#include "obs/observer.hpp"

namespace netrs::net {

Switch::Switch(Fabric& fabric, NodeId self)
    : fabric_(fabric), self_(self), sim_(fabric.simulator_for(self)) {
  assert(fabric.topology().is_switch(self));
}

void Switch::add_ingress_stage(IngressStage* stage) {
  assert(stage != nullptr);
  ingress_.push_back(stage);
}

void Switch::add_egress_stage(EgressStage* stage) {
  assert(stage != nullptr);
  egress_.push_back(stage);
}

void Switch::receive(Packet pkt, NodeId from) {
  shard_affinity().check("receive");
  run_pipeline(pkt, from);
}

void Switch::run_pipeline(Packet& pkt, NodeId from) {
  for (IngressStage* stage : ingress_) {
    Disposition d = stage->on_ingress(pkt, from, *this);
    if (std::holds_alternative<Consumed>(d)) {
      if (obs::Observer* o = sim_.observer()) {
        o->instant("sw.consume", "sw", static_cast<std::int32_t>(self_),
                   sim_.now(), pkt.meta.request_id);
      }
      return;
    }
    if (auto* steer = std::get_if<Steer>(&d)) {
      if (obs::Observer* o = sim_.observer()) {
        o->instant("sw.steer", "sw", static_cast<std::int32_t>(self_),
                   sim_.now(), pkt.meta.request_id, "target",
                   static_cast<std::uint64_t>(steer->target_switch));
      }
      forward_toward_switch(std::move(pkt), steer->target_switch);
      return;
    }
  }
  forward_toward_host(std::move(pkt));
}

void Switch::forward_toward_host(Packet&& pkt) {
  if constexpr (sim::kAuditEnabled) {
    sim_.auditor().check(
        pkt.dst != kInvalidHost, "invalid-forward", [&] {
          return "switch " + std::to_string(self_) +
                 " forwarding packet src=" + std::to_string(pkt.src) +
                 " with no destination host";
        });
  } else {
    assert(pkt.dst != kInvalidHost);
  }
  const NodeId next = fabric_.topology().next_hop_toward_host(
      self_, pkt.dst, Fabric::flow_hash(pkt));
  emit(std::move(pkt), next);
}

void Switch::forward_toward_switch(Packet&& pkt, NodeId target) {
  if constexpr (sim::kAuditEnabled) {
    sim_.auditor().check(
        target != self_, "invalid-forward", [&] {
          return "switch " + std::to_string(self_) +
                 " steered packet src=" + std::to_string(pkt.src) +
                 " dst=" + std::to_string(pkt.dst) +
                 " to itself (pipeline bug)";
        });
  } else {
    assert(target != self_ && "steering to self is a pipeline bug");
  }
  const NodeId next = fabric_.topology().next_hop_toward_switch(
      self_, target, Fabric::flow_hash(pkt));
  emit(std::move(pkt), next);
}

void Switch::emit(Packet&& pkt, NodeId next) {
  for (EgressStage* stage : egress_) stage->on_egress(pkt, next, *this);
  ++pkt.meta.forwards;  // the paper's hop metric, per packet
  fabric_.send(self_, next, std::move(pkt));
}

}  // namespace netrs::net
