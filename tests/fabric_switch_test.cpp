#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "net/host.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace netrs::net {
namespace {

// A host that records everything it receives.
class SinkHost final : public Host {
 public:
  using Host::Host;
  void receive(Packet pkt, NodeId from) override {
    received.push_back(std::move(pkt));
    froms.push_back(from);
    received_at.push_back(simulator().now());
  }
  void transmit(Packet pkt) { send(std::move(pkt)); }

  std::vector<Packet> received;
  std::vector<NodeId> froms;
  std::vector<sim::Time> received_at;
};

struct Rig {
  sim::ShardGroup group{1};
  FatTree topo{4};
  Fabric fabric{group, topo, FabricConfig{}};
  std::vector<std::unique_ptr<Switch>> switches;
  std::vector<std::unique_ptr<SinkHost>> hosts;

  Rig() {
    for (NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    for (HostId h = 0; h < topo.host_count(); ++h) {
      hosts.push_back(std::make_unique<SinkHost>(fabric, h));
    }
  }

  Packet make_packet(HostId src, HostId dst) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.src_port = 9000;
    p.dst_port = 7000;
    p.payload.resize(32);
    return p;
  }
};

TEST(FabricTest, DeliversAcrossRackWithCorrectLatency) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 0, 1);  // same rack: 2 host links
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
  // host->ToR (30us) + ToR->host (30us).
  EXPECT_EQ(rig.hosts[dst]->received_at[0], sim::micros(60));
  EXPECT_EQ(rig.hosts[dst]->received[0].meta.forwards, 1u);
}

TEST(FabricTest, DeliversAcrossPodsWithFiveForwards) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(3, 1, 1);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
  EXPECT_EQ(rig.hosts[dst]->received[0].meta.forwards, 5u);
  // 2 host links + 4 switch links, all 30us.
  EXPECT_EQ(rig.hosts[dst]->received_at[0], sim::micros(180));
}

TEST(FabricTest, AllPairsDeliver) {
  Rig rig;
  int expected = 0;
  for (HostId src = 0; src < rig.topo.host_count(); src += 3) {
    for (HostId dst = 0; dst < rig.topo.host_count(); dst += 5) {
      if (src == dst) continue;
      rig.hosts[src]->transmit(rig.make_packet(src, dst));
      ++expected;
    }
  }
  rig.fabric.simulator().run();
  int delivered = 0;
  for (const auto& h : rig.hosts) {
    delivered += static_cast<int>(h->received.size());
  }
  EXPECT_EQ(delivered, expected);
}

TEST(FabricTest, PacketsArriveFromTorPort) {
  Rig rig;
  const HostId src = rig.topo.host_id(1, 0, 0);
  const HostId dst = rig.topo.host_id(1, 1, 1);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  ASSERT_EQ(rig.hosts[dst]->froms.size(), 1u);
  EXPECT_EQ(rig.hosts[dst]->froms[0], rig.topo.host_tor(dst));
}

TEST(FabricTest, WireSizeAccountsPhantomBytes) {
  Packet p;
  p.payload.resize(24);
  EXPECT_EQ(p.wire_size(), 46u + 24u);
  p.phantom_payload = 1024;
  EXPECT_EQ(p.wire_size(), 46u + 24u + 1024u);
}

TEST(FabricTest, FlowHashStableAndPortSensitive) {
  Packet a;
  a.src = 1;
  a.dst = 2;
  a.src_port = 10;
  a.dst_port = 20;
  Packet b = a;
  EXPECT_EQ(Fabric::flow_hash(a), Fabric::flow_hash(b));
  b.src_port = 11;
  EXPECT_NE(Fabric::flow_hash(a), Fabric::flow_hash(b));
}

// Ingress stage behaviors: rewrite + steer + consume.
class CountingStage final : public Switch::IngressStage {
 public:
  Switch::Disposition on_ingress(Packet& pkt, NodeId from,
                                 Switch& sw) override {
    (void)pkt;
    (void)from;
    (void)sw;
    ++seen;
    return Switch::Continue{};
  }
  int seen = 0;
};

TEST(SwitchTest, IngressStagesRunPerPacket) {
  Rig rig;
  CountingStage stage;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 1, 0);
  // Install on the source ToR.
  const NodeId tor = rig.topo.host_tor(src);
  rig.switches[tor]->add_ingress_stage(&stage);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  EXPECT_EQ(stage.seen, 2);
  EXPECT_EQ(rig.hosts[dst]->received.size(), 2u);
}

// Steers packets toward `target` until they visit it, then marks them done
// (payload byte 0) — the same "relabel at the RSNode" idea NetRS rules use
// to avoid steering loops on the way back down.
class SteeringStage final : public Switch::IngressStage {
 public:
  explicit SteeringStage(NodeId target) : target_(target) {}
  Switch::Disposition on_ingress(Packet& pkt, NodeId from,
                                 Switch& sw) override {
    (void)from;
    if (pkt.payload[0] == std::byte{1}) return Switch::Continue{};
    if (sw.id() == target_) {
      pkt.payload[0] = std::byte{1};
      return Switch::Continue{};
    }
    return Switch::Steer{target_};
  }

 private:
  NodeId target_;
};

TEST(SwitchTest, SteerDetoursThroughTargetSwitch) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 0, 1);  // same rack
  const NodeId core = rig.topo.core_node(0, 0);
  // Steer everything through a core switch from every switch it touches.
  std::vector<std::unique_ptr<SteeringStage>> stages;
  for (auto& sw : rig.switches) {
    stages.push_back(std::make_unique<SteeringStage>(core));
    sw->add_ingress_stage(stages.back().get());
  }
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
  // Same-rack default is 1 forward; via the core it is 5 (the paper's
  // extra-hop example: 4 extra forwards for tier-2 traffic via core).
  EXPECT_EQ(rig.hosts[dst]->received[0].meta.forwards, 5u);
}

class ConsumingStage final : public Switch::IngressStage {
 public:
  Switch::Disposition on_ingress(Packet& pkt, NodeId from,
                                 Switch& sw) override {
    (void)pkt;
    (void)from;
    (void)sw;
    ++eaten;
    return Switch::Consumed{};
  }
  int eaten = 0;
};

TEST(SwitchTest, ConsumedPacketsStop) {
  Rig rig;
  ConsumingStage stage;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(2, 0, 0);
  rig.switches[rig.topo.host_tor(src)]->add_ingress_stage(&stage);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  EXPECT_EQ(stage.eaten, 1);
  EXPECT_TRUE(rig.hosts[dst]->received.empty());
}

class RecordingEgress final : public Switch::EgressStage {
 public:
  void on_egress(const Packet& pkt, NodeId next_hop, Switch& sw) override {
    (void)pkt;
    (void)sw;
    next_hops.push_back(next_hop);
  }
  std::vector<NodeId> next_hops;
};

TEST(SwitchTest, EgressStagesObserveNextHop) {
  Rig rig;
  RecordingEgress egress;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 0, 1);
  const NodeId tor = rig.topo.host_tor(src);
  rig.switches[tor]->add_egress_stage(&egress);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  ASSERT_EQ(egress.next_hops.size(), 1u);
  EXPECT_EQ(egress.next_hops[0], rig.topo.host_node(dst));
}

TEST(SwitchTest, ForwardCounterAdvances) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 0, 1);
  const NodeId tor = rig.topo.host_tor(src);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  EXPECT_EQ(rig.switches[tor]->forwards(), 2u);
}

}  // namespace
}  // namespace netrs::net
