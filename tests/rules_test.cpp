// Unit tests for the Fig. 3 ingress pipeline (NetRSRules) with a synthetic
// directory — complementing the end-to-end pipeline tests with precise
// disposition checks.
#include "netrs/rules.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <variant>

#include "net/switch.hpp"

namespace netrs::core {
namespace {

class RulesRig : public ::testing::Test {
 protected:
  RulesRig()
      : topo(4),
        fabric(group, topo, net::FabricConfig{}),
        groups(topo, GroupGranularity::kRack) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    directory = std::make_shared<RsNodeDirectory>();
    (*directory)[1] = topo.tor_node(0, 0);
    (*directory)[2] = topo.agg_node(0, 1);
    (*directory)[3] = topo.core_node(0, 0);
    // Stand-in accelerators so "forward to accelerator" has a real target.
    tor_accel_ = fabric.attach_auxiliary(&accel_sink_, topo.tor_node(0, 0));
    agg_accel_ = fabric.attach_auxiliary(&accel_sink_, topo.agg_node(0, 1));
  }

  struct SinkNode final : net::Node {
    void receive(net::Packet, net::NodeId) override { ++packets; }
    int packets = 0;
  };

  /// Builds rules for the ToR of pod 0 / rack 0, local RSNode id 1, with a
  /// uniform group table pointing at `rid`.
  std::unique_ptr<NetRSRules> tor_rules(RsNodeId rid) {
    auto rules = std::make_unique<NetRSRules>(1, tor_accel_, directory, topo);
    auto table = std::make_shared<GroupRidTable>(groups.group_count(), rid);
    rules->install_tor_tables(&groups, table);
    return rules;
  }

  net::Packet request(net::HostId src, net::HostId dst,
                      RsNodeId rid = kRidUnset) {
    RequestHeader rh;
    rh.mf = kMagicRequest;
    rh.rid = rid;
    net::Packet p;
    p.src = src;
    p.dst = dst;
    p.payload = encode_request(rh, {});
    return p;
  }

  net::Packet response(net::HostId src, net::HostId dst, RsNodeId rid) {
    ResponseHeader rh;
    rh.mf = kMagicResponse;
    rh.rid = rid;
    net::Packet p;
    p.src = src;
    p.dst = dst;
    p.payload = encode_response(rh, {});
    return p;
  }

  net::Switch& tor() { return *switches[topo.tor_node(0, 0)]; }

  SinkNode accel_sink_;
  net::NodeId tor_accel_ = net::kInvalidNode;
  net::NodeId agg_accel_ = net::kInvalidNode;

  sim::ShardGroup group{1};
  net::FatTree topo;
  net::Fabric fabric;
  TrafficGroups groups;
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::shared_ptr<RsNodeDirectory> directory;
};

TEST(RsNodeDirectoryTest, IdsNeverSetReadAsAbsent) {
  RsNodeDirectory dir;
  EXPECT_EQ(dir.find(1), net::kInvalidNode);  // empty table
  dir[3] = 7;
  dir[5] = 0;
  EXPECT_EQ(dir.find(3), 7u);
  EXPECT_EQ(dir.find(5), 0u);
  EXPECT_EQ(dir.find(4), net::kInvalidNode);  // a hole below the last id
  EXPECT_EQ(dir.find(6), net::kInvalidNode);  // past the table
  EXPECT_EQ(dir.find(kRidUnset), net::kInvalidNode);
  EXPECT_EQ(dir.find(kRidIllegal), net::kInvalidNode);
  dir[3] = 9;  // reassignment overwrites
  EXPECT_EQ(dir.find(3), 9u);
}

TEST_F(RulesRig, TorAssignsRidFromGroupTable) {
  auto rules = tor_rules(/*rid=*/2);
  const net::HostId client = topo.host_id(0, 0, 0);
  net::Packet pkt = request(client, topo.host_id(1, 0, 0));
  const auto d = rules->on_ingress(pkt, topo.host_node(client), tor());
  // RSNode 2 is the agg: the packet is steered toward it.
  ASSERT_TRUE(std::holds_alternative<net::Switch::Steer>(d));
  EXPECT_EQ(std::get<net::Switch::Steer>(d).target_switch,
            topo.agg_node(0, 1));
  EXPECT_EQ(*peek_rid(pkt.payload), 2);
  EXPECT_EQ(rules->steered(), 1u);
}

TEST_F(RulesRig, IllegalRidTriggersDrsRelabel) {
  auto rules = tor_rules(kRidIllegal);
  const net::HostId client = topo.host_id(0, 0, 0);
  net::Packet pkt = request(client, topo.host_id(1, 0, 0));
  const auto d = rules->on_ingress(pkt, topo.host_node(client), tor());
  EXPECT_TRUE(std::holds_alternative<net::Switch::Continue>(d));
  EXPECT_EQ(*peek_magic(pkt.payload), magic_f(kMagicMonitor));
  EXPECT_EQ(rules->drs_labelled(), 1u);
}

TEST_F(RulesRig, UnknownRidDegradesInsteadOfBlackholing) {
  auto rules = tor_rules(/*rid=*/77);  // not in the directory
  const net::HostId client = topo.host_id(0, 0, 0);
  net::Packet pkt = request(client, topo.host_id(1, 0, 0));
  const auto d = rules->on_ingress(pkt, topo.host_node(client), tor());
  EXPECT_TRUE(std::holds_alternative<net::Switch::Continue>(d));
  EXPECT_EQ(*peek_magic(pkt.payload), magic_f(kMagicMonitor));
}

TEST_F(RulesRig, LocalRidRequestGoesToAccelerator) {
  auto rules = tor_rules(/*rid=*/1);  // this ToR is the RSNode
  const net::HostId client = topo.host_id(0, 0, 0);
  net::Packet pkt = request(client, topo.host_id(1, 0, 0));
  const auto d = rules->on_ingress(pkt, topo.host_node(client), tor());
  EXPECT_TRUE(std::holds_alternative<net::Switch::Consumed>(d));
  EXPECT_EQ(rules->to_accelerator(), 1u);
}

TEST_F(RulesRig, ResponseGetsSourceMarkerAndSteersToRsnode) {
  auto rules = tor_rules(/*rid=*/2);
  const net::HostId server = topo.host_id(0, 0, 1);
  net::Packet pkt = response(server, topo.host_id(1, 0, 0), /*rid=*/3);
  const auto d = rules->on_ingress(pkt, topo.host_node(server), tor());
  ASSERT_TRUE(std::holds_alternative<net::Switch::Steer>(d));
  EXPECT_EQ(std::get<net::Switch::Steer>(d).target_switch,
            topo.core_node(0, 0));
  const auto sm = peek_source_marker(pkt.payload);
  ASSERT_TRUE(sm.has_value());
  EXPECT_EQ(*sm, topo.marker(server));
}

TEST_F(RulesRig, LocalRidResponseClonedAndRelabelled) {
  auto rules = tor_rules(/*rid=*/1);
  const net::HostId server = topo.host_id(0, 0, 1);
  net::Packet pkt = response(server, topo.host_id(0, 0, 0), /*rid=*/1);
  const auto d = rules->on_ingress(pkt, topo.host_node(server), tor());
  EXPECT_TRUE(std::holds_alternative<net::Switch::Continue>(d));
  EXPECT_EQ(*peek_magic(pkt.payload), kMagicMonitor);
  EXPECT_EQ(rules->cloned(), 1u);
}

TEST_F(RulesRig, NonTorSwitchNeverTouchesGroupTables) {
  // Rules without ToR tables (an aggregation switch): a request arriving
  // with a foreign RID is steered; one with the local id is consumed.
  NetRSRules rules(2, agg_accel_, directory, topo);
  net::Switch& agg = *switches[topo.agg_node(0, 1)];
  net::Packet steer_me =
      request(topo.host_id(0, 0, 0), topo.host_id(1, 0, 0), /*rid=*/3);
  auto d = rules.on_ingress(steer_me, topo.tor_node(0, 0), agg);
  EXPECT_TRUE(std::holds_alternative<net::Switch::Steer>(d));

  net::Packet mine =
      request(topo.host_id(0, 0, 0), topo.host_id(1, 0, 0), /*rid=*/2);
  d = rules.on_ingress(mine, topo.tor_node(0, 0), agg);
  EXPECT_TRUE(std::holds_alternative<net::Switch::Consumed>(d));
}

TEST_F(RulesRig, PlainAndMonitorPacketsFallThrough) {
  auto rules = tor_rules(/*rid=*/2);
  net::Packet plain;
  plain.src = topo.host_id(0, 0, 0);
  plain.dst = topo.host_id(1, 0, 0);
  plain.payload.assign(32, std::byte{0xEE});
  auto d = rules->on_ingress(plain, topo.host_node(plain.src), tor());
  EXPECT_TRUE(std::holds_alternative<net::Switch::Continue>(d));

  net::Packet mon = request(topo.host_id(0, 0, 0), topo.host_id(1, 0, 0));
  set_magic(mon.payload, kMagicMonitor);
  d = rules->on_ingress(mon, topo.host_node(mon.src), tor());
  EXPECT_TRUE(std::holds_alternative<net::Switch::Continue>(d));
  EXPECT_EQ(rules->steered(), 0u);
  EXPECT_EQ(rules->to_accelerator(), 0u);
}

TEST_F(RulesRig, RidTableSwapTakesEffect) {
  auto rules = tor_rules(/*rid=*/2);
  auto table3 = std::make_shared<GroupRidTable>(groups.group_count(),
                                                RsNodeId{3});
  rules->update_rid_table(table3);
  const net::HostId client = topo.host_id(0, 0, 0);
  net::Packet pkt = request(client, topo.host_id(1, 0, 0));
  const auto d = rules->on_ingress(pkt, topo.host_node(client), tor());
  ASSERT_TRUE(std::holds_alternative<net::Switch::Steer>(d));
  EXPECT_EQ(std::get<net::Switch::Steer>(d).target_switch,
            topo.core_node(0, 0));
}

}  // namespace
}  // namespace netrs::core
