// Integration tests for the NetRS operator machinery of §IV: switch rules,
// accelerator, selector node, and monitor wired into a live fat-tree
// carrying real packets between a KV client host and KV servers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kv/app_message.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/switch.hpp"
#include "netrs/controller.hpp"
#include "netrs/operator.hpp"
#include "rs/baselines.hpp"

namespace netrs::core {
namespace {

class ProbeHost final : public net::Host {
 public:
  using Host::Host;
  void receive(net::Packet pkt, net::NodeId from) override {
    (void)from;
    received.push_back(std::move(pkt));
    times.push_back(simulator().now());
  }
  void transmit(net::Packet pkt) { send(std::move(pkt)); }
  std::vector<net::Packet> received;
  std::vector<sim::Time> times;
};

class PipelineRig : public ::testing::Test {
 protected:
  PipelineRig()
      : topo(4),
        fabric(group, topo, net::FabricConfig{}),
        groups(topo, GroupGranularity::kRack) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    // Servers in three different racks/pods so tier classification varies:
    // same rack as the client, same pod, different pod.
    client_host = topo.host_id(0, 0, 0);
    server_hosts = {topo.host_id(0, 0, 1),   // tier-2 wrt client
                    topo.host_id(0, 1, 0),   // tier-1
                    topo.host_id(2, 0, 0)};  // tier-0
    ring = std::make_unique<kv::ConsistentHashRing>(server_hosts, 3, 8);

    directory = std::make_shared<RsNodeDirectory>();
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      (*directory)[rid_of(sw)] = sw;
    }
    auto bootstrap =
        std::make_shared<const GroupRidTable>(groups.group_count(),
                                              kRidIllegal);
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      operators.push_back(std::make_unique<NetRSOperator>(
          fabric, *switches[sw], rid_of(sw), AcceleratorConfig{}, directory,
          ring->groups(),
          [this] {
            // Deterministic round-robin keeps assertions simple.
            return std::make_unique<rs::RoundRobinSelector>();
          },
          &groups, bootstrap));
    }

    kv::ServerConfig scfg;
    scfg.fluctuate = false;
    scfg.deterministic_service = true;  // timing assertions need this
    scfg.mean_service_time = sim::millis(1);
    for (net::HostId h : server_hosts) {
      servers.push_back(
          std::make_unique<kv::Server>(fabric, h, scfg, sim::Rng(h)));
    }
    client = std::make_unique<ProbeHost>(fabric, client_host);
  }

  static RsNodeId rid_of(net::NodeId sw) {
    return static_cast<RsNodeId>(sw + 1);
  }

  NetRSOperator& op_at(net::NodeId sw) { return *operators[sw]; }

  /// Installs "all client-side groups -> RSNode at `sw`" on every ToR.
  void set_rsnode(net::NodeId sw) {
    auto table = std::make_shared<GroupRidTable>(groups.group_count(),
                                                 rid_of(sw));
    for (auto& op : operators) {
      if (op->monitor() != nullptr) {
        op->rules().update_rid_table(table);
      }
    }
  }

  void set_all_drs() {
    auto table =
        std::make_shared<GroupRidTable>(groups.group_count(), kRidIllegal);
    for (auto& op : operators) {
      if (op->monitor() != nullptr) op->rules().update_rid_table(table);
    }
  }

  net::Packet make_request(std::uint64_t req_id, std::uint64_t key,
                           net::HostId backup) {
    RequestHeader rh;
    rh.mf = kMagicRequest;
    rh.rgid = ring->group_of_key(key);
    kv::AppRequest ar;
    ar.client_request_id = req_id;
    ar.key = key;
    net::Packet p;
    p.dst = backup;
    p.src_port = kv::kClientPort;
    p.dst_port = kv::kServerPort;
    p.payload = encode_request(rh, kv::encode_app_request(ar));
    return p;
  }

  sim::ShardGroup group{1};
  sim::Simulator& sim = group.global_sim();
  net::FatTree topo;
  net::Fabric fabric;
  TrafficGroups groups;
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::shared_ptr<RsNodeDirectory> directory;
  std::vector<std::unique_ptr<NetRSOperator>> operators;
  std::vector<net::HostId> server_hosts;
  net::HostId client_host;
  std::unique_ptr<kv::ConsistentHashRing> ring;
  std::vector<std::unique_ptr<kv::Server>> servers;
  std::unique_ptr<ProbeHost> client;
};

TEST_F(PipelineRig, RequestSelectedAtTorRsnodeAndAnswered) {
  const net::NodeId tor = topo.host_tor(client_host);
  set_rsnode(tor);
  client->transmit(make_request(1, 42, server_hosts[2]));
  sim.run();

  ASSERT_EQ(client->received.size(), 1u);
  NetRSOperator& rsnode = op_at(tor);
  EXPECT_EQ(rsnode.selector_node().requests_selected(), 1u);
  EXPECT_EQ(rsnode.selector_node().responses_absorbed(), 1u);
  EXPECT_EQ(rsnode.rules().to_accelerator(), 1u);
  EXPECT_EQ(rsnode.rules().cloned(), 1u);

  // The response reaching the client is relabelled Mmon by the RSNode.
  const auto resp = decode_response(client->received[0].payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(classify(resp->mf), PacketKind::kMonitorOnly);
  // Round-robin picked the first replica in the group's candidate list.
  EXPECT_EQ(client->received[0].src, ring->replicas_of_key(42)[0]);
}

TEST_F(PipelineRig, CoreRsnodeAddsPaperExtraHops) {
  // §III-B example: tier-2 traffic through a core RSNode takes 4 extra
  // forwards on the request path; responses detour symmetrically.
  const net::NodeId core = topo.core_node(0, 0);
  set_rsnode(core);
  // Key whose primary replica (round-robin pick) is the same-rack server.
  std::uint64_t key = 0;
  while (ring->replicas_of_key(key)[0] != server_hosts[0]) ++key;
  client->transmit(make_request(2, key, server_hosts[0]));
  sim.run();

  ASSERT_EQ(client->received.size(), 1u);
  // Same-rack default round trip: 1 + 1 forwards. Via the core RSNode:
  // 5 + 5 forwards.
  EXPECT_EQ(client->received[0].meta.forwards, 10u);
  EXPECT_EQ(op_at(core).selector_node().requests_selected(), 1u);
  EXPECT_EQ(op_at(core).selector_node().responses_absorbed(), 1u);
}

TEST_F(PipelineRig, ResponsesSteerBackThroughRequestRsnode) {
  const net::NodeId agg = topo.agg_node(0, 1);
  set_rsnode(agg);
  for (int i = 0; i < 5; ++i) {
    client->transmit(make_request(10 + i, 100 + i, server_hosts[1]));
  }
  sim.run();
  ASSERT_EQ(client->received.size(), 5u);
  EXPECT_EQ(op_at(agg).selector_node().requests_selected(), 5u);
  EXPECT_EQ(op_at(agg).selector_node().responses_absorbed(), 5u);
  // The selector measured a response time for every response (RV matched).
  EXPECT_EQ(op_at(agg).selector_node().rv_mismatches(), 0u);
}

TEST_F(PipelineRig, MonitorClassifiesTiersBySourceMarker) {
  const net::NodeId tor = topo.host_tor(client_host);
  set_rsnode(tor);
  // One request per replica: with round-robin the three requests land on
  // the three distinct servers (tier 2, 1, 0 relative to the client).
  std::uint64_t key = 7;
  for (int i = 0; i < 3; ++i) {
    client->transmit(make_request(20 + i, key, server_hosts[0]));
  }
  sim.run();
  ASSERT_EQ(client->received.size(), 3u);

  Monitor* mon = op_at(tor).monitor();
  ASSERT_NE(mon, nullptr);
  EXPECT_EQ(mon->total_counted(), 3u);
  const auto counts = mon->snapshot_and_reset();
  const GroupId g = groups.group_of_host(client_host);
  ASSERT_TRUE(counts.contains(g));
  const auto& tiers = counts.at(g);
  // The replica set of `key` spans all three server hosts (RF = 3 of 3),
  // and round-robin visited each once.
  EXPECT_EQ(tiers[0], 1u);
  EXPECT_EQ(tiers[1], 1u);
  EXPECT_EQ(tiers[2], 1u);
  // Snapshot resets.
  EXPECT_TRUE(mon->snapshot_and_reset().empty());
}

TEST_F(PipelineRig, DrsRoutesToBackupWithoutSelector) {
  set_all_drs();
  const net::HostId backup = server_hosts[1];
  client->transmit(make_request(30, 99, backup));
  sim.run();

  ASSERT_EQ(client->received.size(), 1u);
  EXPECT_EQ(client->received[0].src, backup) << "DRS must use the backup";
  for (auto& op : operators) {
    EXPECT_EQ(op->selector_node().requests_selected(), 0u);
    EXPECT_EQ(op->selector_node().responses_absorbed(), 0u);
  }
  // The DRS response is still monitor-visible (f(Mmon) -> Mmon algebra).
  Monitor* mon = op_at(topo.host_tor(client_host)).monitor();
  EXPECT_EQ(mon->total_counted(), 1u);
  // Default path only: backup is tier-1 (same pod, other rack): 3+3
  // forwards round trip.
  EXPECT_EQ(client->received[0].meta.forwards, 6u);
}

TEST_F(PipelineRig, AcceleratorDelayOnRequestPath) {
  const net::NodeId tor = topo.host_tor(client_host);
  set_rsnode(tor);
  // Pin selection to the same-rack server by using a single-replica view:
  // measure latency difference vs DRS to the same server.
  std::uint64_t key = 0;
  while (ring->replicas_of_key(key)[0] != server_hosts[0]) ++key;

  client->transmit(make_request(40, key, server_hosts[0]));
  sim.run();
  ASSERT_EQ(client->received.size(), 1u);
  const sim::Time with_netrs = client->times[0];

  // Same flow under DRS (no accelerator on the path).
  set_all_drs();
  const sim::Time start = sim.now();
  client->transmit(make_request(41, key, server_hosts[0]));
  sim.run();
  ASSERT_EQ(client->received.size(), 2u);
  const sim::Time with_drs = client->times[1] - start;

  // NetRS adds one accelerator visit on the request path: 2 * 1.25us link
  // + 5us service (the response clone is off the critical path).
  const sim::Duration delta = with_netrs - with_drs;
  EXPECT_GE(delta, sim::micros(7));
  EXPECT_LE(delta, sim::micros(9));
}

TEST_F(PipelineRig, AcceleratorQueuesWhenSaturated) {
  const net::NodeId tor = topo.host_tor(client_host);
  set_rsnode(tor);
  // A burst of simultaneous requests serializes on the 1-core accelerator.
  for (int i = 0; i < 20; ++i) {
    client->transmit(make_request(50 + i, 7, server_hosts[0]));
  }
  sim.run();
  EXPECT_EQ(client->received.size(), 20u);
  Accelerator& accel = op_at(tor).accelerator();
  EXPECT_EQ(accel.processed(), 40u);  // 20 requests + 20 response clones
  EXPECT_EQ(accel.queue_length(), 0u);
  EXPECT_GT(accel.utilization(sim.now()), 0.0);
}

TEST_F(PipelineRig, ResetSelectorDropsLocalInformation) {
  const net::NodeId tor = topo.host_tor(client_host);
  set_rsnode(tor);
  client->transmit(make_request(60, 5, server_hosts[0]));
  client->transmit(make_request(61, 5, server_hosts[0]));
  sim.run();
  ASSERT_EQ(client->received.size(), 2u);
  // Round-robin advanced to the 3rd candidate; reset rewinds it.
  op_at(tor).reset_selector();
  client->transmit(make_request(62, 5, server_hosts[0]));
  sim.run();
  ASSERT_EQ(client->received.size(), 3u);
  EXPECT_EQ(client->received[2].src, ring->replicas_of_key(5)[0]);
}

TEST_F(PipelineRig, NonNetRSTrafficPassesUntouched) {
  const net::NodeId tor = topo.host_tor(client_host);
  set_rsnode(tor);
  net::Packet plain;
  plain.dst = server_hosts[2];
  plain.src_port = 1234;
  plain.dst_port = 4321;
  plain.payload.assign(64, std::byte{0});  // magic field reads as 0
  client->transmit(std::move(plain));
  sim.run_until(sim::millis(5));
  // The KV server asserts on decode in debug builds; instead verify no
  // operator consumed or steered it.
  for (auto& op : operators) {
    EXPECT_EQ(op->rules().to_accelerator(), 0u);
    EXPECT_EQ(op->rules().steered(), 0u);
  }
}

}  // namespace
}  // namespace netrs::core
