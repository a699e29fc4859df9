#include "kv/client.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "kv/server.hpp"
#include "net/switch.hpp"
#include "netrs/packet_format.hpp"

namespace netrs::kv {
namespace {

// Small single-rack cluster: 3 servers + 1 client under one ToR, no NetRS.
class ClientRig : public ::testing::Test {
 protected:
  ClientRig() : topo(4), fabric(group, topo, net::FabricConfig{}) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    server_hosts = {topo.host_id(0, 0, 0), topo.host_id(0, 0, 1),
                    topo.host_id(0, 1, 0)};
    ring = std::make_unique<ConsistentHashRing>(server_hosts, 3, 8);
    zipf = std::make_unique<sim::ZipfDistribution>(1000, 0.99);
  }

  void add_servers(ServerConfig cfg) {
    for (net::HostId h : server_hosts) {
      servers.push_back(std::make_unique<Server>(
          fabric, h, cfg, sim::Rng(100 + h)));
    }
  }

  Client& make_client(ClientConfig cfg, net::HostId h) {
    clients.push_back(std::make_unique<Client>(fabric, h, cfg, *ring, *zipf,
                                               sim::Rng(7)));
    return *clients.back();
  }

  sim::ShardGroup group{1};
  sim::Simulator& sim = group.global_sim();
  net::FatTree topo;
  net::Fabric fabric;
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::vector<net::HostId> server_hosts;
  std::unique_ptr<ConsistentHashRing> ring;
  std::unique_ptr<sim::ZipfDistribution> zipf;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::unique_ptr<Client>> clients;
};

TEST_F(ClientRig, OpenLoopIssuesAtConfiguredRate) {
  ServerConfig scfg;
  scfg.fluctuate = false;
  scfg.mean_service_time = sim::micros(100);
  add_servers(scfg);
  ClientConfig ccfg;
  ccfg.mode = ClientMode::kClientSelect;
  ccfg.arrival_rate = 1000.0;  // 1 per ms
  Client& c = make_client(ccfg, topo.host_id(0, 1, 1));
  c.start();
  sim.run_until(sim::seconds(1));
  c.stop();
  sim.run_until(sim.now() + sim::millis(100));
  EXPECT_NEAR(static_cast<double>(c.issued()), 1000.0, 150.0);
  EXPECT_EQ(c.completed(), c.issued());
  EXPECT_EQ(c.in_flight(), 0u);
}

TEST_F(ClientRig, CompletionCallbackCarriesLatencyAndServer) {
  ServerConfig scfg;
  scfg.fluctuate = false;
  scfg.mean_service_time = sim::millis(1);
  add_servers(scfg);
  ClientConfig ccfg;
  ccfg.arrival_rate = 200.0;
  Client& c = make_client(ccfg, topo.host_id(0, 1, 1));
  std::vector<Client::Completion> done;
  c.set_completion_callback(
      [&](const Client::Completion& comp) { done.push_back(comp); });
  c.start();
  sim.run_until(sim::millis(100));
  c.stop();
  sim.run_until(sim.now() + sim::millis(50));
  ASSERT_GT(done.size(), 5u);
  for (const auto& comp : done) {
    EXPECT_GT(comp.latency, 0);
    EXPECT_GT(comp.forwards, 0u);
    EXPECT_TRUE(std::find(server_hosts.begin(), server_hosts.end(),
                          comp.server) != server_hosts.end());
    EXPECT_FALSE(comp.redundant_used);
  }
}

TEST_F(ClientRig, NetRSModeEmitsBackupDestinationAndRgid) {
  // No servers: capture the raw request at the backup host instead.
  class Capture final : public net::Host {
   public:
    using Host::Host;
    void receive(net::Packet pkt, net::NodeId) override {
      got.push_back(std::move(pkt));
    }
    std::vector<net::Packet> got;
  };
  std::vector<std::unique_ptr<Capture>> captures;
  for (net::HostId h : server_hosts) {
    captures.push_back(std::make_unique<Capture>(fabric, h));
  }
  ClientConfig ccfg;
  ccfg.mode = ClientMode::kNetRS;
  ccfg.arrival_rate = 500.0;
  Client& c = make_client(ccfg, topo.host_id(0, 1, 1));
  c.start();
  sim.run_until(sim::millis(50));
  c.stop();
  sim.run_until(sim.now() + sim::millis(10));

  std::size_t total = 0;
  for (auto& cap : captures) {
    for (const auto& pkt : cap->got) {
      ++total;
      const auto rh = core::decode_request(pkt.payload);
      ASSERT_TRUE(rh.has_value());
      EXPECT_EQ(rh->mf, core::kMagicRequest);
      EXPECT_EQ(rh->rid, core::kRidUnset);  // assigned by the ToR, not us
      // The RGID must identify the replica group containing the backup.
      const auto reps = ring->replicas(rh->rgid);
      EXPECT_TRUE(std::find(reps.begin(), reps.end(), pkt.dst) != reps.end());
    }
  }
  EXPECT_GT(total, 10u);
}

TEST_F(ClientRig, RedundantRequestsFireAfterP95) {
  ServerConfig scfg;
  scfg.fluctuate = false;
  scfg.parallelism = 1;
  scfg.mean_service_time = sim::millis(2);
  add_servers(scfg);
  ClientConfig ccfg;
  ccfg.arrival_rate = 400.0;  // saturating: queues form, latencies vary
  ccfg.redundancy.enabled = true;
  ccfg.redundancy.min_samples = 10;
  Client& c = make_client(ccfg, topo.host_id(0, 1, 1));
  std::uint64_t with_redundant = 0;
  c.set_completion_callback([&](const Client::Completion& comp) {
    if (comp.redundant_used) ++with_redundant;
  });
  c.start();
  sim.run_until(sim::seconds(2));
  c.stop();
  sim.run_until(sim.now() + sim::seconds(1));
  EXPECT_GT(c.redundant_sent(), 0u);
  EXPECT_GT(with_redundant, 0u);
  // Every request settles exactly once even with duplicates in flight.
  EXPECT_EQ(c.completed(), c.issued());
  EXPECT_EQ(c.in_flight(), 0u);
}

TEST_F(ClientRig, P95EstimateTracksCompletions) {
  ServerConfig scfg;
  scfg.fluctuate = false;
  scfg.mean_service_time = sim::millis(1);
  add_servers(scfg);
  ClientConfig ccfg;
  ccfg.arrival_rate = 300.0;
  // R95 sends a request's duplicate one p95 estimate after its primary,
  // so the gap between the two on the client's access link reads the
  // estimate off the wire.
  ccfg.redundancy.enabled = true;
  const net::HostId client_host = topo.host_id(0, 1, 1);
  struct DuplicateTap final : net::Switch::IngressStage {
    net::Switch::Disposition on_ingress(net::Packet& pkt, net::NodeId from,
                                        net::Switch& sw) override {
      if (from == client_node) {
        const sim::Time now = sw.simulator().now();
        if (pkt.meta.redundant) {
          gaps.push_back(now - primary_at.at(pkt.meta.request_id));
        } else {
          primary_at[pkt.meta.request_id] = now;
        }
      }
      return net::Switch::Continue{};
    }
    net::NodeId client_node = net::kInvalidNode;
    std::unordered_map<std::uint64_t, sim::Time> primary_at;
    std::vector<sim::Duration> gaps;
  } tap;
  tap.client_node = topo.host_node(client_host);
  switches[topo.host_tor(client_host)]->add_ingress_stage(&tap);
  Client& c = make_client(ccfg, client_host);
  c.start();
  sim.run_until(sim::seconds(1));
  c.stop();
  sim.run_until(sim.now() + sim::millis(100));
  ASSERT_FALSE(tap.gaps.empty());
  // Latency floor is 4 host-link hops (120us+) plus ~1ms service.
  for (const sim::Duration gap : tap.gaps) {
    EXPECT_GT(gap, sim::micros(500));
    EXPECT_LT(gap, sim::millis(60));
  }
}

TEST_F(ClientRig, StopPreventsNewArrivals) {
  ServerConfig scfg;
  scfg.fluctuate = false;
  scfg.mean_service_time = sim::micros(100);
  add_servers(scfg);
  ClientConfig ccfg;
  ccfg.arrival_rate = 1000.0;
  Client& c = make_client(ccfg, topo.host_id(0, 1, 1));
  c.start();
  sim.run_until(sim::millis(100));
  c.stop();
  const auto issued_at_stop = c.issued();
  sim.run();
  EXPECT_EQ(c.issued(), issued_at_stop);
}

}  // namespace
}  // namespace netrs::kv
