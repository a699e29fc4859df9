// Additional client-behavior tests: backup-replica distribution in NetRS
// mode, degenerate configurations, and pending-request accounting.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/switch.hpp"

namespace netrs::kv {
namespace {

class ClientMoreRig : public ::testing::Test {
 protected:
  ClientMoreRig() : topo(8), fabric(group, topo, net::FabricConfig{}) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    server_hosts = {topo.host_id(0, 0, 0), topo.host_id(0, 0, 1),
                    topo.host_id(0, 0, 2)};
    ring = std::make_unique<ConsistentHashRing>(server_hosts, 3, 8);
    zipf = std::make_unique<sim::ZipfDistribution>(100, 0.99);
  }

  sim::ShardGroup group{1};
  net::FatTree topo;
  net::Fabric fabric;
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::vector<net::HostId> server_hosts;
  std::unique_ptr<ConsistentHashRing> ring;
  std::unique_ptr<sim::ZipfDistribution> zipf;
};

TEST_F(ClientMoreRig, NetRSBackupsSpreadAcrossReplicas) {
  // Capture raw requests at the servers (no server logic) and check the
  // client's DRS backup choice is roughly uniform over the replica group.
  class Capture final : public net::Host {
   public:
    using Host::Host;
    void receive(net::Packet, net::NodeId) override { ++count; }
    int count = 0;
  };
  std::vector<std::unique_ptr<Capture>> caps;
  for (net::HostId h : server_hosts) {
    caps.push_back(std::make_unique<Capture>(fabric, h));
  }
  ClientConfig cfg;
  cfg.mode = ClientMode::kNetRS;
  cfg.arrival_rate = 3000.0;
  Client client(fabric, topo.host_id(0, 1, 0), cfg, *ring, *zipf,
                sim::Rng(5));
  client.start();
  group.run_until(sim::seconds(1));
  client.stop();
  group.run_until(group.now() + sim::millis(20));

  int total = 0;
  for (const auto& c : caps) total += c->count;
  ASSERT_GT(total, 1000);
  for (const auto& c : caps) {
    EXPECT_GT(c->count, total / 6) << "backup choice is skewed";
    EXPECT_LT(c->count, total / 2 + total / 10);
  }
}

TEST_F(ClientMoreRig, ZeroRateClientIssuesNothing) {
  ClientConfig cfg;
  cfg.arrival_rate = 0.0;
  Client client(fabric, topo.host_id(0, 1, 0), cfg, *ring, *zipf,
                sim::Rng(6));
  client.start();
  group.run_until(sim::seconds(1));
  EXPECT_EQ(client.issued(), 0u);
  EXPECT_EQ(client.in_flight(), 0u);
}

TEST_F(ClientMoreRig, DoubleStartIsIdempotent) {
  ServerConfig scfg;
  scfg.fluctuate = false;
  scfg.mean_service_time = sim::micros(200);
  std::vector<std::unique_ptr<Server>> servers;
  for (net::HostId h : server_hosts) {
    servers.push_back(std::make_unique<Server>(fabric, h, scfg,
                                               sim::Rng(h)));
  }
  ClientConfig cfg;
  cfg.arrival_rate = 1000.0;
  Client client(fabric, topo.host_id(0, 1, 0), cfg, *ring, *zipf,
                sim::Rng(7));
  client.start();
  client.start();  // must not double the arrival process
  group.run_until(sim::seconds(1));
  client.stop();
  group.run_until(group.now() + sim::millis(50));
  EXPECT_NEAR(static_cast<double>(client.issued()), 1000.0, 160.0);
}

TEST_F(ClientMoreRig, KeysFollowZipfPopularity) {
  // The busiest replica group must receive far more than the average.
  ServerConfig scfg;
  scfg.fluctuate = false;
  scfg.mean_service_time = sim::micros(100);
  std::vector<std::unique_ptr<Server>> servers;
  for (net::HostId h : server_hosts) {
    servers.push_back(std::make_unique<Server>(fabric, h, scfg,
                                               sim::Rng(h)));
  }
  std::map<std::uint64_t, int> key_counts;
  ClientConfig cfg;
  cfg.arrival_rate = 3000.0;
  Client client(fabric, topo.host_id(0, 1, 0), cfg, *ring, *zipf,
                sim::Rng(8));
  client.set_completion_callback(
      [&](const Client::Completion& c) { ++key_counts[c.key]; });
  client.start();
  group.run_until(sim::seconds(2));
  client.stop();
  group.run_until(group.now() + sim::millis(50));

  int max_count = 0, total = 0;
  for (const auto& [key, n] : key_counts) {
    (void)key;
    max_count = std::max(max_count, n);
    total += n;
  }
  ASSERT_GT(total, 3000);
  // Zipf(0.99) over 100 keys: rank 1 holds ~19% of the mass.
  EXPECT_GT(max_count, total / 10);
}

}  // namespace
}  // namespace netrs::kv
