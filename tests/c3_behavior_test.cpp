// System-level behavioral properties of the C3 algorithm driving a real
// client/server loop: it must discover and exploit performance asymmetry,
// and it must react to a mid-run performance flip — the exact capabilities
// replica selection needs against the paper's fluctuating servers.
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

class C3BehaviorRig : public ::testing::Test {
 protected:
  // k = 8: four hosts per rack, so three servers + spare fit in one rack.
  C3BehaviorRig() : topo(8), fabric(group, topo, net::FabricConfig{}) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    // Three servers in one rack => identical network distance from the
    // client; any preference C3 develops is purely performance-driven.
    server_hosts = {topo.host_id(0, 0, 0), topo.host_id(0, 0, 1),
                    topo.host_id(0, 0, 2)};
    ring = std::make_unique<ConsistentHashRing>(server_hosts, 3, 8);
    zipf = std::make_unique<sim::ZipfDistribution>(1000, 0.99);
  }

  Server& add_server(net::HostId h, sim::Duration mean) {
    ServerConfig cfg;
    cfg.fluctuate = false;
    cfg.parallelism = 2;
    cfg.mean_service_time = mean;
    servers.push_back(
        std::make_unique<Server>(fabric, h, cfg, sim::Rng(h)));
    return *servers.back();
  }

  /// Starts a fresh C3 client on rack (0,1) slot `slot` (each phase uses
  /// its own host: a NodeId may only be attached once).
  std::map<net::HostId, int>& run_client(double rate, sim::Duration span,
                                         int slot = 0) {
    ClientConfig ccfg;
    ccfg.arrival_rate = rate;
    ccfg.selector.algorithm = "c3";
    ccfg.selector.c3.concurrency = 1.0;
    client = std::make_unique<Client>(fabric, topo.host_id(0, 1, slot), ccfg,
                                      *ring, *zipf, sim::Rng(99));
    client->set_completion_callback(
        [this](const Client::Completion& c) { ++hits[c.server]; });
    client->start();
    group.run_until(group.now() + span);
    client->stop();
    group.run_until(group.now() + sim::millis(200));
    return hits;
  }

  sim::ShardGroup group{1};
  net::FatTree topo;
  net::Fabric fabric;
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::vector<net::HostId> server_hosts;
  std::unique_ptr<ConsistentHashRing> ring;
  std::unique_ptr<sim::ZipfDistribution> zipf;
  std::vector<std::unique_ptr<Server>> servers;
  std::unique_ptr<Client> client;
  std::map<net::HostId, int> hits;
};

TEST_F(C3BehaviorRig, ExploitsFastServer) {
  add_server(server_hosts[0], sim::millis(8));  // slow
  add_server(server_hosts[1], sim::millis(1));  // fast
  add_server(server_hosts[2], sim::millis(8));  // slow
  run_client(/*rate=*/500.0, sim::seconds(2));
  const int total = hits[server_hosts[0]] + hits[server_hosts[1]] +
                    hits[server_hosts[2]];
  ASSERT_GT(total, 500);
  // The fast server must absorb the clear majority of the load.
  EXPECT_GT(hits[server_hosts[1]], total * 0.55)
      << "fast=" << hits[server_hosts[1]] << " of " << total;
  // But not all of it: the cubic queue penalty must spill load once its
  // queue builds (otherwise C3 would overload the fast replica).
  EXPECT_GT(hits[server_hosts[0]] + hits[server_hosts[2]], total * 0.02);
}

TEST_F(C3BehaviorRig, AdaptsWhenPerformanceFlips) {
  Server& a = add_server(server_hosts[0], sim::millis(1));
  add_server(server_hosts[1], sim::millis(8));
  add_server(server_hosts[2], sim::millis(8));
  run_client(500.0, sim::seconds(1));
  const int a_first = hits[server_hosts[0]];
  const int b_first = hits[server_hosts[1]];
  EXPECT_GT(a_first, b_first);
  (void)a;

  // Flip: the fast server becomes the slowest. (ServerConfig is captured
  // at construction; emulate the flip by replacing the server's role via
  // fresh servers is invasive, so instead use fluctuation-free servers and
  // verify with a *new* measurement phase that C3 re-learns from the
  // changed queue/latency it observes when the fast server saturates.)
  hits.clear();
  // Saturate server A with background load from a second client so its
  // queue explodes; C3 must shift away.
  ClientConfig bg;
  bg.arrival_rate = 1800.0;  // ~2x server A's 2-slot 1ms capacity
  bg.selector.algorithm = "round-robin";
  // Background client hammers only server A's replica group... use a
  // dedicated ring containing just server A.
  std::vector<net::HostId> only_a = {server_hosts[0]};
  ConsistentHashRing ring_a(only_a, 1, 4);
  Client background(fabric, topo.host_id(0, 1, 1), bg, ring_a, *zipf,
                    sim::Rng(123));
  background.start();
  run_client(500.0, sim::seconds(2), /*slot=*/2);
  background.stop();
  const int a_second = hits[server_hosts[0]];
  const int total = a_second + hits[server_hosts[1]] + hits[server_hosts[2]];
  ASSERT_GT(total, 500);
  // A is drowning in background load; C3 must send most traffic elsewhere.
  EXPECT_LT(a_second, total / 2);
}

TEST_F(C3BehaviorRig, BalancesEqualServers) {
  for (net::HostId h : server_hosts) add_server(h, sim::millis(2));
  run_client(600.0, sim::seconds(2));
  const int total = hits[server_hosts[0]] + hits[server_hosts[1]] +
                    hits[server_hosts[2]];
  ASSERT_GT(total, 800);
  for (net::HostId h : server_hosts) {
    EXPECT_GT(hits[h], total / 6) << "server " << h << " starved";
    EXPECT_LT(hits[h], total * 2 / 3) << "server " << h << " herded";
  }
}

}  // namespace
}  // namespace netrs::kv
