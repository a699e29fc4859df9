// Cross-server cancellation of redundant requests (extension; "The Tail at
// Scale" technique the paper cites alongside CliRS-R95).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/switch.hpp"
#include "netrs/packet_format.hpp"

namespace netrs::kv {
namespace {

class CancelRig : public ::testing::Test {
 protected:
  CancelRig() : topo(4), fabric(group, topo, net::FabricConfig{}) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    server_hosts = {topo.host_id(0, 0, 0), topo.host_id(0, 0, 1),
                    topo.host_id(0, 1, 0)};
    ring = std::make_unique<ConsistentHashRing>(server_hosts, 3, 8);
    zipf = std::make_unique<sim::ZipfDistribution>(100, 0.99);
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
};

TEST_F(CancelRig, AppRequestOpRoundTrips) {
  AppRequest r;
  r.client_request_id = 9;
  r.key = 7;
  r.op = AppOp::kCancel;
  const auto bytes = encode_app_request(r);
  EXPECT_EQ(bytes.size(), kAppRequestBytes);
  const auto back = decode_app_request(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, AppOp::kCancel);
  EXPECT_EQ(back->client_request_id, 9u);
}

TEST_F(CancelRig, DecodeRejectsUnknownOp) {
  AppRequest r;
  auto bytes = encode_app_request(r);
  bytes[16] = std::byte{0x7F};
  EXPECT_FALSE(decode_app_request(bytes).has_value());
}

// A direct server-level test: queue two requests behind a long one, cancel
// the queued one, and verify it answers immediately with an empty value.
class RawClient final : public net::Host {
 public:
  using Host::Host;
  void receive(net::Packet pkt, net::NodeId) override {
    responses.push_back(std::move(pkt));
    times.push_back(simulator().now());
  }
  void transmit(net::Packet pkt) { send(std::move(pkt)); }
  std::vector<net::Packet> responses;
  std::vector<sim::Time> times;
};

/// The app-level response a delivered response packet carries.
AppResponse app_response(const net::Packet& pkt) {
  const auto r = decode_app_response(core::response_app_payload(pkt.payload));
  EXPECT_TRUE(r.has_value());
  return r.value_or(AppResponse{});
}

net::Packet raw_request(net::HostId dst, std::uint64_t id, AppOp op) {
  core::RequestHeader rh;
  rh.mf = core::magic_f(core::kMagicMonitor);  // plain-labelled
  AppRequest ar;
  ar.client_request_id = id;
  ar.key = 1;
  ar.op = op;
  net::Packet p;
  p.dst = dst;
  p.src_port = kClientPort;
  p.dst_port = kServerPort;
  p.payload = core::encode_request(rh, encode_app_request(ar));
  return p;
}

TEST_F(CancelRig, ServerCancelsQueuedRequest) {
  ServerConfig cfg;
  cfg.fluctuate = false;
  cfg.deterministic_service = true;
  cfg.parallelism = 1;
  cfg.mean_service_time = sim::millis(10);
  const net::HostId server_host = server_hosts[0];
  servers.push_back(
      std::make_unique<Server>(fabric, server_host, cfg, sim::Rng(1)));
  RawClient client(fabric, topo.host_id(0, 1, 1));

  client.transmit(raw_request(server_host, 100, AppOp::kGet));  // serving
  client.transmit(raw_request(server_host, 101, AppOp::kGet));  // queued
  sim.run_until(sim::millis(2));
  client.transmit(raw_request(server_host, 101, AppOp::kCancel));
  sim.run();

  ASSERT_EQ(client.responses.size(), 2u);
  // The cancelled response came back long before the 10ms service would
  // have finished it, and carries an empty value.
  const AppResponse r0 = app_response(client.responses[0]);
  EXPECT_EQ(r0.client_request_id, 101u);
  EXPECT_EQ(r0.value_bytes, 0u);
  EXPECT_LT(client.times[0], sim::millis(5));
  // Only the first request consumed a service: it carries the full value.
  const AppResponse r1 = app_response(client.responses[1]);
  EXPECT_EQ(r1.client_request_id, 100u);
  EXPECT_EQ(r1.value_bytes, cfg.value_bytes);
  EXPECT_GE(client.times[1], sim::millis(10));
}

TEST_F(CancelRig, CancelForUnknownRequestIsIgnored) {
  ServerConfig cfg;
  cfg.fluctuate = false;
  cfg.mean_service_time = sim::millis(1);
  servers.push_back(
      std::make_unique<Server>(fabric, server_hosts[0], cfg, sim::Rng(2)));
  RawClient client(fabric, topo.host_id(0, 1, 1));
  client.transmit(raw_request(server_hosts[0], 999, AppOp::kCancel));
  sim.run();
  EXPECT_TRUE(client.responses.empty());
}

TEST_F(CancelRig, CancelOnlyMatchesSameClient) {
  ServerConfig cfg;
  cfg.fluctuate = false;
  cfg.deterministic_service = true;
  cfg.parallelism = 1;
  cfg.mean_service_time = sim::millis(5);
  servers.push_back(
      std::make_unique<Server>(fabric, server_hosts[0], cfg, sim::Rng(3)));
  RawClient alice(fabric, topo.host_id(0, 1, 1));
  RawClient bob(fabric, topo.host_id(1, 0, 0));

  alice.transmit(raw_request(server_hosts[0], 1, AppOp::kGet));  // serving
  alice.transmit(raw_request(server_hosts[0], 7, AppOp::kGet));  // queued
  sim.run_until(sim::millis(2));
  // Bob cancels "7" — but *his* 7, which does not exist. Alice's stays.
  bob.transmit(raw_request(server_hosts[0], 7, AppOp::kCancel));
  sim.run();
  EXPECT_TRUE(bob.responses.empty());
  // Both of Alice's requests were served in full, none cancelled.
  ASSERT_EQ(alice.responses.size(), 2u);
  for (const net::Packet& r : alice.responses) {
    EXPECT_EQ(app_response(r).value_bytes, cfg.value_bytes);
  }
}

// End-to-end: a redundant client with cancellation settles every request
// and actually removes queued duplicates under load.
TEST_F(CancelRig, ClientCancelsLosingCopies) {
  ServerConfig scfg;
  scfg.fluctuate = false;
  scfg.parallelism = 1;
  scfg.mean_service_time = sim::millis(2);
  for (net::HostId h : server_hosts) {
    servers.push_back(std::make_unique<Server>(fabric, h, scfg,
                                               sim::Rng(10 + h)));
  }
  ClientConfig ccfg;
  ccfg.arrival_rate = 400.0;
  ccfg.redundancy.enabled = true;
  ccfg.redundancy.min_samples = 10;
  ccfg.redundancy.cancel_on_completion = true;
  const net::HostId client_host = topo.host_id(0, 1, 1);
  Client client(fabric, client_host, ccfg, *ring, *zipf, sim::Rng(4));
  // Counts the empty-valued responses (cancelled copies) that the
  // client's ToR delivers to it.
  struct CancelledTap final : net::Switch::EgressStage {
    void on_egress(const net::Packet& pkt, net::NodeId next_hop,
                   net::Switch&) override {
      if (next_hop == client_node && app_response(pkt).value_bytes == 0) {
        ++cancelled;
      }
    }
    net::NodeId client_node = net::kInvalidNode;
    std::uint64_t cancelled = 0;
  } tap;
  tap.client_node = topo.host_node(client_host);
  switches[topo.host_tor(client_host)]->add_egress_stage(&tap);
  client.start();
  sim.run_until(sim::seconds(2));
  client.stop();
  sim.run_until(sim.now() + sim::seconds(1));

  EXPECT_GT(client.redundant_sent(), 0u);
  EXPECT_GT(client.cancels_sent(), 0u);
  EXPECT_EQ(client.completed(), client.issued());
  EXPECT_EQ(client.in_flight(), 0u);
  EXPECT_GT(tap.cancelled, 0u);
}

}  // namespace
}  // namespace netrs::kv
