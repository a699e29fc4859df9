#include "kv/server.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kv/app_message.hpp"
#include "net/switch.hpp"
#include "netrs/packet_format.hpp"

namespace netrs::kv {
namespace {

class ProbeClient final : public net::Host {
 public:
  using Host::Host;
  void receive(net::Packet pkt, net::NodeId from) override {
    (void)from;
    responses.push_back(std::move(pkt));
    arrival_times.push_back(simulator().now());
  }
  void transmit(net::Packet pkt) { send(std::move(pkt)); }
  std::vector<net::Packet> responses;
  std::vector<sim::Time> arrival_times;
};

class ServerRig : public ::testing::Test {
 protected:
  ServerRig()
      : topo(4), fabric(group, topo, net::FabricConfig{}) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
  }

  Server& make_server(net::HostId h, ServerConfig cfg) {
    servers.push_back(
        std::make_unique<Server>(fabric, h, cfg, sim::Rng(42)));
    return *servers.back();
  }

  net::Packet make_request(net::HostId src, net::HostId dst,
                           std::uint64_t req_id,
                           core::Magic mf = core::kMagicRequest,
                           core::RsNodeId rid = core::kRidUnset,
                           std::uint16_t rv = 0) {
    core::RequestHeader rh;
    rh.rid = rid;
    rh.mf = mf;
    rh.rv = rv;
    rh.rgid = 5;
    AppRequest ar;
    ar.client_request_id = req_id;
    ar.key = 0xDEAD;
    net::Packet p;
    p.src = src;  // overwritten by Host::send; set for direct injection
    p.dst = dst;
    p.src_port = kClientPort;
    p.dst_port = kServerPort;
    p.payload = core::encode_request(rh, encode_app_request(ar));
    return p;
  }

  sim::ShardGroup group{1};
  sim::Simulator& sim = group.global_sim();
  net::FatTree topo;
  net::Fabric fabric;
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::vector<std::unique_ptr<Server>> servers;
};

TEST_F(ServerRig, RespondsToRequestWithEchoedIds) {
  ServerConfig cfg;
  cfg.fluctuate = false;
  cfg.mean_service_time = sim::millis(1);
  const net::HostId server_host = topo.host_id(0, 0, 0);
  const net::HostId client_host = topo.host_id(0, 0, 1);
  make_server(server_host, cfg);
  ProbeClient client(fabric, client_host);

  client.transmit(make_request(client_host, server_host, 77,
                               core::magic_f(core::kMagicResponse),
                               /*rid=*/9, /*rv=*/123));
  sim.run();

  ASSERT_EQ(client.responses.size(), 1u);
  const auto& resp = client.responses[0];
  EXPECT_EQ(resp.src, server_host);
  EXPECT_EQ(resp.dst, client_host);
  EXPECT_EQ(resp.src_port, kServerPort);
  EXPECT_EQ(resp.dst_port, kClientPort);

  const auto rh = core::decode_response(resp.payload);
  ASSERT_TRUE(rh.has_value());
  EXPECT_EQ(rh->rid, 9);   // copied from the request
  EXPECT_EQ(rh->rv, 123);  // retained value echoed
  // MF = f^-1(f(Mresp)) = Mresp.
  EXPECT_EQ(rh->mf, core::kMagicResponse);

  const auto app = decode_app_response(core::response_app_payload(resp.payload));
  ASSERT_TRUE(app.has_value());
  EXPECT_EQ(app->client_request_id, 77u);
  EXPECT_EQ(app->key, 0xDEADu);
  EXPECT_EQ(app->value_bytes, cfg.value_bytes);
  EXPECT_EQ(resp.phantom_payload, cfg.value_bytes);
}

TEST_F(ServerRig, ParallelismBoundsInService) {
  ServerConfig cfg;
  cfg.fluctuate = false;
  cfg.parallelism = 2;
  cfg.mean_service_time = sim::millis(10);
  const net::HostId server_host = topo.host_id(0, 0, 0);
  const net::HostId client_host = topo.host_id(0, 0, 1);
  Server& server = make_server(server_host, cfg);
  ProbeClient client(fabric, client_host);

  for (int i = 0; i < 6; ++i) {
    client.transmit(make_request(client_host, server_host, 100 + i));
  }
  // After delivery (60us), 2 in service + 4 queued.
  sim.run_until(sim::millis(1));
  EXPECT_EQ(server.queue_size(), 6u);
  sim.run();
  EXPECT_EQ(client.responses.size(), 6u);
  EXPECT_EQ(server.served(), 6u);
  EXPECT_EQ(server.queue_size(), 0u);
}

TEST_F(ServerRig, PiggybackedQueueSizeReflectsBacklog) {
  ServerConfig cfg;
  cfg.fluctuate = false;
  cfg.parallelism = 1;
  cfg.mean_service_time = sim::millis(5);
  const net::HostId server_host = topo.host_id(0, 0, 0);
  const net::HostId client_host = topo.host_id(0, 0, 1);
  make_server(server_host, cfg);
  ProbeClient client(fabric, client_host);

  for (int i = 0; i < 4; ++i) {
    client.transmit(make_request(client_host, server_host, i));
  }
  sim.run();
  ASSERT_EQ(client.responses.size(), 4u);
  // The first response left while 3 requests remained; the last left with 0.
  const auto first = core::decode_response(client.responses[0].payload);
  const auto last = core::decode_response(client.responses[3].payload);
  EXPECT_EQ(first->status.queue_size, 3u);
  EXPECT_EQ(last->status.queue_size, 0u);
  // Piggybacked service time is seeded at the configured mean.
  EXPECT_GT(first->status.service_time_ns, 0u);
}

TEST_F(ServerRig, ExponentialServiceRoughlyMatchesMean) {
  ServerConfig cfg;
  cfg.fluctuate = false;
  cfg.parallelism = 1;
  cfg.mean_service_time = sim::millis(2);
  const net::HostId server_host = topo.host_id(1, 0, 0);
  const net::HostId client_host = topo.host_id(1, 0, 1);
  Server& server = make_server(server_host, cfg);
  ProbeClient client(fabric, client_host);

  const int n = 300;
  for (int i = 0; i < n; ++i) {
    client.transmit(make_request(client_host, server_host, i));
  }
  sim.run();
  ASSERT_EQ(client.responses.size(), static_cast<std::size_t>(n));
  // n sequential exponential services with mean 2ms: total ~ n * 2ms.
  const double total_ms = sim::to_millis(sim.now());
  EXPECT_NEAR(total_ms, n * 2.0, n * 2.0 * 0.25);
  EXPECT_GT(server.busy_fraction(sim.now()), 0.9);
}

TEST_F(ServerRig, FluctuationSwitchesServiceMean) {
  ServerConfig cfg;
  cfg.fluctuate = true;
  cfg.fluctuation_interval = sim::millis(50);
  cfg.fluctuation_factor = 3.0;
  cfg.mean_service_time = sim::millis(4);
  const net::HostId server_host = topo.host_id(1, 0, 0);
  Server& server = make_server(server_host, cfg);

  // Sample the mode over many intervals: both modes must appear with
  // roughly equal frequency (bimodal model, d = 3).
  int fast = 0, slow = 0;
  for (int i = 0; i < 400; ++i) {
    sim.run_until(sim.now() + sim::millis(50));
    if (server.current_mean() == sim::millis(4)) {
      ++slow;
    } else {
      EXPECT_EQ(server.current_mean(),
                static_cast<sim::Duration>(sim::millis(4) / 3.0));
      ++fast;
    }
  }
  EXPECT_GT(fast, 120);
  EXPECT_GT(slow, 120);
}

TEST_F(ServerRig, DrsLabelledRequestYieldsMonitorResponse) {
  ServerConfig cfg;
  cfg.fluctuate = false;
  cfg.mean_service_time = sim::millis(1);
  const net::HostId server_host = topo.host_id(0, 0, 0);
  const net::HostId client_host = topo.host_id(0, 0, 1);
  make_server(server_host, cfg);
  ProbeClient client(fabric, client_host);

  client.transmit(make_request(client_host, server_host, 1,
                               core::magic_f(core::kMagicMonitor)));
  sim.run();
  ASSERT_EQ(client.responses.size(), 1u);
  const auto rh = core::decode_response(client.responses[0].payload);
  ASSERT_TRUE(rh.has_value());
  EXPECT_EQ(core::classify(rh->mf), core::PacketKind::kMonitorOnly);
}

}  // namespace
}  // namespace netrs::kv
