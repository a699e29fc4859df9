// Shared accelerators (§III-B): one physical accelerator cabled to several
// switches, pooling cores, queue and selector state.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/switch.hpp"
#include "netrs/accelerator.hpp"
#include "netrs/packet_format.hpp"

namespace netrs::core {
namespace {

class SharedAccelRig : public ::testing::Test {
 protected:
  SharedAccelRig() : topo(4), fabric(group, topo, net::FabricConfig{}) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
  }

  net::Packet netrs_request() {
    RequestHeader rh;
    rh.mf = kMagicRequest;
    net::Packet p;
    p.src = 0;
    p.dst = 1;
    p.payload = encode_request(rh, {});
    return p;
  }

  sim::ShardGroup group{1};
  sim::Simulator& sim = group.global_sim();
  net::FatTree topo;
  net::Fabric fabric;
  std::vector<std::unique_ptr<net::Switch>> switches;
};

TEST_F(SharedAccelRig, AttachSwitchIsIdempotent) {
  Accelerator accel(fabric, topo.core_node(0, 0), AcceleratorConfig{});
  const net::NodeId aux0 = accel.node_id();
  EXPECT_EQ(accel.attach_switch(topo.core_node(0, 0)), aux0);
  const net::NodeId aux1 = accel.attach_switch(topo.core_node(0, 1));
  EXPECT_NE(aux1, aux0);
  EXPECT_EQ(accel.attach_switch(topo.core_node(0, 1)), aux1);
  EXPECT_EQ(accel.attach_switch(topo.core_node(0, 0)), aux0);
  // Both cables carry packets into the one accelerator.
  std::vector<net::HostId> senders;
  accel.set_handler([&](net::Packet pkt) {
    senders.push_back(pkt.src);
    return std::nullopt;
  });
  net::Packet via_a = netrs_request();
  via_a.src = 10;
  net::Packet via_b = netrs_request();
  via_b.src = 11;
  fabric.send(topo.core_node(0, 0), aux0, std::move(via_a));
  fabric.send(topo.core_node(0, 1), aux1, std::move(via_b));
  sim.run();
  EXPECT_EQ(senders, (std::vector<net::HostId>{10, 11}));
}

TEST_F(SharedAccelRig, ZeroCoresAreRejected) {
  // Release builds compile asserts out, so a 0-core accelerator used to
  // divide its utilization by zero.
  AcceleratorConfig cfg;
  cfg.cores = 0;
  EXPECT_THROW(Accelerator(fabric, topo.core_node(0, 0), cfg),
               std::invalid_argument);
}

TEST_F(SharedAccelRig, RepliesReturnToTheOriginSwitch) {
  // Consume the packets at the switches via a consuming stage to observe
  // which switch got the accelerator's reply.
  class CaptureStage final : public net::Switch::IngressStage {
   public:
    net::Switch::Disposition on_ingress(net::Packet& pkt, net::NodeId from,
                                        net::Switch& sw) override {
      (void)pkt;
      (void)from;
      hits.push_back(sw.id());
      return net::Switch::Consumed{};
    }
    std::vector<net::NodeId> hits;
  };

  const net::NodeId sw_a = topo.core_node(0, 0);
  const net::NodeId sw_b = topo.core_node(0, 1);
  Accelerator accel(fabric, sw_a, AcceleratorConfig{});
  const net::NodeId aux_b = accel.attach_switch(sw_b);
  int handled = 0;
  accel.set_handler([&handled](net::Packet pkt) {  // echo
    ++handled;
    return std::optional<net::Packet>(pkt);
  });

  CaptureStage cap_a, cap_b;
  switches[sw_a]->add_ingress_stage(&cap_a);
  switches[sw_b]->add_ingress_stage(&cap_b);

  fabric.send(sw_a, accel.node_id(), netrs_request());
  fabric.send(sw_b, aux_b, netrs_request());
  sim.run();

  EXPECT_EQ(cap_a.hits.size(), 1u);
  EXPECT_EQ(cap_b.hits.size(), 1u);
  EXPECT_EQ(handled, 2);
}

TEST_F(SharedAccelRig, CoresAreSharedAcrossSwitches) {
  // One core, 5us service: 10 packets from two switches serialize to
  // ~50us of accelerator busy time regardless of ingress switch.
  const net::NodeId sw_a = topo.core_node(0, 0);
  const net::NodeId sw_b = topo.core_node(0, 1);
  AcceleratorConfig cfg;
  cfg.cores = 1;
  cfg.request_service_time = sim::micros(5);
  Accelerator accel(fabric, sw_a, cfg);
  const net::NodeId aux_b = accel.attach_switch(sw_b);
  int handled = 0;
  sim::Time last_done = 0;
  accel.set_handler([&](net::Packet) {
    ++handled;
    last_done = sim.now();
    return std::nullopt;
  });
  for (int i = 0; i < 5; ++i) {
    fabric.send(sw_a, accel.node_id(), netrs_request());
    fabric.send(sw_b, aux_b, netrs_request());
  }
  sim.run();
  EXPECT_EQ(handled, 10);
  // Link 1.25us + 10 serialized 5us services.
  EXPECT_EQ(last_done, sim::micros(1.25) + 10 * sim::micros(5));
}

TEST_F(SharedAccelRig, MultiCoreProcessesInParallel) {
  const net::NodeId sw = topo.core_node(1, 0);
  AcceleratorConfig cfg;
  cfg.cores = 4;
  cfg.request_service_time = sim::micros(5);
  Accelerator accel(fabric, sw, cfg);
  sim::Time last_done = 0;
  accel.set_handler([&](net::Packet) {
    last_done = sim.now();
    return std::nullopt;
  });
  for (int i = 0; i < 4; ++i) {
    fabric.send(sw, accel.node_id(), netrs_request());
  }
  sim.run();
  // All four served concurrently: one link + one service.
  EXPECT_EQ(last_done, sim::micros(1.25) + sim::micros(5));
}

TEST_F(SharedAccelRig, UtilizationCountsOnlyElapsedServiceTime) {
  // Regression: the full service duration used to be charged up front at
  // service *start*, so a query mid-service reported busy time from the
  // future (here: 10us charged after 1us of service -> utilization 4.4).
  const net::NodeId sw = topo.core_node(0, 0);
  AcceleratorConfig cfg;
  cfg.cores = 1;
  cfg.request_service_time = sim::micros(10);
  Accelerator accel(fabric, sw, cfg);
  accel.set_handler([](net::Packet) { return std::nullopt; });
  fabric.send(sw, accel.node_id(), netrs_request());

  // Packet arrives after the 1.25us link; service runs [1.25us, 11.25us].
  sim.run_until(sim::micros(2.25));
  const double mid = accel.utilization(sim.now());
  EXPECT_LE(mid, 1.0);
  EXPECT_NEAR(mid, 1.0 / 2.25, 1e-9);

  sim.run();
  // 10us busy over 11.25us elapsed.
  EXPECT_NEAR(accel.utilization(sim.now()), 10.0 / 11.25, 1e-9);
}

TEST_F(SharedAccelRig, UtilizationResetMidServiceSplitsBusyTime) {
  // Regression: reset_utilization() mid-service used to lose the whole
  // service (it was charged to the old window at start), reporting an
  // idle accelerator for a window it spent 100% busy — and conversely a
  // service *starting* late in a window could push utilization above 1.
  const net::NodeId sw = topo.core_node(0, 1);
  AcceleratorConfig cfg;
  cfg.cores = 1;
  cfg.request_service_time = sim::micros(10);
  Accelerator accel(fabric, sw, cfg);
  accel.set_handler([](net::Packet) { return std::nullopt; });
  fabric.send(sw, accel.node_id(), netrs_request());

  // Reset halfway through the [1.25us, 11.25us] service.
  sim.run_until(sim::micros(6.25));
  accel.reset_utilization(sim.now());
  EXPECT_DOUBLE_EQ(accel.utilization(sim.now()), 0.0);

  sim.run();
  // New window [6.25us, 11.25us] was fully busy: exactly 1.0, not 0, and
  // never above 1.
  EXPECT_DOUBLE_EQ(accel.utilization(sim.now()), 1.0);
  EXPECT_NEAR(accel.utilization(sim.now() + sim::micros(5)), 0.5, 1e-9);
}

TEST_F(SharedAccelRig, UtilizationNeverExceedsOne) {
  // Saturate one core with back-to-back services and probe across resets:
  // the ratio must stay within [0, 1] at every instant.
  const net::NodeId sw = topo.core_node(1, 0);
  AcceleratorConfig cfg;
  cfg.cores = 1;
  cfg.request_service_time = sim::micros(10);
  Accelerator accel(fabric, sw, cfg);
  accel.set_handler([](net::Packet) { return std::nullopt; });
  for (int i = 0; i < 3; ++i) {
    fabric.send(sw, accel.node_id(), netrs_request());
  }
  for (double t_us : {2.0, 7.0, 13.0, 21.0, 29.0, 35.0}) {
    sim.run_until(sim::micros(t_us));
    const double u = accel.utilization(sim.now());
    EXPECT_GE(u, 0.0) << "t=" << t_us;
    EXPECT_LE(u, 1.0 + 1e-12) << "t=" << t_us;
    if (t_us == 13.0) accel.reset_utilization(sim.now());
  }
}

TEST_F(SharedAccelRig, UtilizationTracksBusyCores) {
  const net::NodeId sw = topo.core_node(1, 1);
  AcceleratorConfig cfg;
  cfg.cores = 2;
  cfg.request_service_time = sim::micros(10);
  Accelerator accel(fabric, sw, cfg);
  accel.set_handler([](net::Packet) { return std::nullopt; });
  for (int i = 0; i < 4; ++i) {
    fabric.send(sw, accel.node_id(), netrs_request());
  }
  sim.run();
  // 4 * 10us of work over 2 cores within ~21.25us elapsed: ~94%.
  EXPECT_NEAR(accel.utilization(sim.now()), 0.94, 0.06);
  accel.reset_utilization(sim.now());
  EXPECT_DOUBLE_EQ(accel.utilization(sim.now() + sim::micros(5)), 0.0);
}

}  // namespace
}  // namespace netrs::core
