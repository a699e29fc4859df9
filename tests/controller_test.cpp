// NetRS controller tests: statistics collection, RSP computation and
// deployment, and the §III-C exception handling (operator failure /
// overload -> Degraded Replica Selection).
#include "netrs/controller.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/switch.hpp"
#include "rs/baselines.hpp"

namespace netrs::core {
namespace {

class ControllerRig : public ::testing::Test {
 protected:
  ControllerRig()
      : topo(4),
        fabric(group, topo, net::FabricConfig{}),
        groups(topo, GroupGranularity::kRack) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    // 4 servers spread over pods, 6 clients elsewhere.
    server_hosts = {topo.host_id(0, 0, 0), topo.host_id(1, 0, 0),
                    topo.host_id(2, 1, 0), topo.host_id(3, 1, 1)};
    client_hosts = {topo.host_id(0, 0, 1), topo.host_id(0, 1, 0),
                    topo.host_id(1, 1, 0), topo.host_id(2, 0, 0),
                    topo.host_id(3, 0, 0), topo.host_id(1, 0, 1)};
    ring = std::make_unique<kv::ConsistentHashRing>(server_hosts, 3, 8);
    zipf = std::make_unique<sim::ZipfDistribution>(10000, 0.99);

    auto directory = std::make_shared<RsNodeDirectory>();
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      (*directory)[static_cast<RsNodeId>(sw + 1)] = sw;
    }
    auto bootstrap = std::make_shared<const GroupRidTable>(
        groups.group_count(), kRidIllegal);
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      operators.push_back(std::make_unique<NetRSOperator>(
          fabric, *switches[sw], static_cast<RsNodeId>(sw + 1),
          AcceleratorConfig{}, directory, ring->groups(),
          [this, sw] {
            return std::make_unique<rs::LeastOutstandingSelector>(
                sim::Rng(sw), fabric.simulator());
          },
          &groups, bootstrap));
    }

    kv::ServerConfig scfg;
    scfg.fluctuate = false;
    scfg.mean_service_time = sim::micros(500);
    for (net::HostId h : server_hosts) {
      servers.push_back(
          std::make_unique<kv::Server>(fabric, h, scfg, sim::Rng(h)));
    }
    kv::ClientConfig ccfg;
    ccfg.mode = kv::ClientMode::kNetRS;
    ccfg.arrival_rate = 2000.0;
    for (net::HostId h : client_hosts) {
      clients.push_back(std::make_unique<kv::Client>(
          fabric, h, ccfg, *ring, *zipf, sim::Rng(1000 + h)));
    }
  }

  Controller& make_controller(ControllerConfig cfg) {
    std::vector<NetRSOperator*> ptrs;
    for (auto& op : operators) ptrs.push_back(op.get());
    controller = std::make_unique<Controller>(sim, topo, groups,
                                              std::move(ptrs), cfg);
    return *controller;
  }

  void run_traffic(sim::Duration d) {
    for (auto& c : clients) c->start();
    sim.run_until(sim.now() + d);
    for (auto& c : clients) c->stop();
    sim.run_until(sim.now() + sim::millis(20));
  }

  std::uint64_t total_completed() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->completed();
    return n;
  }

  sim::ShardGroup group{1};
  sim::Simulator& sim = group.global_sim();
  net::FatTree topo;
  net::Fabric fabric;
  TrafficGroups groups;
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::vector<std::unique_ptr<NetRSOperator>> operators;
  std::vector<net::HostId> server_hosts;
  std::vector<net::HostId> client_hosts;
  std::unique_ptr<kv::ConsistentHashRing> ring;
  std::unique_ptr<sim::ZipfDistribution> zipf;
  std::vector<std::unique_ptr<kv::Server>> servers;
  std::vector<std::unique_ptr<kv::Client>> clients;
  std::unique_ptr<Controller> controller;
};

TEST_F(ControllerRig, BootstrapInstallsTorPlanForAllGroups) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kIlp;
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  EXPECT_EQ(ctrl.plans_deployed(), 1u);
  EXPECT_EQ(ctrl.current_plan().method, "tor");
  // Every group got its rack's ToR.
  EXPECT_EQ(ctrl.current_plan().assignment.size(), groups.group_count());
  EXPECT_EQ(ctrl.active_rsnodes(), topo.racks());
}

TEST_F(ControllerRig, TorModeServesTrafficThroughTorRsnodes) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kTor;
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  run_traffic(sim::millis(300));
  EXPECT_GT(total_completed(), 1000u);
  // Selection happened on ToR operators only.
  for (auto& op : operators) {
    if (op->tier() != net::Tier::kTor) {
      EXPECT_EQ(op->selector_node().requests_selected(), 0u);
    }
  }
  EXPECT_EQ(ctrl.current_plan().method, "tor");
}

TEST_F(ControllerRig, IlpModeConsolidatesAfterStats) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kIlp;
  cfg.replan_interval = sim::millis(100);
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  run_traffic(sim::millis(500));
  EXPECT_GE(ctrl.plans_deployed(), 2u);
  EXPECT_NE(ctrl.current_plan().method, "tor");
  // Consolidation: fewer RSNodes than client racks.
  EXPECT_LT(ctrl.active_rsnodes(), 6);
  EXPECT_GE(ctrl.active_rsnodes(), 1);
  EXPECT_GT(total_completed(), 1000u);
  // All in-network selections are accounted for by active RSNodes.
  std::uint64_t selected = 0;
  for (auto& op : operators) {
    selected += op->selector_node().requests_selected();
  }
  EXPECT_GT(selected, 0u);
}

TEST_F(ControllerRig, BuildProblemReflectsObservedRates) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kIlp;
  cfg.replan_interval = sim::millis(100);
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  run_traffic(sim::millis(400));
  const PlacementProblem p = ctrl.build_problem();
  // Aggregate observed rate should be near the configured 6 * 2000 req/s.
  double total = 0.0;
  for (const auto& g : p.groups) total += g.total();
  EXPECT_NEAR(total, 12000.0, 6000.0);
  EXPECT_EQ(p.operators.size(), operators.size());
  EXPECT_GT(p.extra_hop_budget, 0.0);
}

TEST_F(ControllerRig, FailedOperatorDegradesItsGroupsImmediately) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kTor;
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  const auto plan_before = ctrl.current_plan();
  // Fail the ToR RSNode of the first client's rack.
  const net::NodeId tor = topo.host_tor(client_hosts[0]);
  const RsNodeId failed_rid = static_cast<RsNodeId>(tor + 1);
  ctrl.fail_operator(failed_rid);

  const auto& plan_after = ctrl.current_plan();
  EXPECT_LT(plan_after.assignment.size(), plan_before.assignment.size());
  EXPECT_FALSE(plan_after.drs_groups.empty());
  for (const auto& [g, rid] : plan_after.assignment) {
    (void)g;
    EXPECT_NE(rid, failed_rid);
  }

  // Traffic still completes (degraded requests go to client backups).
  run_traffic(sim::millis(200));
  EXPECT_GT(total_completed(), 500u);
  EXPECT_EQ(operators[tor]->selector_node().requests_selected(), 0u);
}

TEST_F(ControllerRig, RestoredOperatorReturnsOnNextPlan) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kTor;
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  const net::NodeId tor = topo.host_tor(client_hosts[0]);
  const RsNodeId rid = static_cast<RsNodeId>(tor + 1);
  ctrl.fail_operator(rid);
  ctrl.restore_operator(rid);
  ctrl.replan_now();
  bool used = false;
  for (const auto& [g, r] : ctrl.current_plan().assignment) {
    (void)g;
    used |= r == rid;
  }
  EXPECT_TRUE(used);
}

TEST_F(ControllerRig, OverloadTriggersDegradation) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kTor;
  cfg.replan_interval = sim::millis(50);
  cfg.overload_utilization = 0.0;  // any activity counts as overload
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  run_traffic(sim::millis(300));
  // Every active ToR RSNode saw traffic, so all were "overloaded" and
  // degraded; the plan must have shrunk.
  EXPECT_LT(static_cast<int>(ctrl.current_plan().assignment.size()),
            static_cast<int>(groups.group_count()));
  EXPECT_GT(total_completed(), 100u);  // DRS kept the system alive
}

TEST_F(ControllerRig, PlanChangeHookObservesDeployments) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kIlp;
  cfg.replan_interval = sim::millis(100);
  int calls = 0;
  int last_rsnodes = -1;
  cfg.on_plan_change = [&](const PlacementResult& plan) {
    ++calls;
    last_rsnodes = plan.rsnodes_used;
  };
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  run_traffic(sim::millis(400));
  EXPECT_GE(calls, 2);
  EXPECT_EQ(last_rsnodes, ctrl.active_rsnodes());
}

TEST_F(ControllerRig, RsnodeCountStableAcrossReplansUnderStableLoad) {
  ControllerConfig cfg;
  cfg.mode = PlanMode::kIlp;
  cfg.replan_interval = sim::millis(50);
  cfg.rsp_update_interval = sim::millis(100);
  Controller& ctrl = make_controller(cfg);
  ctrl.start();
  for (auto& c : clients) c->start();
  sim.run_until(sim::millis(300));
  const int count_early = ctrl.active_rsnodes();
  sim.run_until(sim::millis(800));
  const int count_late = ctrl.active_rsnodes();
  for (auto& c : clients) c->stop();
  sim.run_until(sim.now() + sim::millis(20));
  // Stable workload -> stable consolidated plan (within one RSNode).
  EXPECT_NEAR(count_early, count_late, 1.0);
}

}  // namespace
}  // namespace netrs::core
