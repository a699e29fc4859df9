// Fault-injection tests for the runtime invariant auditor (NETRS_AUDIT
// builds). Each test injects one class of corruption and asserts the
// auditor pins it with the right rule and usable provenance; the final test
// proves a healthy run is violation-free. In plain builds every check
// compiles to a no-op, so the whole suite is skipped.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/host.hpp"
#include "net/switch.hpp"
#include "sim/audit.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace netrs {
namespace {

using sim::AuditSummary;
using sim::AuditViolation;

/// First recorded violation matching `rule`, or nullptr.
const AuditViolation* find_violation(const AuditSummary& s,
                                     const std::string& rule) {
  for (const AuditViolation& v : s.violations) {
    if (v.rule == rule) return &v;
  }
  return nullptr;
}

class SinkHost final : public net::Host {
 public:
  using Host::Host;
  void receive(net::Packet pkt, net::NodeId) override {
    received.push_back(std::move(pkt));
  }
  void transmit(net::Packet pkt) { send(std::move(pkt)); }

  std::vector<net::Packet> received;
};

struct FabricRig {
  sim::ShardGroup group{1};
  net::FatTree topo{4};
  net::Fabric fabric{group, topo, net::FabricConfig{}};
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::vector<std::unique_ptr<SinkHost>> hosts;

  FabricRig() {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    for (net::HostId h = 0; h < topo.host_count(); ++h) {
      hosts.push_back(std::make_unique<SinkHost>(fabric, h));
    }
  }

  net::Packet make_packet(net::HostId src, net::HostId dst) {
    net::Packet p;
    p.src = src;
    p.dst = dst;
    p.src_port = 9000;
    p.dst_port = 7000;
    p.payload.resize(32);
    return p;
  }
};

#define SKIP_WITHOUT_AUDIT()                                             \
  if constexpr (!sim::kAuditEnabled) {                                   \
    GTEST_SKIP() << "auditor compiled out; configure -DNETRS_AUDIT=ON";  \
  }

TEST(AuditTest, ScheduleIntoPastIsDetectedWithProvenance) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator sim;
  bool fired = false;
  sim.at(sim::millis(1), [&] {
    // Deliberate causality fault: target time is behind now().
    sim.at(sim::micros(1), [&] { fired = true; });
  });
  sim.run();
  const AuditSummary s = sim.auditor().summary();
  EXPECT_EQ(s.violations_total, 1u);
  const AuditViolation* v = find_violation(s, "schedule-into-past");
  ASSERT_NE(v, nullptr);
  // Provenance carries both the bogus target and the current clock.
  EXPECT_NE(v->detail.find("t=1000"), std::string::npos) << v->detail;
  EXPECT_NE(v->detail.find("now=1000000"), std::string::npos) << v->detail;
  EXPECT_EQ(v->when, sim::millis(1));
  // Observation-only: the event still fires (clamped to now).
  EXPECT_TRUE(fired);
}

TEST(AuditTest, NegativeDelayIsDetected) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator sim;
  bool fired = false;
  sim.after(-5, [&] { fired = true; });
  sim.run();
  const AuditSummary s = sim.auditor().summary();
  EXPECT_NE(find_violation(s, "schedule-into-past"), nullptr);
  EXPECT_TRUE(fired);
}

TEST(AuditTest, LaneOrderViolationIsDetectedWithProvenance) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator sim;
  std::vector<std::uint32_t> fired;
  std::vector<sim::Time> fired_at;
  struct Ctx {
    sim::Simulator* sim;
    std::vector<std::uint32_t>* fired;
    std::vector<sim::Time>* at;
  } ctx{&sim, &fired, &fired_at};
  const sim::LaneId lane = sim.add_lane(
      [](void* p, std::uint32_t token) {
        auto* c = static_cast<Ctx*>(p);
        c->fired->push_back(token);
        c->at->push_back(c->sim->now());
      },
      &ctx);
  sim.after_lane(lane, sim::micros(30), 1);
  // Deliberate fault: a shorter delay on the same lane goes back in time
  // behind the lane's pending event.
  sim.after_lane(lane, sim::micros(10), 2);
  sim.run();
  const AuditSummary s = sim.auditor().summary();
  EXPECT_EQ(s.violations_total, 1u);
  const AuditViolation* v = find_violation(s, "lane-order");
  ASSERT_NE(v, nullptr);
  // Provenance names the bogus time and the lane's latest pending time.
  EXPECT_NE(v->detail.find("t=10000"), std::string::npos) << v->detail;
  EXPECT_NE(v->detail.find("t=30000"), std::string::npos) << v->detail;
  // Observation-only: both events fire, the late one clamped in order.
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(fired_at,
            (std::vector<sim::Time>{sim::micros(30), sim::micros(30)}));
}

TEST(AuditTest, LeakedDeliveryIsDetectedAtFinalize) {
  SKIP_WITHOUT_AUDIT();
  FabricRig rig;
  const net::HostId src = rig.topo.host_id(0, 0, 0);
  const net::HostId dst = rig.topo.host_id(0, 0, 1);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  // Fault: finalize while the delivery event is still queued — the packet
  // is still on its link lane.
  rig.fabric.audit_finalize(/*expect_drained=*/true);
  const AuditSummary s = rig.fabric.simulator().auditor().summary();
  const AuditViolation* v = find_violation(s, "packet-leak");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("fabric-delivery"), std::string::npos) << v->detail;
  // Provenance names the packet.
  EXPECT_NE(v->detail.find("src=" + std::to_string(src)), std::string::npos)
      << v->detail;
  EXPECT_EQ(s.packets_injected, 1u);
  EXPECT_EQ(s.packets_delivered, 0u);
}

// k = 4 over four shards: pod p lives on shard p and core group 0 on
// shard 0, so aggregation switch 0 of pods 1-3 each cross a shard boundary
// to reach core switch (0, 0).
TEST(AuditTest, CrossShardLeaksAreDetectedAtFinalize) {
  SKIP_WITHOUT_AUDIT();
  sim::ShardGroup group{4};
  net::FatTree topo{4};
  net::Fabric fabric{group, topo, net::FabricConfig{}};
  struct NullNode final : net::Node {
    void receive(net::Packet, net::NodeId) override {}
  } sink;
  const net::NodeId core = topo.core_node(0, 0);
  fabric.attach(core, &sink);
  auto cross = [&](int pod, net::HostId tag) {
    net::Packet p;
    p.src = tag;
    fabric.send(topo.agg_node(pod, 0), core, std::move(p));
  };
  // Sent at 0, arriving at 30 us: the windows up to 5 us move it onto the
  // core's arrivals from shard 1 but cannot park it yet.
  cross(1, 101);
  group.run_until(sim::micros(5));
  // Sent at 5 us, arriving at 35 us: a drain bounded at 31 us moves it
  // onto the arrivals from shard 2 and parks the first one, and the group
  // never runs the window that would deliver it.
  cross(2, 102);
  group.testing_drain(0, sim::micros(31));
  // Sent at 5 us and left in the (0, 3) lane.
  cross(3, 103);
  ASSERT_EQ(fabric.deliveries_in_flight(), 3u);

  fabric.audit_finalize(/*expect_drained=*/true);
  const AuditSummary s = fabric.merged_audit_summary();
  std::vector<std::string> leaks;
  for (const AuditViolation& v : s.violations) {
    EXPECT_EQ(v.rule, "packet-leak") << v.detail;
    leaks.push_back(v.detail);
  }
  ASSERT_EQ(leaks.size(), 3u);
  for (const int tag : {101, 102, 103}) {
    const std::string src = "src=" + std::to_string(tag) + " ";
    int found = 0;
    for (const std::string& d : leaks) {
      if (d.find(src) == std::string::npos) continue;
      ++found;
      EXPECT_NE(d.find("fabric-delivery"), std::string::npos) << d;
    }
    EXPECT_EQ(found, 1) << src;
  }
  // Every leak is still counted in flight, so the identity balances.
  EXPECT_EQ(s.packets_injected, 3u);
  EXPECT_EQ(s.packets_delivered, 0u);
}

TEST(AuditTest, QueueAccountingMismatchIsDetected) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator sim;
  sim::StationLedger ledger;
  ledger.set_name("test-station");
  ledger.on_enqueue(sim.auditor(), 1);  // consistent: 1 enqueued, depth 1
  // Fault: report a dequeue but claim the depth never dropped.
  ledger.on_dequeue(sim.auditor(), 1);
  const AuditSummary s = sim.auditor().summary();
  const AuditViolation* v = find_violation(s, "queue-accounting");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("test-station"), std::string::npos) << v->detail;
}

TEST(AuditTest, ServiceSlotBoundsAreDetected) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator sim;
  sim::StationLedger ledger;
  ledger.set_name("test-station");
  ledger.on_service_start(sim.auditor(), /*busy_after=*/3, /*capacity=*/2);
  ledger.on_service_finish(sim.auditor(), /*busy_after=*/-1, /*capacity=*/2);
  const AuditSummary s = sim.auditor().summary();
  EXPECT_NE(find_violation(s, "service-slot-overflow"), nullptr);
  EXPECT_NE(find_violation(s, "service-slot-underflow"), nullptr);
}

TEST(AuditTest, BusyTimeBeyondCapacityIsDetected) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator sim;
  sim::StationLedger ledger;
  ledger.set_name("test-station");
  // 2 cores over a 1 ms window can accrue at most 2 ms of busy core-time.
  ledger.check_busy_time(sim.auditor(), /*busy=*/sim::millis(3),
                         /*window=*/sim::millis(1), /*cores=*/2);
  const AuditSummary s = sim.auditor().summary();
  ASSERT_NE(find_violation(s, "busy-time-overflow"), nullptr);
}

TEST(AuditTest, HealthyRunIsViolationFree) {
  SKIP_WITHOUT_AUDIT();
  FabricRig rig;
  const net::HostId src = rig.topo.host_id(0, 0, 0);
  const net::HostId dst = rig.topo.host_id(3, 1, 1);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.fabric.simulator().run();
  rig.fabric.audit_finalize(/*expect_drained=*/true);
  const AuditSummary s = rig.fabric.simulator().auditor().summary();
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.violations_total, 0u);
  EXPECT_GT(s.checks, 0u);
  // The ledger counts per-hop sends: the cross-pod path traverses 2 host
  // links + 4 switch links, and conservation holds hop by hop.
  EXPECT_EQ(s.packets_injected, 6u);
  EXPECT_EQ(s.packets_delivered, 6u);
  EXPECT_EQ(s.packets_in_flight_at_end, 0u);
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
}

TEST(AuditTest, SummaryMergeAggregatesAcrossRuns) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator a;
  a.auditor().on_packet_injected();
  a.auditor().on_packet_dropped("server-malformed");
  a.auditor().record("packet-leak", "slot 1");
  sim::Simulator b;
  b.auditor().on_packet_injected();
  b.auditor().on_packet_delivered();
  b.auditor().on_packet_dropped("server-malformed");

  AuditSummary merged = a.auditor().summary();
  merged.merge(b.auditor().summary());
  EXPECT_EQ(merged.packets_injected, 2u);
  EXPECT_EQ(merged.packets_delivered, 1u);
  EXPECT_EQ(merged.violations_total, 1u);
  EXPECT_EQ(merged.drops_by_reason.at("server-malformed"), 2u);
}

}  // namespace
}  // namespace netrs
