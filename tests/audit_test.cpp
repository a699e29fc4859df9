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

TEST(AuditTest, LeakedDeliveryIsDetectedAtFinalize) {
  SKIP_WITHOUT_AUDIT();
  FabricRig rig;
  const net::HostId src = rig.topo.host_id(0, 0, 0);
  const net::HostId dst = rig.topo.host_id(0, 0, 1);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  // Fault: finalize while the delivery event is still queued — the parked
  // slot was never released.
  rig.fabric.audit_finalize(/*expect_drained=*/true);
  const AuditSummary s = rig.fabric.simulator().auditor().summary();
  const AuditViolation* v = find_violation(s, "packet-leak");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("fabric-delivery"), std::string::npos) << v->detail;
  // Per-slot provenance names the packet.
  EXPECT_NE(v->detail.find("src=" + std::to_string(src)), std::string::npos)
      << v->detail;
  EXPECT_EQ(s.packets_injected, 1u);
  EXPECT_EQ(s.packets_delivered, 0u);
}

TEST(AuditTest, DoubleDeliveryIsDetected) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator sim;
  sim::SlotLedger ledger;
  ledger.set_name("test-pool");
  ledger.on_park(sim.auditor(), 3, [] { return std::string("pkt A"); });
  ledger.on_release(sim.auditor(), 3);
  // Fault: the same slot released again without a park in between.
  ledger.on_release(sim.auditor(), 3);
  const AuditSummary s = sim.auditor().summary();
  const AuditViolation* v = find_violation(s, "double-delivery");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("test-pool"), std::string::npos) << v->detail;
}

TEST(AuditTest, DoubleParkIsDetected) {
  SKIP_WITHOUT_AUDIT();
  sim::Simulator sim;
  sim::SlotLedger ledger;
  ledger.set_name("test-pool");
  ledger.on_park(sim.auditor(), 7, [] { return std::string("pkt A"); });
  // Fault: slot reused while still parked.
  ledger.on_park(sim.auditor(), 7, [] { return std::string("pkt B"); });
  const AuditSummary s = sim.auditor().summary();
  ASSERT_NE(find_violation(s, "double-park"), nullptr);
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
