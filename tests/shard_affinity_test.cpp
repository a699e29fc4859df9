// Runtime half of the shard-affinity analyzer (DESIGN.md §7.3): every
// Node / kv::Server / Simulator is bound to its owning shard when the
// sharded Fabric wires up, and audit builds (-DNETRS_AUDIT=ON) verify on
// the hot paths that the calling thread context matches. Violations are
// *recorded* with owner/actor provenance, never thrown — the audited run
// must stay bit-identical to the plain build.
//
// Covered here:
//   - three injected ownership faults, each caught with provenance:
//       (1) a worker-thread context touching a foreign shard's server,
//       (2) a foreign simulator_for() handle plus a schedule through it,
//       (3) the coordinator touching shard-local state mid-window;
//   - a clean sharded run records zero affinity violations;
//   - golden digests at shards {1,4} x jobs {1,4} equal the pinned
//     serial-core values in BOTH plain and audit builds, proving the
//     guard machinery is behaviorally invisible compiled in or out.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "golden.hpp"
#include "harness/experiment.hpp"
#include "kv/server.hpp"
#include "net/fabric.hpp"
#include "net/fat_tree.hpp"
#include "sim/affinity.hpp"
#include "sim/audit.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"

namespace netrs::harness {
namespace {

// --- Injection rig ---------------------------------------------------------

// A sharded 4-pod fabric with one kv::Server per pod-0 and pod-1 rack
// head. Construction runs in coordinator context between windows, which
// the guard sanctions, so a fresh rig starts violation-free.
struct AffinityRig {
  AffinityRig()
      : group(4, sim::micros(30)), topo(4), fabric(group, topo, net::FabricConfig{}) {
    for (int pod : {0, 1}) {
      const net::HostId h = topo.host_id(pod, 0, 0);
      servers.push_back(std::make_unique<kv::Server>(
          fabric, h, kv::ServerConfig{}, sim::Rng(h)));
    }
  }

  [[nodiscard]] std::vector<sim::AuditViolation> violations(
      const char* rule) const {
    std::vector<sim::AuditViolation> out;
    for (const sim::AuditViolation& v : fabric.merged_audit_summary().violations) {
      if (v.rule == rule) out.push_back(v);
    }
    return out;
  }

  sim::ShardGroup group;
  net::FatTree topo;
  net::Fabric fabric;
  std::vector<std::unique_ptr<kv::Server>> servers;
};

TEST(ShardAffinityTest, CleanConstructionRecordsNoViolations) {
  if constexpr (!sim::kAuditEnabled) {
    GTEST_SKIP() << "auditor compiled out; configure -DNETRS_AUDIT=ON";
  }
  AffinityRig rig;
  // Coordinator access between windows is the sanctioned setup pattern.
  (void)rig.servers[0]->queue_size();
  (void)rig.fabric.simulator_for(rig.topo.host_node(rig.topo.host_id(0, 0, 0)));
  EXPECT_EQ(rig.fabric.merged_audit_summary().violations_total, 0u);
}

// Injection (1): a thread claiming shard 1's context writes to a server
// owned by shard 0. The guard names the actor, the owner, and the op.
TEST(ShardAffinityTest, CrossShardServerWriteIsCaughtWithProvenance) {
  if constexpr (!sim::kAuditEnabled) {
    GTEST_SKIP() << "auditor compiled out; configure -DNETRS_AUDIT=ON";
  }
  AffinityRig rig;
  kv::Server& victim = *rig.servers[0];  // pod 0 => shard 0
  net::Packet pkt;
  pkt.dst = victim.host_id();
  {
    sim::ScopedShardContext ctx(1);  // masquerade as shard 1's worker
    victim.receive(pkt, net::kInvalidNode);
  }
  const auto hits = rig.violations("shard-affinity");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].detail.find("receive by shard 1"), std::string::npos)
      << hits[0].detail;
  EXPECT_NE(hits[0].detail.find("owned by shard 0"), std::string::npos)
      << hits[0].detail;
  EXPECT_NE(hits[0].detail.find("between windows"), std::string::npos)
      << hits[0].detail;
}

// Injection (2): a foreign worker asks the fabric for another shard's
// simulator handle, then schedules through it. Both the hand-out and the
// schedule are caught independently (satellite fix: simulator_for used to
// hand the foreign handle over silently).
TEST(ShardAffinityTest, ForeignSimulatorHandleAndScheduleAreCaught) {
  if constexpr (!sim::kAuditEnabled) {
    GTEST_SKIP() << "auditor compiled out; configure -DNETRS_AUDIT=ON";
  }
  AffinityRig rig;
  const net::NodeId node0 = rig.topo.host_node(rig.topo.host_id(0, 0, 0));
  {
    sim::ScopedShardContext ctx(1);
    sim::Simulator& foreign = rig.fabric.simulator_for(node0);  // shard 0's
    foreign.after(sim::micros(1), [] {});
  }
  const auto handles = rig.violations("foreign-simulator-handle");
  ASSERT_EQ(handles.size(), 1u);
  EXPECT_NE(handles[0].detail.find("requested by shard 1"), std::string::npos)
      << handles[0].detail;
  EXPECT_NE(handles[0].detail.find("lives on shard 0"), std::string::npos)
      << handles[0].detail;

  const auto schedules = rig.violations("shard-affinity");
  ASSERT_EQ(schedules.size(), 1u);
  EXPECT_NE(schedules[0].detail.find("schedule by shard 1"), std::string::npos)
      << schedules[0].detail;
  EXPECT_NE(schedules[0].detail.find("owned by shard 0"), std::string::npos)
      << schedules[0].detail;
}

// Injection (3): the coordinator touches shard-local state while a shard
// window is running — legal only between windows. testing_set_window_active
// fakes the mid-window state without spinning up workers.
TEST(ShardAffinityTest, CoordinatorAccessDuringWindowIsCaught) {
  if constexpr (!sim::kAuditEnabled) {
    GTEST_SKIP() << "auditor compiled out; configure -DNETRS_AUDIT=ON";
  }
  AffinityRig rig;
  rig.group.testing_set_window_active(true);
  (void)rig.servers[1]->queue_size();  // pod 1 => shard 1, coordinator ctx
  rig.group.testing_set_window_active(false);
  const auto hits = rig.violations("shard-affinity");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].detail.find("queue_size by the coordinator"),
            std::string::npos)
      << hits[0].detail;
  EXPECT_NE(hits[0].detail.find("owned by shard 1"), std::string::npos)
      << hits[0].detail;
  EXPECT_NE(
      hits[0].detail.find("coordinator access during an active shard window"),
      std::string::npos)
      << hits[0].detail;
}

// --- Digest invariance -----------------------------------------------------

// Runs in BOTH plain and audit builds: the pinned NetRS-ToR digest is the
// recorded serial-core value (golden.hpp), so matching it here under
// -DNETRS_AUDIT=ON proves the affinity guard (bind + per-access checks +
// the simulator_for audit hook) perturbs nothing, and matching it in the
// plain build proves compiling the guard out perturbs nothing either.
TEST(ShardAffinityDigestTest, GuardLeavesDigestsUnchanged) {
  for (const int shards : {1, 4}) {
    for (const int jobs : {1, 4}) {
      ExperimentConfig cfg = golden::cell();
      cfg.shards = shards;
      cfg.jobs = jobs;
      const ExperimentResult res = run_experiment(Scheme::kNetRSToR, cfg);
      EXPECT_EQ(golden::result_digest(res),
                golden::pinned(Scheme::kNetRSToR))
          << "netrs-tor diverged with affinity guard "
          << (sim::kAuditEnabled ? "active" : "compiled out")
          << " at shards=" << shards << " jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace netrs::harness
