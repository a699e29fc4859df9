// Sharded-core determinism guard (DESIGN.md §4.10): the partitioned PDES
// core must be *behaviorally invisible*. For every scheme the golden
// digest — covering the bit pattern of every measured latency plus all
// summary statistics — must be identical across --shards {1, 2, 4} and
// --jobs {1, 4}, and equal to the recorded serial-core values (golden.hpp).
// A divergence means a cross-shard packet was reordered, a window boundary
// leaked, or an RNG stream moved.
//
// Also covered here:
//   - cross-pod packet conservation under -DNETRS_AUDIT=ON with the
//     per-shard fabric audit ledgers merged, on the k=4 cell and on a k=16
//     NetRS-ToR cell (both skipped in plain builds), and
//   - the fabric's fail-fast lookahead validation (satellite: every
//     switch/host link must be at least the lookahead window long).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "golden.hpp"
#include "harness/experiment.hpp"
#include "net/fabric.hpp"
#include "net/fat_tree.hpp"
#include "sim/audit.hpp"
#include "sim/shard.hpp"

namespace netrs::harness {
namespace {

using golden::result_digest;

// Same four cells as golden_digest_test: the sharded core is required to
// reproduce the serial core's recorded digests bit-for-bit at every shard
// count.
class ShardDeterminismTest : public ::testing::TestWithParam<golden::Pin> {};

TEST_P(ShardDeterminismTest, DigestIdenticalAcrossShardAndJobCounts) {
  const golden::Pin sc = GetParam();
  for (const int shards : {1, 2, 4}) {
    for (const int jobs : {1, 4}) {
      ExperimentConfig cfg = golden::cell();
      cfg.shards = shards;
      cfg.jobs = jobs;
      const ExperimentResult res = run_experiment(sc.scheme, cfg);
      EXPECT_EQ(result_digest(res), sc.digest)
          << scheme_name(sc.scheme) << " diverged at shards=" << shards
          << " jobs=" << jobs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MixedSchemes, ShardDeterminismTest, ::testing::ValuesIn(golden::kPins),
    [](const auto& info) {
      std::string n = scheme_name(info.param.scheme);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// Every aggregation-to-core hop crosses a shard boundary when shards ==
// pods, so a healthy audited run exercises the cross-shard inbox path end
// to end; the merged per-shard ledgers must balance with zero violations.
TEST(ShardAuditTest, CrossPodConservationHoldsWithMergedLedgers) {
  if constexpr (!sim::kAuditEnabled) {
    GTEST_SKIP() << "auditor compiled out; configure -DNETRS_AUDIT=ON";
  }
  ExperimentConfig cfg = golden::cell();
  cfg.shards = 4;
  const ExperimentResult res = run_experiment(Scheme::kNetRSToR, cfg);
  EXPECT_TRUE(res.audit.enabled);
  EXPECT_EQ(res.audit.violations_total, 0u)
      << (res.audit.violations.empty()
              ? std::string()
              : res.audit.violations.front().detail);
  EXPECT_GT(res.audit.checks, 0u);
  EXPECT_GT(res.audit.packets_injected, 0u);
  // Conservation over the merged shard ledgers: everything injected was
  // delivered or explicitly tallied as still parked at the end.
  EXPECT_EQ(res.audit.packets_injected,
            res.audit.packets_delivered + res.audit.packets_in_flight_at_end);
}

// The paper's scale (§V-A): a k=16 NetRS-ToR cell at four shards sends
// about one packet in five across shards, far more than the k=4 cells
// above, so every window drains several per-source rings onto the
// cross-shard event lane. Any arrival parked out of time order would be
// recorded as `lane-order`; the merged ledgers must balance.
TEST(ShardAuditTest, K16TorCellAtFourShardsIsViolationFree) {
  if constexpr (!sim::kAuditEnabled) {
    GTEST_SKIP() << "auditor compiled out; configure -DNETRS_AUDIT=ON";
  }
  ExperimentConfig cfg;
  cfg.fat_tree_k = 16;
  cfg.num_servers = 256;
  cfg.num_clients = 700;
  cfg.utilization = 0.7;
  cfg.total_requests = 20000;
  cfg.repeats = 1;
  cfg.seed = 1;
  cfg.jobs = 1;
  cfg.shards = 4;
  const ExperimentResult res = run_experiment(Scheme::kNetRSToR, cfg);
  EXPECT_TRUE(res.audit.enabled);
  EXPECT_EQ(res.audit.violations_total, 0u)
      << (res.audit.violations.empty()
              ? std::string()
              : res.audit.violations.front().rule + ": " +
                    res.audit.violations.front().detail);
  for (const sim::AuditViolation& v : res.audit.violations) {
    EXPECT_NE(v.rule, "lane-order") << v.detail;
    EXPECT_NE(v.rule, "conservation-identity") << v.detail;
  }
  EXPECT_EQ(res.completed, res.issued);
  EXPECT_GT(res.audit.packets_injected, 0u);
  EXPECT_EQ(res.audit.packets_injected,
            res.audit.packets_delivered + res.audit.packets_in_flight_at_end);
}

// Satellite: a link shorter than the lookahead window would let a packet
// arrive inside an already-executed window, so the fabric refuses to build.
TEST(ShardLookaheadTest, FabricRejectsLinksShorterThanLookahead) {
  const net::FatTree topo(4);
  net::FabricConfig cfg;

  {
    sim::ShardGroup group(2, sim::micros(30));
    cfg.switch_link_latency = sim::micros(10);  // < 30 us lookahead
    cfg.host_link_latency = sim::micros(30);
    EXPECT_THROW(net::Fabric(group, topo, cfg), std::invalid_argument);
  }
  {
    sim::ShardGroup group(2, sim::micros(30));
    cfg.switch_link_latency = sim::micros(30);
    cfg.host_link_latency = sim::micros(5);  // < 30 us lookahead
    EXPECT_THROW(net::Fabric(group, topo, cfg), std::invalid_argument);
  }
  {
    // Serial degenerate mode never runs conservative sync, so short links
    // are fine there — exactly today's single-queue fabric.
    sim::ShardGroup group(1, sim::micros(30));
    cfg.switch_link_latency = sim::micros(10);
    cfg.host_link_latency = sim::micros(5);
    EXPECT_NO_THROW(net::Fabric(group, topo, cfg));
  }
  {
    // Boundary: latency == lookahead is allowed (arrival lands exactly on
    // the next window's horizon, which run_windows executes strictly
    // after publishing).
    sim::ShardGroup group(4, sim::micros(30));
    cfg.switch_link_latency = sim::micros(30);
    cfg.host_link_latency = sim::micros(30);
    EXPECT_NO_THROW(net::Fabric(group, topo, cfg));
  }
}

// Configs under which no window could ever advance are rejected by the
// group itself, before any worker thread starts.
TEST(ShardLookaheadTest, GroupRejectsBadShardCountAndLookahead) {
  EXPECT_THROW(sim::ShardGroup(2, 0), std::invalid_argument);
  EXPECT_THROW(sim::ShardGroup(4, -1), std::invalid_argument);
  EXPECT_THROW(sim::ShardGroup(0), std::invalid_argument);
  // One shard runs no conservative sync, so its lookahead is unused.
  EXPECT_NO_THROW(sim::ShardGroup(1, 0));
}

}  // namespace
}  // namespace netrs::harness
