// Fault-injection engine tests (DESIGN.md §9, docs/SCENARIOS.md):
//
//  * FaultPlan::parse — grammar coverage (verbs, synonyms, units,
//    comments, '@file' loading) and rejection of malformed entries.
//  * Determinism — a fixed fault plan produces bit-identical result
//    digests across --shards {1,4} x --jobs {1,4}: fault events run at
//    full shard barriers on the global simulator, so fault timing can
//    never depend on the partitioning.
//  * Link validation — a plan naming no cabled link is rejected up front.
//  * Zero-fault equivalence — an empty or comment-only plan reproduces
//    the recorded golden digests exactly (the fault path adds no RNG
//    draws and no event reordering when nothing is scheduled).
//  * Audit accounting (checked builds) — a crash/recover episode keeps
//    packet conservation exact: every packet is delivered, still in
//    flight at the end, or in the drop ledger under a fault reason, and
//    no invariant check fires while a server is dark.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "sim/audit.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace netrs {
namespace {

using sim::FaultOp;
using sim::FaultPlan;
using sim::FaultUnit;

// ---------------------------------------------------------------------------
// Grammar

TEST(FaultPlanParse, EmptyAndCommentOnlySpecsAreEmptyPlans) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("   \n\t ").empty());
  EXPECT_TRUE(FaultPlan::parse("# crash server 0 — just a comment").empty());
  EXPECT_TRUE(FaultPlan::parse("; ;\n#x\n;").empty());
  EXPECT_EQ(FaultPlan::parse("").window_start(), 0);
  EXPECT_EQ(FaultPlan::parse("").window_end(), 0);
}

TEST(FaultPlanParse, ParsesEveryEventKind) {
  const FaultPlan plan = FaultPlan::parse(
      "at 5s crash server 0; at 10s recover server 0\n"
      "at 6s slow server 3 x8.5 # mid-episode degradation\n"
      "at 7s fail accel 2; at 8s restore accel 2\n"
      "at 7s fail rsnode 49; at 9s recover rsnode 49\n"
      "at 1s link-down 16 48; at 2s link-up 16 48");
  ASSERT_EQ(plan.size(), 9u);
  // Sorted by time, stable for equal times.
  EXPECT_EQ(plan.events().front().op, FaultOp::kLinkDown);
  EXPECT_EQ(plan.events().front().index, 16);
  EXPECT_EQ(plan.events().front().peer, 48);
  EXPECT_EQ(plan.window_start(), sim::seconds(1));
  EXPECT_EQ(plan.window_end(), sim::seconds(10));

  int slow = 0;
  for (const sim::FaultEvent& e : plan.events()) {
    if (e.op == FaultOp::kSlow) {
      ++slow;
      EXPECT_EQ(e.unit, FaultUnit::kServer);
      EXPECT_EQ(e.index, 3);
      EXPECT_DOUBLE_EQ(e.factor, 8.5);
    }
  }
  EXPECT_EQ(slow, 1);
}

TEST(FaultPlanParse, TimeUnitsAndOptionalAt) {
  const FaultPlan plan = FaultPlan::parse(
      "1500000ns crash server 1; at 1500us recover server 1;"
      "at 1.5ms crash server 2; 0.0015s recover server 2");
  ASSERT_EQ(plan.size(), 4u);
  for (const sim::FaultEvent& e : plan.events()) {
    EXPECT_EQ(e.at, sim::micros(1500)) << "all four spellings are 1.5ms";
  }
}

TEST(FaultPlanParse, EqualTimeEventsKeepTextualOrder) {
  const FaultPlan plan = FaultPlan::parse(
      "at 5s crash server 0; at 5s slow server 3 x8; at 5s crash server 1");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].index, 0);
  EXPECT_EQ(plan.events()[1].op, FaultOp::kSlow);
  EXPECT_EQ(plan.events()[2].index, 1);
}

TEST(FaultPlanParse, RejectsMalformedEntries) {
  // Missing time unit: ambiguous, always an error.
  EXPECT_THROW(FaultPlan::parse("at 5 crash server 0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash server 0"), std::invalid_argument);
  // Unknown verb / unit.
  EXPECT_THROW(FaultPlan::parse("at 5s explode server 0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 5s crash toaster 0"),
               std::invalid_argument);
  // slow needs a positive factor ("x8" and bare "8" both parse).
  EXPECT_THROW(FaultPlan::parse("at 5s slow server 0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 5s slow server 0 x0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 5s slow server 0 xfast"),
               std::invalid_argument);
  // link ops need two endpoints.
  EXPECT_THROW(FaultPlan::parse("at 5s link-down 16"),
               std::invalid_argument);
  // Trailing junk after a well-formed entry.
  EXPECT_THROW(FaultPlan::parse("at 5s crash server 0 extra"),
               std::invalid_argument);
  // A missing plan file surfaces as the same error class.
  EXPECT_THROW(FaultPlan::parse("@/nonexistent/fault.plan"),
               std::invalid_argument);
}

TEST(FaultPlanParse, LoadsPlanFromFile) {
  const std::string path = ::testing::TempDir() + "/fault_plan_test.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# committed failover scenario\n"
             "at 5s crash server 0\n"
             "at 10s recover server 0\n",
             f);
  std::fclose(f);
  const FaultPlan plan = FaultPlan::parse("@" + path);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.window_start(), sim::seconds(5));
  EXPECT_EQ(plan.window_end(), sim::seconds(10));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Experiment-level determinism

// FNV-1a over the merged result (mirrors golden_digest_test.cpp).
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_u64(std::uint64_t v) { add_bytes(&v, sizeof(v)); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add_u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// `include_fault` adds the fault-phase outputs; the zero-fault golden
// comparison must hash exactly what golden_digest_test.cpp hashes.
std::uint64_t result_digest(const harness::ExperimentResult& res,
                            bool include_fault = true) {
  Digest d;
  d.add_u64(res.latencies_ms.count());
  for (double s : res.latencies_ms.samples()) d.add_double(s);
  d.add_u64(res.issued);
  d.add_u64(res.completed);
  d.add_u64(res.redundant);
  d.add_u64(res.cancels);
  d.add_double(res.avg_forwards);
  d.add_double(res.wire_bytes_per_request);
  d.add_double(res.load_oscillation);
  d.add_u64(static_cast<std::uint64_t>(res.rsnodes));
  d.add_bytes(res.plan_method.data(), res.plan_method.size());
  d.add_u64(static_cast<std::uint64_t>(res.plans_deployed));
  d.add_u64(res.drs_groups);
  if (include_fault) {
    // Fault-specific outputs must be partition-invariant too.
    d.add_u64(res.fault.events_fired);
    for (int p = 0; p < 3; ++p) {
      d.add_u64(res.fault.latency_ms[p].count());
      for (double s : res.fault.latency_ms[p].samples()) d.add_double(s);
    }
  }
  return d.value();
}

// The golden cell (golden_digest_test.cpp) with the committed failover
// plan scaled into its ~440 ms nominal duration: crash at 1/3, recover
// at 2/3 of the run, matching the shape of bench/fig_failover's plan.
harness::ExperimentConfig faulted_config() {
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = 4;  // 16 hosts, 4 pods — shards=4 is a real partition
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 2000;
  cfg.repeats = 2;
  cfg.seed = 17;
  cfg.jobs = 1;
  cfg.fault_plan =
      "at 0.15s crash server 0; at 0.15s slow server 3 x8; "
      "at 0.3s recover server 0; at 0.3s slow server 3 x1";
  return cfg;
}

struct ShardJobCase {
  int shards;
  int jobs;
};

class FaultDeterminismTest : public ::testing::TestWithParam<ShardJobCase> {};

TEST_P(FaultDeterminismTest, FaultedDigestMatchesSerialBaseline) {
  // Baseline: serial core, serial repeats.
  harness::ExperimentConfig cfg = faulted_config();
  const harness::ExperimentResult base =
      harness::run_experiment(harness::Scheme::kNetRSIlp, cfg);
  EXPECT_TRUE(base.fault.enabled);
  EXPECT_GT(base.fault.events_fired, 0u);
  EXPECT_GT(base.issued, base.completed)
      << "a crashed server must lose at least some in-flight requests";

  const ShardJobCase sj = GetParam();
  cfg.shards = sj.shards;
  cfg.jobs = sj.jobs;
  const harness::ExperimentResult out =
      harness::run_experiment(harness::Scheme::kNetRSIlp, cfg);
  EXPECT_EQ(result_digest(base), result_digest(out))
      << "fault timing diverged at shards=" << sj.shards
      << " jobs=" << sj.jobs;
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByJobs, FaultDeterminismTest,
    ::testing::Values(ShardJobCase{1, 4}, ShardJobCase{4, 1},
                      ShardJobCase{4, 4}),
    [](const auto& info) {
      return "shards" + std::to_string(info.param.shards) + "_jobs" +
             std::to_string(info.param.jobs);
    });

// Recorded goldens from golden_digest_test.cpp: a zero-fault plan (empty
// or comment-only) must not perturb a single bit of the existing cells.
TEST(FaultZeroPlan, ReproducesRecordedGoldenDigests) {
  struct Case {
    harness::Scheme scheme;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {harness::Scheme::kCliRS, 0x22129A79E79D7970ULL},
      {harness::Scheme::kNetRSToR, 0x3A2BD8D30D7BB217ULL},
  };
  for (const char* plan : {"", "  # no faults today\n;"}) {
    for (const Case& c : cases) {
      harness::ExperimentConfig cfg;
      cfg.fat_tree_k = 4;
      cfg.num_servers = 5;
      cfg.num_clients = 8;
      cfg.total_requests = 2000;
      cfg.repeats = 2;
      cfg.seed = 17;
      cfg.jobs = 1;
      cfg.fault_plan = plan;
      const harness::ExperimentResult res =
          harness::run_experiment(c.scheme, cfg);
      EXPECT_FALSE(res.fault.enabled);
      EXPECT_EQ(result_digest(res, /*include_fault=*/false), c.expected)
          << "zero-fault plan " << (plan[0] != '\0' ? "(comment)" : "(empty)")
          << " drifted for " << harness::scheme_name(c.scheme);
    }
  }
}

// Events targeting components the scheme does not build (rsnode/accel
// under CliRS) are counted as unbound and skipped — same plan, every
// scheme, no errors.
TEST(FaultUnboundEvents, RsnodeEventsUnderClirsAreCountedAndSkipped) {
  harness::ExperimentConfig cfg = faulted_config();
  cfg.fault_plan = "at 0.15s fail rsnode 9; at 0.3s recover rsnode 9";
  const harness::ExperimentResult res =
      harness::run_experiment(harness::Scheme::kCliRS, cfg);
  EXPECT_TRUE(res.fault.enabled);
  EXPECT_EQ(res.fault.events_fired, 0u);
  EXPECT_EQ(res.fault.events_unbound, 2u * 2u)  // 2 events x 2 repeats
      << "CliRS binds no rsnodes; both events must skip, twice";
  EXPECT_EQ(res.issued, res.completed) << "no component was actually faulted";
}

// Link events must name a cabled link of the run's fat tree (k=4: cores
// 0-3, aggs 4-11, ToRs 12-19, hosts 20-35); the error quotes the entry.
bool rejects_link_entry(const std::string& entry) {
  harness::ExperimentConfig cfg = faulted_config();
  cfg.fault_plan = "at 20ms " + entry;
  try {
    (void)harness::run_experiment(harness::Scheme::kNetRSToR, cfg);
  } catch (const std::invalid_argument& e) {
    return std::string(e.what()).find('"' + entry + '"') != std::string::npos;
  }
  return false;
}

TEST(FaultLinkValidation, NonAdjacentPairIsRejected) {
  EXPECT_TRUE(rejects_link_entry("link-down 0 1"));  // two cores, no cable
}

TEST(FaultLinkValidation, OutOfRangeNodeIsRejected) {
  EXPECT_TRUE(rejects_link_entry("link-down 16 48"));
  EXPECT_TRUE(rejects_link_entry("link-up 99999 7"));
}

TEST(FaultLinkValidation, TorAggLinkRuns) {
  harness::ExperimentConfig cfg = faulted_config();
  cfg.fault_plan = "at 0.15s link-down 4 12; at 0.3s link-up 4 12";
  const harness::ExperimentResult res =
      harness::run_experiment(harness::Scheme::kNetRSToR, cfg);
  EXPECT_EQ(res.fault.events_fired, 2u * 2u);  // 2 events x 2 repeats
}

// ---------------------------------------------------------------------------
// Audit accounting (checked builds only)

TEST(FaultAudit, CrashEpisodeKeepsConservationExact) {
  if constexpr (!sim::kAuditEnabled) {
    GTEST_SKIP() << "audit counters exist only under -DNETRS_AUDIT=ON";
  }
  harness::ExperimentConfig cfg = faulted_config();
  const harness::ExperimentResult res =
      harness::run_experiment(harness::Scheme::kNetRSIlp, cfg);
  const sim::AuditSummary& a = res.audit;
  ASSERT_TRUE(a.enabled);
  EXPECT_EQ(a.violations_total, 0u)
      << "fault hooks must keep every station/conservation invariant";
  // The crash must surface in the drop ledger: queued/in-service work at
  // the crash ("server-crash") and arrivals while dark ("server-down").
  EXPECT_GT(a.drops_by_reason.count("server-down"), 0u);
  std::uint64_t dropped = 0;
  for (const auto& [reason, n] : a.drops_by_reason) dropped += n;
  EXPECT_GT(dropped, 0u);
  // Conservation identity: every injected packet is delivered, still in
  // flight at the end, or accounted in the drop ledger.
  EXPECT_EQ(a.packets_injected,
            a.packets_delivered + a.packets_in_flight_at_end)
      << "node-side drops happen after delivery, so injected == delivered "
         "+ in-flight must hold exactly through crash and recovery";
}

}  // namespace
}  // namespace netrs
