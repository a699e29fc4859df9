// Absolute pin of the four obs outputs (DESIGN.md §8): trace JSON,
// metrics CSV, attribution CSV and decision CSV. obs_shard_test and
// obs_integration_test only compare runs against each other (shards vs
// shards, jobs vs jobs), so a formatter that drifts the same way in every
// run would pass them; this test hashes the bytes of each file and
// compares them against recorded digests.
//
// Six small cells cover the formatting paths:
//   - NetRS-ILP, one shard, with a crash/recover fault: accelerator
//     (via_rs=1) rows, unmatched and pending requests, doomed picks;
//   - CliRS-R95, two repeats: duplicate-won (dup=1) attribution rows and
//     a second repeat in every file;
//   - NetRS-ILP with shared core-group accelerators (§III-B): the pooled
//     units' accel.util/rs.selected columns, decision rows and trace
//     names;
//   - CliRS with each baseline selector that audits its decisions
//     (least-outstanding, two-choices, ewma-latency): their decision
//     rows and per-candidate context.
//
// The recorded digests were produced by this test itself (run with
// NETRS_PRINT_DIGESTS=1 to reprint them). They are a byte-level contract:
// update them only for a change that intentionally alters an obs output
// format, and say so in the commit message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "golden.hpp"
#include "harness/experiment.hpp"

namespace netrs::harness {
namespace {

using golden::fnv1a;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct ObsDigests {
  std::uint64_t trace;
  std::uint64_t metrics;
  std::uint64_t attribution;
  std::uint64_t decisions;
};

struct ObsGoldenCase {
  const char* name;
  Scheme scheme;
  const char* fault_plan;
  bool share_core_accelerators;
  const char* algorithm;  // rs::SelectorConfig::algorithm
  ObsDigests expected;
};

ObsDigests run_and_hash(const ObsGoldenCase& gc) {
  ExperimentConfig cfg = golden::cell();
  cfg.shards = 1;
  cfg.fault_plan = gc.fault_plan;
  cfg.share_core_accelerators = gc.share_core_accelerators;
  cfg.selector.algorithm = gc.algorithm;
  const std::string base = ::testing::TempDir() + "obs_golden_" + gc.name;
  cfg.obs.trace_path = base + ".json";
  cfg.obs.metrics_path = base + "_metrics.csv";
  cfg.obs.attribution_path = base + "_attr.csv";
  cfg.obs.decision_path = base + "_dec.csv";
  (void)run_experiment(gc.scheme, cfg);
  ObsDigests d{};
  d.trace = fnv1a(slurp(cfg.obs.trace_path));
  d.metrics = fnv1a(slurp(cfg.obs.metrics_path));
  d.attribution = fnv1a(slurp(cfg.obs.attribution_path));
  d.decisions = fnv1a(slurp(cfg.obs.decision_path));
  return d;
}

// Recorded from the per-field snprintf/ostream writers (see file comment).
constexpr ObsGoldenCase kGolden[] = {
    {"netrs_ilp_crash", Scheme::kNetRSIlp,
     "at 0.15s crash server 3; at 0.3s recover server 3", false, "c3",
     {0x31348486CB506955ULL, 0x7DBFA1A5BA353F9DULL, 0xEE8496DAABD5DDE2ULL,
      0x8032BBDF2285DC69ULL}},
    {"clirs_r95", Scheme::kCliRSR95, "", false, "c3",
     {0xE62AC63FBB85E1FCULL, 0x82B2F8683FC6AC94ULL, 0xDC8D64DDB4F9A94EULL,
      0x359DEAF67CDD50DEULL}},
    {"netrs_ilp_shared", Scheme::kNetRSIlp, "", true, "c3",
     {0xE002031FAB1DAA25ULL, 0xD793F1A062D2EF2AULL, 0x1714014D8DC4DD02ULL,
      0x4CE10BE28D271ED3ULL}},
    {"clirs_least_outstanding", Scheme::kCliRS, "", false, "least-outstanding",
     {0xA9837BAF2361BB11ULL, 0xD0643EBC764F18E0ULL, 0xF1459068A8BC5BC6ULL,
      0x70FAF5C71FAAFFC8ULL}},
    {"clirs_two_choices", Scheme::kCliRS, "", false, "two-choices",
     {0x86BF086AD1BACC17ULL, 0x9BC6B258955EF630ULL, 0x3661CCE7E14C8CBFULL,
      0x9FC8A08618517E3FULL}},
    {"clirs_ewma_latency", Scheme::kCliRS, "", false, "ewma-latency",
     {0x040A20D688BC49FAULL, 0x14C27272A1A57F26ULL, 0x62BB94292137D21AULL,
      0xF824B5FC2386E062ULL}},
};

// Prints a case by name (gtest would otherwise dump its raw bytes).
void PrintTo(const ObsGoldenCase& gc, std::ostream* os) { *os << gc.name; }

class ObsGoldenTest : public ::testing::TestWithParam<ObsGoldenCase> {};

TEST_P(ObsGoldenTest, OutputBytesMatchRecordedDigests) {
  const ObsGoldenCase gc = GetParam();
  const ObsDigests d = run_and_hash(gc);
  if (std::getenv("NETRS_PRINT_DIGESTS") != nullptr) {
    std::printf(
        "obs golden: %s {0x%016llXULL, 0x%016llXULL, 0x%016llXULL, "
        "0x%016llXULL}\n",
        gc.name, static_cast<unsigned long long>(d.trace),
        static_cast<unsigned long long>(d.metrics),
        static_cast<unsigned long long>(d.attribution),
        static_cast<unsigned long long>(d.decisions));
  }
  const char* hint = " — if intentional, re-record with NETRS_PRINT_DIGESTS=1";
  EXPECT_EQ(d.trace, gc.expected.trace) << "trace JSON drift" << hint;
  EXPECT_EQ(d.metrics, gc.expected.metrics) << "metrics CSV drift" << hint;
  EXPECT_EQ(d.attribution, gc.expected.attribution)
      << "attribution CSV drift" << hint;
  EXPECT_EQ(d.decisions, gc.expected.decisions)
      << "decision CSV drift" << hint;
}

INSTANTIATE_TEST_SUITE_P(Cells, ObsGoldenTest, ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace netrs::harness
