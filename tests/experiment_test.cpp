// Harness-level integration tests: the full experiment pipeline at small
// scale, for every scheme, including determinism and the shared-accelerator
// deployment.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "harness/deployment.hpp"

namespace netrs::harness {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;  // 16 hosts
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 4000;
  cfg.repeats = 1;
  cfg.seed = 7;
  return cfg;
}

class SchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeTest, CompletesAllTrafficAndMeasures) {
  const ExperimentConfig cfg = small_config();
  const ExperimentResult res = run_experiment(GetParam(), cfg);
  EXPECT_EQ(res.issued, res.completed) << "requests lost";
  EXPECT_GT(res.latencies_ms.count(), cfg.total_requests / 2);
  EXPECT_GT(res.mean_ms(), 0.1);   // at least the network floor
  EXPECT_LT(res.mean_ms(), 100.0);  // and sane
  EXPECT_GE(res.percentile_ms(0.99), res.percentile_ms(0.5));
  EXPECT_GT(res.avg_forwards, 1.0);
  EXPECT_GT(res.wire_bytes_per_request, 1000.0);  // ~1KB values dominate
  if (is_netrs(GetParam())) {
    EXPECT_GT(res.rsnodes, 0);
    EXPECT_LE(res.rsnodes, 8 + 16);  // k=4: all racks at most
    EXPECT_GE(res.plans_deployed, 1);
  } else {
    EXPECT_EQ(res.rsnodes, cfg.num_clients);
    EXPECT_EQ(res.plan_method, "client");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTest,
    ::testing::Values(Scheme::kCliRS, Scheme::kCliRSR95,
                      Scheme::kCliRSR95Cancel, Scheme::kNetRSToR,
                      Scheme::kNetRSIlp),
    [](const auto& info) {
      std::string n = scheme_name(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(ExperimentTest, DeterministicForEqualSeeds) {
  const ExperimentConfig cfg = small_config();
  const ExperimentResult a = run_experiment(Scheme::kNetRSIlp, cfg);
  const ExperimentResult b = run_experiment(Scheme::kNetRSIlp, cfg);
  ASSERT_EQ(a.latencies_ms.count(), b.latencies_ms.count());
  EXPECT_DOUBLE_EQ(a.mean_ms(), b.mean_ms());
  EXPECT_DOUBLE_EQ(a.percentile_ms(0.999), b.percentile_ms(0.999));
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.rsnodes, b.rsnodes);
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  ExperimentConfig cfg = small_config();
  const ExperimentResult a = run_experiment(Scheme::kCliRS, cfg);
  cfg.seed = 8;
  const ExperimentResult b = run_experiment(Scheme::kCliRS, cfg);
  EXPECT_NE(a.mean_ms(), b.mean_ms());
}

TEST(ExperimentTest, RepeatsMergeSamples) {
  ExperimentConfig cfg = small_config();
  cfg.repeats = 2;
  const ExperimentResult res = run_experiment(Scheme::kCliRS, cfg);
  cfg.repeats = 1;
  const ExperimentResult one = run_experiment(Scheme::kCliRS, cfg);
  EXPECT_GT(res.latencies_ms.count(), one.latencies_ms.count() * 3 / 2);
}

TEST(ExperimentTest, RedundancySchemesSendDuplicates) {
  ExperimentConfig cfg = small_config();
  cfg.total_requests = 8000;  // enough for the p95 estimator to warm up
  const ExperimentResult r95 = run_experiment(Scheme::kCliRSR95, cfg);
  EXPECT_GT(r95.redundant, 0u);
  EXPECT_EQ(r95.cancels, 0u);
  const ExperimentResult r95c = run_experiment(Scheme::kCliRSR95Cancel, cfg);
  EXPECT_GT(r95c.redundant, 0u);
  EXPECT_GT(r95c.cancels, 0u);
}

TEST(ExperimentTest, DemandSkewConcentratesLoadWithoutLosses) {
  ExperimentConfig cfg = small_config();
  cfg.demand_skew = 0.9;
  const ExperimentResult res = run_experiment(Scheme::kNetRSIlp, cfg);
  EXPECT_EQ(res.issued, res.completed);
  EXPECT_GT(res.latencies_ms.count(), 1000u);
}

TEST(ExperimentTest, SharedCoreAcceleratorsWork) {
  ExperimentConfig cfg = small_config();
  cfg.share_core_accelerators = true;
  const ExperimentResult res = run_experiment(Scheme::kNetRSIlp, cfg);
  EXPECT_EQ(res.issued, res.completed);
  EXPECT_GT(res.latencies_ms.count(), 1000u);
  EXPECT_GT(res.rsnodes, 0);
}

TEST(ExperimentTest, NetRSIlpConsolidatesVsToR) {
  ExperimentConfig cfg = small_config();
  cfg.num_clients = 10;
  const ExperimentResult tor = run_experiment(Scheme::kNetRSToR, cfg);
  const ExperimentResult ilp = run_experiment(Scheme::kNetRSIlp, cfg);
  EXPECT_LT(ilp.rsnodes, tor.rsnodes);
}

TEST(ExperimentTest, UtilizationScalesAggregateRate) {
  ExperimentConfig cfg = small_config();
  cfg.utilization = 0.3;
  const double low = cfg.aggregate_rate();
  cfg.utilization = 0.9;
  const double high = cfg.aggregate_rate();
  EXPECT_NEAR(high / low, 3.0, 1e-9);
  // tkv * A / (Ns * Np) must recover the utilization.
  EXPECT_NEAR(sim::to_seconds(cfg.mean_service_time) * high /
                  (cfg.num_servers * cfg.server_parallelism),
              0.9, 1e-9);
}

TEST(ExperimentTest, AlternativeSelectorAlgorithmsRun) {
  ExperimentConfig cfg = small_config();
  cfg.total_requests = 2000;
  for (const char* algo : {"least-outstanding", "two-choices", "random"}) {
    cfg.selector.algorithm = algo;
    const ExperimentResult res = run_experiment(Scheme::kNetRSIlp, cfg);
    EXPECT_EQ(res.issued, res.completed) << algo;
  }
}

TEST(ExperimentTest, RejectsFewerServersThanReplicas) {
  ExperimentConfig cfg = small_config();
  cfg.num_servers = 2;  // replication_factor is 3
  EXPECT_THROW(run_experiment(Scheme::kNetRSIlp, cfg), std::invalid_argument);
}

TEST(ExperimentTest, RejectsCellsThatMeasureNothing) {
  // Neither cell measures anything: zero requests would report all-zero
  // latencies, and zero repeats have no samples to merge.
  ExperimentConfig cfg = small_config();
  cfg.total_requests = 0;
  EXPECT_THROW(run_experiment(Scheme::kNetRSIlp, cfg), std::invalid_argument);
  for (const int repeats : {0, -1}) {
    cfg = small_config();
    cfg.repeats = repeats;
    EXPECT_THROW(run_experiment(Scheme::kNetRSIlp, cfg),
                 std::invalid_argument)
        << "repeats=" << repeats;
  }
  // Nor does a cell without load: zero service time never ends, zero or
  // negative utilization and zero clients issue nothing, and a skew of 1
  // or more used to issue more requests than asked. Each is named.
  const auto rejects = [](const ExperimentConfig& c, const std::string& what) {
    try {
      (void)run_experiment(Scheme::kNetRSIlp, c);
      ADD_FAILURE() << what << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  for (const sim::Duration tkv : {sim::Duration{0}, -sim::millis(2)}) {
    cfg = small_config();
    cfg.mean_service_time = tkv;
    rejects(cfg, "mean_service_time must be positive, got " +
                     std::to_string(tkv));
  }
  for (const double u : {0.0, -1.0}) {
    cfg = small_config();
    cfg.utilization = u;
    rejects(cfg, "utilization must be positive, got " + std::to_string(u));
  }
  cfg = small_config();
  cfg.num_clients = 0;
  rejects(cfg, "num_clients must be at least 1, got 0");
  for (const double skew : {1.0, 1.5, -0.1}) {
    cfg = small_config();
    cfg.demand_skew = skew;
    rejects(cfg, "demand_skew must be in [0, 1), got " + std::to_string(skew));
  }
  // An unknown selector used to fail inside the first repeat, a negative
  // hop budget planned no RSNode, and a negative timeline bucket turned
  // the timeline off; each is now named before anything runs.
  cfg = small_config();
  cfg.selector.algorithm = "bogus";
  rejects(cfg, "selector.algorithm must be one of c3, ");
  rejects(cfg, "got \"bogus\"");
  cfg = small_config();
  cfg.extra_hop_fraction = -1.0;
  rejects(cfg, "extra_hop_fraction must be non-negative, got " +
                   std::to_string(-1.0));
  cfg = small_config();
  cfg.timeline_bucket = -sim::millis(5);
  rejects(cfg, "timeline_bucket must be non-negative, got " +
                   std::to_string(-sim::millis(5)) + " ns");
}

// A sub-rack group size that does not divide the rack used to trap with
// SIGFPE inside the first repeat (a k=4 rack has 2 hosts).
TEST(ExperimentTest, RejectsSubRackGroupsThatDoNotDivideTheRack) {
  ExperimentConfig cfg = small_config();
  cfg.granularity = core::GroupGranularity::kSubRack;
  for (const int hosts : {4, 0, -2}) {
    cfg.sub_rack_hosts = hosts;
    try {
      (void)validate_config(cfg);
      ADD_FAILURE() << hosts << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "sub_rack_hosts must be a divisor of the k=4 rack's 2 "
                "hosts, got " + std::to_string(hosts));
    }
  }
  cfg.sub_rack_hosts = 2;
  EXPECT_GT(run_experiment(Scheme::kNetRSIlp, cfg).completed, 0u);
}

// The public deployment is run_experiment's repeat: built and run directly
// at one repeat, it gives run_experiment's digest, serial and sharded.
TEST(ExperimentTest, DeploymentRunMatchesRunExperiment) {
  for (const int shards : {1, 2}) {
    ExperimentConfig cfg = golden::cell();
    cfg.repeats = 1;
    cfg.shards = shards;
    const sim::FaultPlan plan = validate_config(cfg);
    Deployment d(Scheme::kNetRSIlp, cfg, plan, cfg.seed);
    ExperimentResult direct = d.run();
    direct.finalize();
    EXPECT_EQ(direct.repeats, 1);
    EXPECT_EQ(golden::result_digest(direct),
              golden::result_digest(run_experiment(Scheme::kNetRSIlp, cfg)))
        << "shards=" << shards;
  }
}

// Every selector's C3 service-time prior comes from the cell's tkv, on
// the RSNodes as on the clients, whatever the selector config says.
TEST(ExperimentTest, SelectorsTakeTheServiceTimePriorFromTkv) {
  ExperimentConfig cfg = small_config();
  cfg.mean_service_time = sim::millis(0.5);
  const ExperimentResult given = run_experiment(Scheme::kNetRSIlp, cfg);
  cfg.selector.c3.service_time_prior = sim::millis(40);
  EXPECT_EQ(golden::result_digest(given),
            golden::result_digest(run_experiment(Scheme::kNetRSIlp, cfg)));
}

TEST(ExperimentTest, RejectsOddZeroAndNegativeArity) {
  // An odd k used to simulate a malformed tree in Release builds, and k <= 0
  // died on a shard count clamped to k instead of naming k.
  for (const int k : {5, 0, -2}) {
    ExperimentConfig cfg = small_config();
    cfg.fat_tree_k = k;
    try {
      (void)run_experiment(Scheme::kNetRSIlp, cfg);
      ADD_FAILURE() << "k=" << k << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("k=" + std::to_string(k)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExperimentTest, RejectsNegativeLinkLatency) {
  // One shard runs no lookahead check, so only the fabric's own check
  // stands between a negative latency and hops silently clamped to zero.
  ExperimentConfig cfg = small_config();
  cfg.shards = 1;
  cfg.accelerator_link_latency = -sim::micros(1);
  EXPECT_THROW(run_experiment(Scheme::kNetRSIlp, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.shards = 1;
  cfg.host_link_latency = -1;
  EXPECT_THROW(run_experiment(Scheme::kCliRS, cfg), std::invalid_argument);
}

// Unsets every cell field's NETRS_* variable for the scope and then puts
// back what was there, so a test reads the paper defaults (and leaves the
// variables as it found them) whatever the environment of the test run.
class CleanEnvironment {
 public:
  CleanEnvironment() {
    for (const CellField& f : cell_fields()) {
      if (f.env == nullptr) continue;
      const char* v = std::getenv(f.env);
      saved_.emplace_back(f.env, v == nullptr ? std::nullopt
                                              : std::optional<std::string>(v));
      ::unsetenv(f.env);
    }
  }
  ~CleanEnvironment() {
    for (const auto& [name, value] : saved_) {
      if (value) {
        ::setenv(name, value->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }
  CleanEnvironment(const CleanEnvironment&) = delete;
  CleanEnvironment& operator=(const CleanEnvironment&) = delete;

 private:
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST(ExperimentTest, DefaultConfigRejectsMalformedEnvironment) {
  const CleanEnvironment clean;
  ::setenv("NETRS_REQUESTS", "1e6", 1);
  EXPECT_THROW(default_config(), std::invalid_argument);
  ::setenv("NETRS_REQUESTS", "-1", 1);
  EXPECT_THROW(default_config(), std::invalid_argument);
  ::setenv("NETRS_REQUESTS", "5000", 1);
  EXPECT_EQ(default_config().total_requests, 5000u);
  ::unsetenv("NETRS_REQUESTS");
  ::setenv("NETRS_SHARDS", "4294967297", 1);  // does not fit an int
  EXPECT_THROW(default_config(), std::invalid_argument);
  ::unsetenv("NETRS_SHARDS");
  EXPECT_EQ(default_config().total_requests,
            ExperimentConfig{}.total_requests);
}

TEST(ExperimentTest, ParseCountTakesOnlyWholeCounts) {
  EXPECT_EQ(parse_count("--k", "8", 100), 8u);
  EXPECT_EQ(parse_count("--k", "100", 100), 100u);
  for (const char* bad : {"", "abc", "1e6", "64k", "-1", " 8", "101"}) {
    EXPECT_THROW((void)parse_count("--k", bad, 100), std::invalid_argument)
        << bad;
  }
  try {
    (void)parse_count("--k", "abc", 100);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--k=\"abc\" is not a count in [0, 100]");
  }
}

// Every field apply_cell_args() can set, compared exactly (doubles too).
void expect_same_cell(const Cell& a, const Cell& b) {
  const ExperimentConfig& x = a.cfg;
  const ExperimentConfig& y = b.cfg;
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(x.fat_tree_k, y.fat_tree_k);
  EXPECT_EQ(x.num_servers, y.num_servers);
  EXPECT_EQ(x.num_clients, y.num_clients);
  EXPECT_EQ(x.utilization, y.utilization);
  EXPECT_EQ(x.demand_skew, y.demand_skew);
  EXPECT_EQ(x.mean_service_time, y.mean_service_time);
  EXPECT_EQ(x.total_requests, y.total_requests);
  EXPECT_EQ(x.repeats, y.repeats);
  EXPECT_EQ(x.selector.algorithm, y.selector.algorithm);
  EXPECT_EQ(x.granularity, y.granularity);
  EXPECT_EQ(x.sub_rack_hosts, y.sub_rack_hosts);
  EXPECT_EQ(x.extra_hop_fraction, y.extra_hop_fraction);
  EXPECT_EQ(x.share_core_accelerators, y.share_core_accelerators);
  EXPECT_EQ(x.seed, y.seed);
  EXPECT_EQ(x.jobs, y.jobs);
  EXPECT_EQ(x.shards, y.shards);
  EXPECT_EQ(x.client_multiplicity, y.client_multiplicity);
  EXPECT_EQ(x.obs.trace_path, y.obs.trace_path);
  EXPECT_EQ(x.obs.metrics_path, y.obs.metrics_path);
  EXPECT_EQ(x.obs.attribution_path, y.obs.attribution_path);
  EXPECT_EQ(x.obs.decision_path, y.obs.decision_path);
  EXPECT_EQ(x.obs.trace_capacity, y.obs.trace_capacity);
  EXPECT_EQ(x.shard_telemetry_path, y.shard_telemetry_path);
  EXPECT_EQ(x.fault_plan, y.fault_plan);
  EXPECT_EQ(x.timeline_bucket, y.timeline_bucket);
}

// A value no field holds by default, in the spelling format() prints,
// chosen by the field's usage placeholder.
std::string sample_value(const CellField& f) {
  const std::string arg = f.arg;
  if (arg == "N") return "3";
  if (arg == "F") return "0.25";
  if (arg == "MS") return "1.5";
  if (arg == "FILE") return "out.csv";
  if (arg == "PLAN") return "at 1s crash server 0";
  if (arg == "S") return "clirs-r95";
  if (arg == "A") return "two-choices";
  if (arg == "G") return "subrack4";
  ADD_FAILURE() << f.flag << ": no sample for placeholder " << arg;
  return "";
}

TEST(CellFieldTest, FlagEqualsFormAndEnvironmentSetTheSameValue) {
  const CleanEnvironment clean;
  const Cell base{.cfg = default_config()};
  for (const CellField& f : cell_fields()) {
    SCOPED_TRACE(f.flag);
    if (f.arg == nullptr) {  // a switch
      Cell on = base;
      EXPECT_TRUE(apply_cell_args(on, std::vector<std::string>{f.flag}));
      EXPECT_NE(f.format(on), f.format(base));
      EXPECT_EQ(f.env, nullptr);
      continue;
    }
    const std::string v = sample_value(f);
    ASSERT_NE(f.format(base), v);
    Cell spaced = base;
    EXPECT_TRUE(apply_cell_args(spaced, std::vector<std::string>{f.flag, v}));
    EXPECT_EQ(f.format(spaced), v);
    Cell joined = base;
    EXPECT_TRUE(
        apply_cell_args(joined, std::vector<std::string>{f.flag + ("=" + v)}));
    expect_same_cell(spaced, joined);
    if (f.env != nullptr) {
      ::setenv(f.env, v.c_str(), 1);
      const Cell from_env{.scheme = base.scheme, .cfg = default_config()};
      ::unsetenv(f.env);
      expect_same_cell(spaced, from_env);
    }
  }
}

TEST(CellFieldTest, FlagsOverrideTheEnvironment) {
  const CleanEnvironment clean;
  ::setenv("NETRS_SEED", "5", 1);
  Cell cell{.cfg = default_config()};
  EXPECT_EQ(cell.cfg.seed, 5u);
  EXPECT_TRUE(apply_cell_args(cell, std::vector<std::string>{"--seed", "9"}));
  EXPECT_EQ(cell.cfg.seed, 9u);
}

// --help and -h ask for the usage only in flag position; as a flag's
// value they are that value.
TEST(CellFieldTest, HelpIsAFlagOnlyInFlagPosition) {
  Cell cell;
  EXPECT_FALSE(apply_cell_args(cell, std::vector<std::string>{"--k", "8",
                                                              "-h"}));
  EXPECT_EQ(cell.cfg.fat_tree_k, 8);
  EXPECT_FALSE(apply_cell_args(cell, std::vector<std::string>{"--help"}));
  EXPECT_TRUE(apply_cell_args(
      cell, std::vector<std::string>{"--trace", "-h", "--algorithm=--help"}));
  EXPECT_EQ(cell.cfg.obs.trace_path, "-h");
  EXPECT_EQ(cell.cfg.selector.algorithm, "--help");
  EXPECT_THROW((void)apply_cell_args(
                   cell, std::vector<std::string>{"--k", "--help"}),
               std::invalid_argument);
}

// Millisecond flags round to the nearest nanosecond: 0.000249 ms is 249 ns,
// though 0.000249 * 1e6 is a hair below 249 in double arithmetic.
TEST(CellFieldTest, MillisecondFlagsRoundToTheNanosecond) {
  Cell cell;
  EXPECT_TRUE(apply_cell_args(
      cell, std::vector<std::string>{"--tkv", "0.000249",
                                     "--timeline-bucket=0.000983"}));
  EXPECT_EQ(cell.cfg.mean_service_time, 249);
  EXPECT_EQ(cell.cfg.timeline_bucket, 983);
}

TEST(CellFieldTest, UsageListsEveryFlag) {
  const std::string usage = cell_usage();
  for (const CellField& f : cell_fields()) {
    EXPECT_NE(usage.find("  " + std::string(f.flag) + " "),
              std::string::npos)
        << f.flag;
  }
}

TEST(CellFieldTest, RejectedArgumentsNameTheFlagAndValue) {
  const auto message = [](std::vector<std::string> args) -> std::string {
    Cell cell;
    try {
      (void)apply_cell_args(cell, args);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(accepted)";
  };
  EXPECT_EQ(message({"--bogus", "3"}),
            "unknown flag \"--bogus\" (--help lists the flags)");
  EXPECT_EQ(message({"--k"}), "--k needs a value");
  EXPECT_EQ(message({"--k", "x"}), "--k=\"x\" is not a count in [0, " +
                                       std::to_string(INT_MAX) + "]");
  EXPECT_EQ(message({"--scheme=bogus"}),
            "--scheme=\"bogus\" is not one of clirs, clirs-r95, clirs-r95c, "
            "netrs-tor, netrs-ilp");
  EXPECT_EQ(message({"--share-accel=1"}),
            "--share-accel takes no value, got \"--share-accel=1\"");
}

// The run header prints cell_args(); read back through the parser, it
// gives the same cell for any value the table can spell.
TEST(CellFieldTest, HeaderArgumentsReplayRandomCells) {
  std::mt19937_64 rng(31);
  const auto count = [&](auto max) {
    return std::uniform_int_distribution<decltype(max)>(0, max)(rng);
  };
  const auto real = [&] {
    return std::uniform_real_distribution<double>(-10.0, 10.0)(rng);
  };
  const auto duration = [&] {
    return std::uniform_int_distribution<sim::Duration>(
        -1'000'000'000'000, 1'000'000'000'000)(rng);
  };
  const auto text = [&] {
    std::string s(count(12), ' ');
    for (char& c : s) c = static_cast<char>(' ' + count(94));
    return s;
  };
  for (int i = 0; i < 300; ++i) {
    Cell cell;
    ExperimentConfig& c = cell.cfg;
    cell.scheme = static_cast<Scheme>(count(4));
    c.fat_tree_k = count(INT_MAX);
    c.num_servers = count(INT_MAX);
    c.num_clients = count(INT_MAX);
    c.utilization = real();
    c.demand_skew = real();
    c.mean_service_time = duration();
    c.total_requests = count(UINT64_MAX);
    c.repeats = count(INT_MAX);
    c.selector.algorithm = text();
    c.granularity = static_cast<core::GroupGranularity>(count(2));
    c.sub_rack_hosts =
        c.granularity == core::GroupGranularity::kSubRack ? 4 : 0;
    c.extra_hop_fraction = real();
    c.share_core_accelerators = count(1) == 1;
    c.seed = count(UINT64_MAX);
    c.jobs = count(INT_MAX);
    c.shards = count(INT_MAX);
    c.client_multiplicity = count(INT_MAX);
    c.obs.trace_path = text();
    c.obs.metrics_path = text();
    c.obs.attribution_path = text();
    c.obs.decision_path = text();
    c.obs.trace_capacity = count(SIZE_MAX);
    c.shard_telemetry_path = text();
    c.fault_plan = text();
    c.timeline_bucket = duration();
    Cell back;
    EXPECT_TRUE(apply_cell_args(back, cell_args(cell)));
    SCOPED_TRACE(i);
    expect_same_cell(cell, back);
  }
}

}  // namespace
}  // namespace netrs::harness
