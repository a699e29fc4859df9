// Harness-level integration tests: the full experiment pipeline at small
// scale, for every scheme, including determinism and the shared-accelerator
// deployment.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

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

TEST(ExperimentTest, DefaultConfigRejectsMalformedEnvironment) {
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

}  // namespace
}  // namespace netrs::harness
