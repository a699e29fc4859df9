// Shard-parallel observability contract (DESIGN.md §8.6): every obs
// output — trace JSON, metrics CSV, attribution CSV, decision CSV — must
// be byte-identical at any --shards x --jobs combination, and attaching
// the sharded observer lanes must not perturb simulation results.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "harness/experiment.hpp"

namespace netrs::harness {
namespace {

using golden::result_digest;

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;  // 16 hosts
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 1500;
  cfg.repeats = 2;
  cfg.seed = 17;
  cfg.jobs = 1;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct ObsFiles {
  std::string trace;
  std::string metrics;
  std::string attribution;
  std::string decisions;
};

// Runs `scheme` with all four obs outputs enabled at the given shard/job
// count and slurps the files back.
ObsFiles run_with_obs(Scheme scheme, const std::string& tag, int shards,
                      int jobs, std::uint64_t* digest = nullptr) {
  ExperimentConfig cfg = small_config();
  cfg.shards = shards;
  cfg.jobs = jobs;
  const std::string base = ::testing::TempDir() + "obs_shard_" + tag + "_s" +
                           std::to_string(shards) + "_j" +
                           std::to_string(jobs);
  cfg.obs.trace_path = base + ".json";
  cfg.obs.metrics_path = base + "_metrics.csv";
  cfg.obs.attribution_path = base + "_attr.csv";
  cfg.obs.decision_path = base + "_dec.csv";
  const ExperimentResult res = run_experiment(scheme, cfg);
  if (digest != nullptr) *digest = result_digest(res);
  ObsFiles f;
  f.trace = slurp(cfg.obs.trace_path);
  f.metrics = slurp(cfg.obs.metrics_path);
  f.attribution = slurp(cfg.obs.attribution_path);
  f.decisions = slurp(cfg.obs.decision_path);
  EXPECT_FALSE(f.trace.empty());
  EXPECT_FALSE(f.metrics.empty());
  EXPECT_FALSE(f.attribution.empty());
  EXPECT_FALSE(f.decisions.empty());
  return f;
}

void expect_identical(const ObsFiles& base, const ObsFiles& other,
                      const std::string& what) {
  EXPECT_EQ(base.trace, other.trace) << "trace JSON differs: " << what;
  EXPECT_EQ(base.metrics, other.metrics) << "metrics CSV differs: " << what;
  EXPECT_EQ(base.attribution, other.attribution)
      << "attribution CSV differs: " << what;
  EXPECT_EQ(base.decisions, other.decisions)
      << "decision CSV differs: " << what;
}

void check_scheme(Scheme scheme, const std::string& tag) {
  std::uint64_t baseline_digest = 0;
  const ObsFiles baseline = run_with_obs(scheme, tag, 1, 1, &baseline_digest);
  const std::vector<std::pair<int, int>> combos = {
      {2, 1}, {4, 1}, {1, 4}, {2, 4}, {4, 4}};
  for (const auto& [shards, jobs] : combos) {
    std::uint64_t d = 0;
    const ObsFiles f = run_with_obs(scheme, tag, shards, jobs, &d);
    const std::string what = tag + " shards=" + std::to_string(shards) +
                             " jobs=" + std::to_string(jobs);
    EXPECT_EQ(baseline_digest, d) << "result digest differs: " << what;
    expect_identical(baseline, f, what);
  }
}

TEST(ObsShardTest, NetRSIlpOutputsByteIdenticalAcrossShardsAndJobs) {
  check_scheme(Scheme::kNetRSIlp, "ilp");
}

TEST(ObsShardTest, NetRSToROutputsByteIdenticalAcrossShardsAndJobs) {
  check_scheme(Scheme::kNetRSToR, "tor");
}

TEST(ObsShardTest, ShardedObserversDoNotPerturbResults) {
  // Golden-digest invariance: the sharded run must produce the same
  // latency samples with and without the observer lanes attached.
  ExperimentConfig plain = small_config();
  plain.shards = 4;
  const std::uint64_t off =
      result_digest(run_experiment(Scheme::kNetRSIlp, plain));

  std::uint64_t on = 0;
  run_with_obs(Scheme::kNetRSIlp, "perturb", 4, 1, &on);
  EXPECT_EQ(off, on)
      << "attaching sharded observers changed simulation behavior";
}

TEST(ObsShardTest, ResultReportsPerShardEventCounts) {
  ExperimentConfig cfg = small_config();
  cfg.shards = 4;
  const ExperimentResult res = run_experiment(Scheme::kNetRSToR, cfg);
  ASSERT_EQ(res.events_per_shard.size(), 4u);
  std::uint64_t total = 0;
  for (std::uint64_t e : res.events_per_shard) {
    EXPECT_GT(e, 0u);
    total += e;
  }
  EXPECT_GT(total, res.completed);
}

TEST(ObsShardTest, ShardTelemetryOptInIsPopulatedAndDoesNotPerturb) {
  ExperimentConfig plain = small_config();
  plain.shards = 4;
  const std::uint64_t off =
      result_digest(run_experiment(Scheme::kNetRSIlp, plain));

  ExperimentConfig cfg = plain;
  cfg.shard_telemetry_path =
      ::testing::TempDir() + "obs_shard_telemetry.csv";
  const ExperimentResult res = run_experiment(Scheme::kNetRSIlp, cfg);
  EXPECT_EQ(off, result_digest(res))
      << "enabling shard telemetry changed simulation behavior";

  ASSERT_EQ(res.shard_telemetry.size(), 2u);  // one snapshot per repeat
  for (const sim::ShardTelemetry& t : res.shard_telemetry) {
    ASSERT_EQ(t.lanes.size(), 4u);
    std::uint64_t events = 0;
    for (const auto& lane : t.lanes) events += lane.events;
    EXPECT_GT(events, 0u);
  }

  const std::string csv = slurp(cfg.shard_telemetry_path);
  EXPECT_EQ(csv.rfind("repeat,shard,bucket_start_us,windows,events,"
                      "advance_ns,exec_ns,stall_ns\n",
                      0),
            0u);
  EXPECT_NE(csv.find("\n1,"), std::string::npos);  // second repeat present
}

}  // namespace
}  // namespace netrs::harness
