// Integration tests for the observability layer: attaching the Observer
// must not perturb simulation results (golden-digest invariance), and the
// emitted trace/metrics files must be byte-identical at any --jobs value
// (the determinism contract in DESIGN.md §8).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "golden.hpp"
#include "harness/experiment.hpp"
#include "harness/obs_stream.hpp"

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
  cfg.seed = 29;
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

TEST(ObsIntegrationTest, ObservabilityDoesNotPerturbResults) {
  const ExperimentConfig base = small_config();
  const std::uint64_t plain =
      result_digest(run_experiment(Scheme::kNetRSIlp, base));

  ExperimentConfig traced = base;
  traced.obs.trace_path = ::testing::TempDir() + "obs_itest_perturb.json";
  traced.obs.metrics_path = ::testing::TempDir() + "obs_itest_perturb.csv";
  const std::uint64_t observed =
      result_digest(run_experiment(Scheme::kNetRSIlp, traced));

  EXPECT_EQ(plain, observed)
      << "attaching the Observer changed simulation behavior";
}

TEST(ObsIntegrationTest, HarvestAndWritePhasesAreTimedOnlyWithObs) {
  const ExperimentConfig base = small_config();
  const ExperimentResult off = run_experiment(Scheme::kNetRSIlp, base);
  EXPECT_EQ(off.harvest_seconds, 0.0);
  EXPECT_EQ(off.wait_seconds, 0.0);
  EXPECT_EQ(off.write_seconds, 0.0);
  EXPECT_EQ(off.obs_handoffs, 0u);

  ExperimentConfig on = base;
  on.obs.trace_path = ::testing::TempDir() + "obs_itest_phase.json";
  on.obs.metrics_path = ::testing::TempDir() + "obs_itest_phase.csv";
  on.obs.attribution_path = ::testing::TempDir() + "obs_itest_phase_a.csv";
  on.obs.decision_path = ::testing::TempDir() + "obs_itest_phase_d.csv";
  const ExperimentResult r = run_experiment(Scheme::kNetRSIlp, on);
  EXPECT_GT(r.harvest_seconds, 0.0);
  EXPECT_GT(r.write_seconds, 0.0);
  EXPECT_GE(r.wait_seconds, 0.0);
  EXPECT_GE(r.obs_handoffs, static_cast<std::uint64_t>(on.repeats));
}

TEST(ObsIntegrationTest, ObsFileBytesIdenticalAcrossJobs) {
  // Three repeats at --jobs 4 run at once: repeat 0 streams into the
  // files, repeats 1 and 2 into spools appended afterwards in repeat
  // order. All four files must equal the --jobs 1 run's byte for byte.
  const char* kFiles[] = {"json", "csv", "a.csv", "d.csv"};
  const auto path = [](int jobs, const char* file) {
    return ::testing::TempDir() + "obs_itest_j" + std::to_string(jobs) +
           "." + file;
  };
  const auto run = [&](int jobs) {
    ExperimentConfig cfg = small_config();
    cfg.repeats = 3;
    cfg.jobs = jobs;
    cfg.obs.trace_path = path(jobs, kFiles[0]);
    cfg.obs.metrics_path = path(jobs, kFiles[1]);
    cfg.obs.attribution_path = path(jobs, kFiles[2]);
    cfg.obs.decision_path = path(jobs, kFiles[3]);
    return result_digest(run_experiment(Scheme::kCliRS, cfg));
  };
  EXPECT_EQ(run(1), run(4));
  for (const char* file : kFiles) {
    const std::string one = slurp(path(1, file));
    EXPECT_FALSE(one.empty()) << file;
    EXPECT_EQ(one, slurp(path(4, file)))
        << file << " differs between --jobs 1 and --jobs 4";
  }

  // Structural sanity on the emitted artifacts.
  const std::string t1 = slurp(path(1, kFiles[0]));
  const std::string m1 = slurp(path(1, kFiles[1]));
  const std::string a1 = slurp(path(1, kFiles[2]));
  const std::string d1 = slurp(path(1, kFiles[3]));
  EXPECT_EQ(t1.front(), '{');
  EXPECT_NE(t1.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t1.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(t1.substr(t1.size() - 2), "}\n");
  EXPECT_EQ(m1.rfind("repeat,time_us,metric,value\n", 0), 0u);
  EXPECT_EQ(a1.rfind("repeat,req,complete_us,", 0), 0u);
  EXPECT_EQ(d1.rfind("repeat,time_us,node,chosen,", 0), 0u);
  // Every repeat contributed, in order (pid metadata / repeat column).
  for (const std::string* csv : {&m1, &a1, &d1}) {
    const std::size_t r1 = csv->find("\n1,");
    const std::size_t r2 = csv->find("\n2,");
    EXPECT_NE(r1, std::string::npos);
    EXPECT_NE(r2, std::string::npos);
    EXPECT_LT(r1, r2);
    EXPECT_EQ(csv->find("\n0,", r1), std::string::npos);
  }
  EXPECT_LT(t1.find("repeat 1"), t1.find("repeat 2"));
}

TEST(ObsIntegrationTest, MultiChunkFilesIdenticalAcrossShardsAndJobs) {
  // Each measured request gives one flight record and one decision, so
  // 2 x kObsChunkRows requests fill at least three chunks per repeat: the
  // files are cut into several handoffs, at different flush watermarks on
  // each run, and must still be the same bytes at any --shards x --jobs.
  const char* kFiles[] = {"json", "csv", "a.csv", "d.csv"};
  const auto path = [](int shards, int jobs, const char* file) {
    return ::testing::TempDir() + "obs_itest_chunks_s" +
           std::to_string(shards) + "j" + std::to_string(jobs) + "." + file;
  };
  ExperimentConfig cfg = small_config();
  cfg.total_requests = 2 * kObsChunkRows;
  cfg.repeats = 3;
  const auto run = [&](int shards, int jobs) {
    ExperimentConfig c = cfg;
    c.shards = shards;
    c.jobs = jobs;
    c.obs.trace_path = path(shards, jobs, kFiles[0]);
    c.obs.metrics_path = path(shards, jobs, kFiles[1]);
    c.obs.attribution_path = path(shards, jobs, kFiles[2]);
    c.obs.decision_path = path(shards, jobs, kFiles[3]);
    const ExperimentResult r = run_experiment(Scheme::kNetRSIlp, c);
    EXPECT_GE(r.obs_handoffs, 3u * static_cast<std::uint64_t>(c.repeats))
        << "shards " << shards << " jobs " << jobs;
    // A wrapped ring would keep different events at other shard counts.
    EXPECT_EQ(r.trace_dropped, 0u);
    return result_digest(r);
  };
  const std::uint64_t serial = run(1, 1);
  for (const auto& [shards, jobs] :
       {std::pair{2, 1}, std::pair{1, 3}, std::pair{2, 3}}) {
    EXPECT_EQ(run(shards, jobs), serial);
    for (const char* file : kFiles) {
      const std::string one = slurp(path(1, 1, file));
      EXPECT_FALSE(one.empty()) << file;
      EXPECT_EQ(one, slurp(path(shards, jobs, file)))
          << file << " differs at --shards " << shards << " --jobs " << jobs;
    }
  }
}

TEST(ObsIntegrationTest, ResultCarriesSummariesWhenEnabled) {
  ExperimentConfig cfg = small_config();
  cfg.obs.trace_path = ::testing::TempDir() + "obs_itest_sum.json";
  cfg.obs.metrics_path = ::testing::TempDir() + "obs_itest_sum.csv";
  const ExperimentResult r = run_experiment(Scheme::kNetRSToR, cfg);

  EXPECT_GT(r.trace_events, 0u);
  ASSERT_TRUE(r.metrics.enabled());
  bool saw_latency = false;
  for (const obs::MetricSummaryEntry& e : r.metrics.entries) {
    // Summarized columns never embed per-repeat placement ids (those are
    // registered summarize=false because their names differ per repeat).
    EXPECT_EQ(e.name.find("qdepth.s"), std::string::npos) << e.name;
    EXPECT_EQ(e.name.find("util.core"), std::string::npos) << e.name;
    if (e.name == "latency_ms.count") saw_latency = true;
    EXPECT_GT(e.samples, 0u) << e.name;
  }
  EXPECT_TRUE(saw_latency);
}

}  // namespace
}  // namespace netrs::harness
