// Integration tests for the observability layer: attaching the Observer
// must not perturb simulation results (golden-digest invariance), and the
// emitted trace/metrics files must be byte-identical at any --jobs value
// (the determinism contract in DESIGN.md §8).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.hpp"

namespace netrs::harness {
namespace {

// Same digest as golden_digest_test.cpp: FNV-1a over every latency
// sample's bit pattern plus all summary statistics.
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

std::uint64_t result_digest(const ExperimentResult& res) {
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
  return d.value();
}

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
  EXPECT_EQ(off.write_seconds, 0.0);

  ExperimentConfig on = base;
  on.obs.trace_path = ::testing::TempDir() + "obs_itest_phase.json";
  on.obs.metrics_path = ::testing::TempDir() + "obs_itest_phase.csv";
  on.obs.attribution_path = ::testing::TempDir() + "obs_itest_phase_a.csv";
  on.obs.decision_path = ::testing::TempDir() + "obs_itest_phase_d.csv";
  const ExperimentResult r = run_experiment(Scheme::kNetRSIlp, on);
  EXPECT_GT(r.harvest_seconds, 0.0);
  EXPECT_GT(r.write_seconds, 0.0);
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
