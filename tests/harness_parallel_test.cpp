// parallel_for unit tests plus the harness determinism contract: any
// --jobs value must produce bit-identical ExperimentResult statistics,
// because each repeat owns its simulation, seeds derive from the repeat
// index, and merge order is fixed.
#include "harness/parallel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness/experiment.hpp"

namespace netrs::harness {
namespace {

TEST(ResolveJobsTest, PositivePassesThroughAutoFallsBackToHardware) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-2), 1);
}

TEST(ParallelForTest, VisitsEachIndexExactlyOnce) {
  const std::size_t n = 257;
  std::vector<int> visits(n, 0);
  parallel_for(4, n, [&visits](std::size_t i) { visits[i] += 1; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
            static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i], 1) << i;
}

TEST(ParallelForTest, SingleJobRunsInline) {
  std::vector<std::size_t> order;
  parallel_for(1, 5, [&order](std::size_t i) { order.push_back(i); });
  const std::vector<std::size_t> expected = {0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, PropagatesFirstException) {
  EXPECT_THROW(parallel_for(4, 16,
                            [](std::size_t i) {
                              if (i % 2 == 0) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
}

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;  // 16 hosts
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 2000;
  cfg.repeats = 4;
  cfg.seed = 11;
  return cfg;
}

class JobsDeterminismTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(JobsDeterminismTest, SerialAndParallelRunsAreBitIdentical) {
  ExperimentConfig cfg = small_config();
  cfg.jobs = 1;
  const ExperimentResult serial = run_experiment(GetParam(), cfg);
  cfg.jobs = 4;
  const ExperimentResult parallel = run_experiment(GetParam(), cfg);

  // Full latency digest, not just summary stats: the merged (finalized)
  // sample vectors must match element-wise.
  ASSERT_EQ(serial.latencies_ms.count(), parallel.latencies_ms.count());
  EXPECT_EQ(serial.latencies_ms.samples(), parallel.latencies_ms.samples());
  EXPECT_DOUBLE_EQ(serial.mean_ms(), parallel.mean_ms());
  EXPECT_DOUBLE_EQ(serial.percentile_ms(0.50), parallel.percentile_ms(0.50));
  EXPECT_DOUBLE_EQ(serial.percentile_ms(0.99), parallel.percentile_ms(0.99));

  EXPECT_EQ(serial.issued, parallel.issued);
  EXPECT_EQ(serial.completed, parallel.completed);
  EXPECT_EQ(serial.redundant, parallel.redundant);
  EXPECT_EQ(serial.cancels, parallel.cancels);
  EXPECT_DOUBLE_EQ(serial.avg_forwards, parallel.avg_forwards);
  EXPECT_DOUBLE_EQ(serial.wire_bytes_per_request,
                   parallel.wire_bytes_per_request);
  EXPECT_DOUBLE_EQ(serial.load_oscillation, parallel.load_oscillation);
  EXPECT_EQ(serial.rsnodes, parallel.rsnodes);
  EXPECT_EQ(serial.plan_method, parallel.plan_method);
  EXPECT_EQ(serial.plans_deployed, parallel.plans_deployed);
}

INSTANTIATE_TEST_SUITE_P(SchemesAcrossStack, JobsDeterminismTest,
                         ::testing::Values(Scheme::kCliRS,
                                           Scheme::kCliRSR95,
                                           Scheme::kNetRSIlp),
                         [](const auto& info) {
                           std::string n = scheme_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(JobsAutoTest, ZeroJobsMatchesSerial) {
  ExperimentConfig cfg = small_config();
  cfg.repeats = 2;
  cfg.jobs = 0;  // auto: hardware concurrency
  const ExperimentResult automatic = run_experiment(Scheme::kCliRS, cfg);
  cfg.jobs = 1;
  const ExperimentResult serial = run_experiment(Scheme::kCliRS, cfg);
  EXPECT_EQ(automatic.latencies_ms.samples(), serial.latencies_ms.samples());
  EXPECT_EQ(automatic.issued, serial.issued);
}

}  // namespace
}  // namespace netrs::harness
