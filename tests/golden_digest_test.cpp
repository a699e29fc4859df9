// Golden-digest determinism guard: runs a small mixed CliRS/NetRS
// experiment matrix and compares a digest of each scheme's full result
// (merged latency samples plus every summary statistic) against recorded
// values. Any refactor of the simulation hot path — event queue, packet
// buffers, scheduling — that silently changes behavior trips this test,
// because the digest covers the bit pattern of every measured latency.
//
// The recorded digests (golden.hpp) were produced by this test itself (run
// with NETRS_PRINT_DIGESTS=1 to reprint them). They are a *behavioral
// contract*: update them only for a change that intentionally alters
// simulation results, and say so in the commit message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "golden.hpp"
#include "harness/experiment.hpp"

namespace netrs::harness {
namespace {

using golden::result_digest;

class GoldenDigestTest : public ::testing::TestWithParam<golden::Pin> {};

TEST_P(GoldenDigestTest, MatchesRecordedDigestAtAnyJobsValue) {
  const golden::Pin gc = GetParam();
  ExperimentConfig cfg = golden::cell();
  const ExperimentResult serial = run_experiment(gc.scheme, cfg);
  const std::uint64_t serial_digest = result_digest(serial);

  cfg.jobs = 4;
  const ExperimentResult parallel = run_experiment(gc.scheme, cfg);
  const std::uint64_t parallel_digest = result_digest(parallel);

  if (std::getenv("NETRS_PRINT_DIGESTS") != nullptr) {
    std::printf("golden digest: scheme=%s 0x%016llX\n",
                scheme_name(gc.scheme),
                static_cast<unsigned long long>(serial_digest));
  }
  EXPECT_EQ(serial_digest, parallel_digest)
      << "jobs=1 vs jobs=4 diverged for " << scheme_name(gc.scheme);
  EXPECT_EQ(serial_digest, gc.digest)
      << "behavior drift for " << scheme_name(gc.scheme)
      << " — if intentional, re-record with NETRS_PRINT_DIGESTS=1";
}

INSTANTIATE_TEST_SUITE_P(
    MixedSchemes, GoldenDigestTest, ::testing::ValuesIn(golden::kPins),
    [](const auto& info) {
      std::string n = scheme_name(info.param.scheme);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace netrs::harness
