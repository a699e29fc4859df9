#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "sim/rng.hpp"

namespace netrs::sim {
namespace {

TEST(LatencyRecorderTest, MeanMinMax) {
  LatencyRecorder r;
  r.add(1.0);
  r.add(2.0);
  r.add(6.0);
  EXPECT_DOUBLE_EQ(r.mean(), 3.0);
  EXPECT_DOUBLE_EQ(r.min(), 1.0);
  EXPECT_DOUBLE_EQ(r.max(), 6.0);
  EXPECT_EQ(r.count(), 3u);
}

TEST(LatencyRecorderTest, PercentileExactOrderStatistics) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.add(i);
  EXPECT_DOUBLE_EQ(r.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.percentile(1.0), 100.0);
  EXPECT_NEAR(r.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(r.percentile(0.99), 99.01, 1e-9);
}

TEST(LatencyRecorderTest, PercentileInterleavedWithAdds) {
  LatencyRecorder r;
  r.add(5.0);
  r.add(1.0);
  EXPECT_DOUBLE_EQ(r.percentile(1.0), 5.0);
  r.add(10.0);  // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(r.percentile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(r.percentile(0.0), 1.0);
}

TEST(LatencyRecorderTest, MergeCombinesSamples) {
  LatencyRecorder a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.percentile(1.0), 3.0);
}

TEST(LatencyRecorderTest, UnsortedSortCounterTracksSlowPathOnly) {
  // Regression guard: the report path batches p50/p95/p99/p999 queries, so
  // an unfinalized recorder re-sorts the same samples once per query. The
  // process-wide counter makes that slow path observable.
  LatencyRecorder r;
  for (int i = 0; i < 64; ++i) r.add(64.0 - i);

  LatencyRecorder::reset_unsorted_percentile_sorts();
  (void)r.percentile(0.5);
  (void)r.percentile(0.95);
  EXPECT_EQ(LatencyRecorder::unsorted_percentile_sorts(), 2u);

  r.finalize();
  (void)r.percentile(0.5);
  (void)r.percentile(0.95);
  (void)r.percentile(0.99);
  (void)r.percentile(0.999);
  EXPECT_EQ(LatencyRecorder::unsorted_percentile_sorts(), 2u)
      << "finalized percentile queries must not copy-sort";

  r.add(1.0);  // invalidates the sorted state again
  (void)r.percentile(0.5);
  EXPECT_EQ(LatencyRecorder::unsorted_percentile_sorts(), 3u);
}

TEST(LatencyRecorderTest, PercentileDoesNotMutateFromConstQuery) {
  // Regression: percentile() used to lazily sort `mutable` storage from a
  // const method — a data race once results are read while other threads
  // merge, and a surprise reorder of samples() under the caller's feet.
  LatencyRecorder r;
  r.add(5.0);
  r.add(1.0);
  r.add(3.0);
  const LatencyRecorder& cr = r;
  EXPECT_DOUBLE_EQ(cr.percentile(0.5), 3.0);
  const std::vector<double> expected = {5.0, 1.0, 3.0};
  EXPECT_EQ(cr.samples(), expected) << "const percentile() reordered samples";
}

TEST(LatencyRecorderTest, FinalizeSortsInPlace) {
  LatencyRecorder r;
  r.add(5.0);
  r.add(1.0);
  r.add(3.0);
  r.finalize();
  const std::vector<double> expected = {1.0, 3.0, 5.0};
  EXPECT_EQ(r.samples(), expected);
  EXPECT_DOUBLE_EQ(r.percentile(1.0), 5.0);
}

TEST(LatencyRecorderTest, MergeTracksSortedness) {
  // Regression: merge() reset sorted_ = samples_.empty(), discarding known
  // order. Appending an empty recorder must preserve sortedness, and
  // merging sorted into empty must inherit it; either way queries after a
  // later finalize() stay exact.
  LatencyRecorder sorted_src;
  sorted_src.add(1.0);
  sorted_src.add(2.0);
  sorted_src.finalize();

  LatencyRecorder dst;
  dst.merge(sorted_src);  // empty <- sorted: still sorted
  dst.merge(LatencyRecorder{});  // append nothing: still sorted
  const std::vector<double> expected = {1.0, 2.0};
  EXPECT_EQ(dst.samples(), expected);
  EXPECT_DOUBLE_EQ(dst.percentile(0.5), 1.5);

  LatencyRecorder unsorted_src;
  unsorted_src.add(0.5);
  dst.merge(unsorted_src);
  EXPECT_DOUBLE_EQ(dst.percentile(0.0), 0.5);
  dst.finalize();
  const std::vector<double> merged = {0.5, 1.0, 2.0};
  EXPECT_EQ(dst.samples(), merged);
}

TEST(LatencyRecorderTest, UnsortedPercentileEqualsFinalizedBitForBit) {
  // The report queries most recorders unsorted (a selection on a copy);
  // the value must be the sorted lookup's exactly, ties included.
  Rng rng(7);
  for (const std::size_t n : {1, 2, 3, 7, 100, 1001, 4096}) {
    LatencyRecorder r;
    for (std::size_t i = 0; i < n; ++i) {
      // 16 distinct values, so most order statistics are tied.
      r.add(static_cast<double>(rng.uniform(16)) * 0.375);
    }
    LatencyRecorder sorted = r;
    sorted.finalize();
    for (const double q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.percentile(q)),
                std::bit_cast<std::uint64_t>(sorted.percentile(q)))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(MeanRecorderTest, MeanEqualsLatencyRecorderMeanBitForBit) {
  Rng rng(11);
  const auto fill = [&rng](LatencyRecorder& lat, MeanRecorder& mean, int n) {
    for (int i = 0; i < n; ++i) {
      const double v = rng.next_double() * 10.0;
      lat.add(v);
      mean.add(v);
    }
  };
  LatencyRecorder la, lb, lc, ld;
  MeanRecorder ma, mb, mc, md;
  fill(la, ma, 37);
  fill(lb, mb, 101);
  fill(lc, mc, 5);
  // A copied merge into a non-empty recorder, a moved merge into an empty
  // one and then into a non-empty one, and merges of empty recorders.
  la.merge(lb);
  ma.merge(mb);
  ld.merge(LatencyRecorder{});
  md.merge(MeanRecorder{});
  ld.merge(std::move(la));
  md.merge(ma);
  ld.merge(std::move(lc));
  md.merge(mc);
  ld.merge(LatencyRecorder{});
  md.merge(MeanRecorder{});
  ASSERT_EQ(md.count(), ld.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(md.mean()),
            std::bit_cast<std::uint64_t>(ld.mean()));
  EXPECT_TRUE(MeanRecorder{}.empty());
}

TEST(SummarySamplesTest, NoSummaryHoldsNanOrNegativeZero) {
  // The unsorted percentile equals the finalized one only while no sample
  // is NaN or -0.0: a selection ties -0.0 with +0.0 (and cannot order
  // NaN), while finalize()'s radix key puts -0.0 first. Every summary
  // sample is a simulated duration, a clamped non-negative regret or a
  // herd share; this checks that on a crash cell with every summary on.
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 3000;
  cfg.repeats = 2;
  cfg.seed = 17;
  cfg.timeline_bucket = 50 * kMillisecond;
  cfg.fault_plan = "at 0.15s crash server 3; at 0.3s recover server 3";
  cfg.obs.record_attribution = true;
  cfg.obs.record_decisions = true;
  const auto clean = [](double v) {
    return !std::isnan(v) && !(v == 0.0 && std::signbit(v));
  };
  for (const harness::Scheme scheme :
       {harness::Scheme::kCliRSR95Cancel, harness::Scheme::kNetRSIlp}) {
    const harness::ExperimentResult res =
        harness::run_experiment(scheme, cfg);
    std::vector<const LatencyRecorder*> recorders = {
        &res.latencies_ms, &res.attribution.total_ms,
        &res.decisions.regret_ms, &res.decisions.staleness_ms};
    for (const LatencyRecorder& c : res.attribution.components_ms) {
      recorders.push_back(&c);
    }
    for (int p = 0; p < 3; ++p) {
      recorders.push_back(&res.fault.latency_ms[p]);
      recorders.push_back(&res.fault.regret_ms[p]);
      recorders.push_back(&res.fault.staleness_ms[p]);
    }
    for (const LatencyRecorder& bucket : res.timeline) {
      recorders.push_back(&bucket);
    }
    ASSERT_FALSE(res.decisions.regret_ms.empty());
    ASSERT_FALSE(res.fault.staleness_ms[1].empty());
    for (const LatencyRecorder* rec : recorders) {
      for (const double v : rec->samples()) {
        ASSERT_TRUE(clean(v)) << harness::scheme_name(scheme) << ": " << v;
      }
    }
    ASSERT_FALSE(res.decisions.herd.empty());
    EXPECT_TRUE(clean(res.decisions.herd.mean()));
    for (const MeanRecorder& bucket : res.stale_timeline) {
      if (!bucket.empty()) {
        EXPECT_TRUE(clean(bucket.mean()));
      }
    }
  }
}

TEST(LatencyRecorderTest, ClearResets) {
  LatencyRecorder r;
  r.add(7.0);
  r.clear();
  EXPECT_TRUE(r.empty());
  r.add(3.0);
  EXPECT_DOUBLE_EQ(r.mean(), 3.0);
}

TEST(P2QuantileTest, NoSamplesIsNaN) {
  // Documented: no samples -> NaN (callers gate on count()), not +inf.
  P2Quantile q(0.95);
  EXPECT_TRUE(std::isnan(q.estimate()));
}

TEST(P2QuantileTest, FewSamplesInterpolateQuantile) {
  // Regression: with fewer than 5 samples estimate() returned the maximum
  // of the buffer regardless of q. It must interpolate the q-quantile of
  // the sorted buffer, exactly as LatencyRecorder::percentile does.
  P2Quantile p95(0.95);
  p95.add(3.0);
  p95.add(9.0);
  p95.add(1.0);
  // sorted {1,3,9}, idx = 0.95 * 2 = 1.9 -> 0.1*3 + 0.9*9 = 8.4.
  EXPECT_DOUBLE_EQ(p95.estimate(), 8.4);

  P2Quantile median(0.5);
  median.add(9.0);
  median.add(3.0);
  EXPECT_DOUBLE_EQ(median.estimate(), 6.0);

  P2Quantile single(0.9);
  single.add(7.0);
  EXPECT_DOUBLE_EQ(single.estimate(), 7.0);
}

TEST(P2QuantileTest, MatchesExactPercentileBelowFiveSamples) {
  Rng rng(42);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    P2Quantile est(q);
    LatencyRecorder exact;
    for (int n = 1; n <= 4; ++n) {
      const double v = rng.exponential(3.0);
      est.add(v);
      exact.add(v);
      EXPECT_DOUBLE_EQ(est.estimate(), exact.percentile(q))
          << "q=" << q << " n=" << n;
    }
  }
}

TEST(P2QuantileTest, TracksMedianOfUniform) {
  P2Quantile q(0.5);
  Rng rng(77);
  for (int i = 0; i < 50000; ++i) q.add(rng.next_double());
  EXPECT_NEAR(q.estimate(), 0.5, 0.02);
}

TEST(P2QuantileTest, Tracks95thOfExponential) {
  P2Quantile q(0.95);
  Rng rng(78);
  for (int i = 0; i < 100000; ++i) q.add(rng.exponential(1.0));
  // True p95 of Exp(1) is -ln(0.05) ~= 2.9957.
  EXPECT_NEAR(q.estimate(), 2.9957, 0.25);
}

TEST(P2QuantileTest, AgreesWithExactQuantileOnRandomData) {
  Rng rng(79);
  P2Quantile q(0.9);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.exponential(5.0) + rng.next_double();
    q.add(v);
    all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  const double exact = all[static_cast<std::size_t>(0.9 * all.size())];
  EXPECT_NEAR(q.estimate(), exact, 0.15 * exact);
}

TEST(EwmaTest, FirstSampleSeeds) {
  Ewma e(0.9);
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value_or(42.0), 42.0);
  e.add(10.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, ConvergesToConstantInput) {
  Ewma e(0.9);
  e.add(0.0);
  for (int i = 0; i < 200; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(EwmaTest, AlphaWeightsHistory) {
  Ewma e(0.9);
  e.add(100.0);
  e.add(0.0);
  // 0.9 * 100 + 0.1 * 0 = 90.
  EXPECT_DOUBLE_EQ(e.value(), 90.0);
}

TEST(EwmaTest, ResetClears) {
  Ewma e(0.5);
  e.add(4.0);
  e.reset();
  EXPECT_FALSE(e.seeded());
  e.add(8.0);
  EXPECT_DOUBLE_EQ(e.value(), 8.0);
}

}  // namespace
}  // namespace netrs::sim
