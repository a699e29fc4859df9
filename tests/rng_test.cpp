#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

namespace netrs::sim {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, ChildStreamsAreIndependentByName) {
  Rng root(5);
  Rng a = root.child("alpha");
  Rng b = root.child("beta");
  EXPECT_NE(a.next_u64(), b.next_u64());
  // Children are reproducible.
  Rng a2 = root.child("alpha");
  Rng a3 = root.child("alpha");
  EXPECT_EQ(a2.next_u64(), a3.next_u64());
}

TEST(RngTest, ChildByKeyReproducible) {
  Rng root(5);
  EXPECT_EQ(root.child(42).next_u64(), root.child(42).next_u64());
  EXPECT_NE(root.child(42).next_u64(), root.child(43).next_u64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformInRange) {
  Rng r(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.uniform(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<size_t>(v)];
  }
  // Chi-squared sanity: each bucket within 10% of the mean.
  for (int c : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng r(4);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_FALSE(r.bernoulli(-3.0));
  EXPECT_TRUE(r.bernoulli(2.0));
}

TEST(RngTest, BernoulliFrequency) {
  Rng r(6);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += r.bernoulli(0.3);
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanAndPositivity) {
  Rng r(21);
  double sum = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const double v = r.exponential(4.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 200000.0, 4.0, 0.05);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(2);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  r.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be equal
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// --- Zipf -------------------------------------------------------------------

TEST(ZipfTest, RanksWithinDomain) {
  Rng r(31);
  ZipfDistribution zipf(1000, 0.99);
  for (int i = 0; i < 20000; ++i) {
    const auto k = zipf(r);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 1000u);
  }
}

TEST(ZipfTest, SmallDomainMatchesExactPmf) {
  Rng r(37);
  const std::uint64_t n = 5;
  const double s = 0.99;
  ZipfDistribution zipf(n, s);
  std::map<std::uint64_t, int> counts;
  const int trials = 300000;
  for (int i = 0; i < trials; ++i) ++counts[zipf(r)];

  double hn = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) hn += std::pow(k, -s);
  for (std::uint64_t k = 1; k <= n; ++k) {
    const double expected = std::pow(k, -s) / hn;
    EXPECT_NEAR(counts[k] / static_cast<double>(trials), expected, 0.01)
        << "rank " << k;
  }
}

TEST(ZipfTest, MonotoneDecreasingPopularity) {
  Rng r(41);
  ZipfDistribution zipf(100, 0.99);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf(r)];
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
}

TEST(ZipfTest, HugeDomainIsFastAndValid) {
  Rng r(43);
  // The paper's keyspace: 100 million keys. A rejection bug would make
  // this loop forever (regression guard).
  ZipfDistribution zipf(100'000'000, 0.99);
  std::uint64_t max_seen = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto k = zipf(r);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 100'000'000u);
    max_seen = std::max(max_seen, k);
  }
  // With s = 0.99 the tail carries real mass; we must see large ranks.
  EXPECT_GT(max_seen, 1'000'000u);
}

TEST(ZipfTest, ExponentOneSupported) {
  Rng r(47);
  ZipfDistribution zipf(1000, 1.0);
  for (int i = 0; i < 10000; ++i) {
    const auto k = zipf(r);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 1000u);
  }
}

}  // namespace
}  // namespace netrs::sim
