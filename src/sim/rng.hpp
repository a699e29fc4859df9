// Random-number generation for the simulator.
//
// Engine: xoshiro256++ (public-domain algorithm by Blackman & Vigna),
// seeded through splitmix64 so that any 64-bit seed yields a well-mixed
// state. Components derive independent child streams by name, keeping runs
// reproducible regardless of the order components are constructed in.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace netrs::sim {

/// Seeded xoshiro256++ stream with named child-stream derivation; the only
/// randomness source simulation code may use (see the file comment).
class Rng {
 public:
  /// Seeds the engine; equal seeds produce equal streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent child stream from this stream's seed and `name`.
  /// Children with distinct names are statistically independent.
  [[nodiscard]] Rng child(std::string_view name) const;

  /// Child stream keyed by an integer (e.g. per-client streams).
  [[nodiscard]] Rng child(std::uint64_t key) const;

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform(std::uint64_t n);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_ = 0;
};

/// Zipf(s) sampler over ranks {1, ..., n} using Hörmann's
/// rejection-inversion method: O(1) per sample even for n = 10^8, matching
/// the paper's 100-million-key keyspace with exponent 0.99.
class ZipfDistribution {
 public:
  /// Prepares a sampler over ranks [1, n] with the given exponent (>= 0;
  /// 0 degenerates to uniform).
  ZipfDistribution(std::uint64_t n, double exponent);

  /// Returns a rank in [1, n]; rank 1 is the most popular.
  std::uint64_t operator()(Rng& rng) const;

 private:
  [[nodiscard]] double h(double x) const;
  [[nodiscard]] double h_integral(double x) const;
  [[nodiscard]] double h_integral_inverse(double x) const;

  std::uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double t_;  // threshold used by the rejection test
};

}  // namespace netrs::sim
