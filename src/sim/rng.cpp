#include "sim/rng.hpp"

#include <cassert>
#include <cmath>

namespace netrs::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t x = seed;
  for (auto& w : s_) w = splitmix64(x);
}

Rng Rng::child(std::string_view name) const {
  std::uint64_t mix = seed_;
  mix ^= fnv1a(name) + 0x9E3779B97F4A7C15ULL + (mix << 6) + (mix >> 2);
  return Rng(mix);
}

Rng Rng::child(std::uint64_t key) const {
  std::uint64_t x = key ^ 0xD1B54A32D192ED03ULL;
  std::uint64_t mix = seed_ ^ splitmix64(x);
  return Rng(mix);
}

std::uint64_t Rng::next_u64() {
  // xoshiro256++
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform(std::uint64_t n) {
  assert(n > 0);
  // Lemire's multiply-shift with rejection for exact uniformity.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = next_double();
  // Guard against log(0); next_double() < 1 so 1-u > 0.
  return -mean * std::log1p(-u);
}

// ---------------------------------------------------------------------------
// ZipfDistribution — Hörmann's rejection-inversion sampling, the same method
// used by Apache Commons' RejectionInversionZipfSampler. Constant time per
// draw for any n, which matters for the paper's 10^8-key keyspace.
// ---------------------------------------------------------------------------

ZipfDistribution::ZipfDistribution(std::uint64_t n, double exponent)
    : n_(n), s_(exponent) {
  assert(n >= 1);
  assert(exponent > 0.0);
  h_x1_ = h_integral(1.5) - 1.0;
  h_n_ = h_integral(static_cast<double>(n) + 0.5);
  t_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfDistribution::h(double x) const { return std::pow(x, -s_); }

double ZipfDistribution::h_integral(double x) const {
  // H(x) = (x^(1-s) - 1) / (1-s); the antiderivative of x^-s normalized so
  // H(1) = 0. Computed via expm1/log for stability near s = 1.
  const double logx = std::log(x);
  if (std::abs(s_ - 1.0) < 1e-12) return logx;
  return std::expm1((1.0 - s_) * logx) / (1.0 - s_);
}

double ZipfDistribution::h_integral_inverse(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // numeric guard at the left boundary
  // H^-1(x) = (1 + t)^(1/(1-s)) = exp(log1p(t)/(1-s)).
  return std::exp(std::log1p(t) / (1.0 - s_));
}

std::uint64_t ZipfDistribution::operator()(Rng& rng) const {
  while (true) {
    const double u = h_n_ + rng.next_double() * (h_x1_ - h_n_);
    const double x = h_integral_inverse(u);
    // Candidate rank: x rounded to the nearest integer, clamped to [1, n].
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > static_cast<double>(n_)) kd = static_cast<double>(n_);
    const auto k = static_cast<std::uint64_t>(kd);
    if (kd - x <= t_ || u >= h_integral(kd + 0.5) - h(kd)) {
      return k;
    }
  }
}

}  // namespace netrs::sim
