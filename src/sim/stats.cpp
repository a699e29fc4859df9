#include "sim/stats.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "sim/radix_sort.hpp"

namespace netrs::sim {
namespace {

// Slow-path tally shared by every recorder; relaxed is enough for a
// monotonic diagnostic counter.
std::atomic<std::uint64_t> g_unsorted_percentile_sorts{0};

}  // namespace

std::uint64_t LatencyRecorder::unsorted_percentile_sorts() {
  return g_unsorted_percentile_sorts.load(std::memory_order_relaxed);
}

void LatencyRecorder::reset_unsorted_percentile_sorts() {
  g_unsorted_percentile_sorts.store(0, std::memory_order_relaxed);
}

void LatencyRecorder::add(double v) {
  samples_.push_back(v);
  sorted_ = false;
  sum_ += v;
}

double LatencyRecorder::mean() const {
  assert(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double LatencyRecorder::min() const {
  assert(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double LatencyRecorder::max() const {
  assert(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double MeanRecorder::mean() const {
  assert(count_ > 0);
  return sum_ / static_cast<double>(count_);
}

namespace {

// The q-quantile of n samples sits between the order statistics lo and
// hi (equal when it falls on one), hi weighted by frac.
struct Rank {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};

Rank rank_of(std::size_t n, double q) {
  const double idx = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  return {lo, hi, idx - static_cast<double>(lo)};
}

double interpolate(double lo, double hi, const Rank& r) {
  if (r.lo == r.hi) return lo;
  return lo * (1.0 - r.frac) + hi * r.frac;
}

}  // namespace

double LatencyRecorder::percentile(double q) const {
  assert(!samples_.empty());
  assert(q >= 0.0 && q <= 1.0);
  const Rank r = rank_of(samples_.size(), q);
  if (sorted_) return interpolate(samples_[r.lo], samples_[r.hi], r);
  // Not finalized: select from a copy instead of mutating from a const
  // method, which would race with concurrent readers. Order statistic hi
  // is lo or the smallest sample after lo once lo is in place.
  g_unsorted_percentile_sorts.fetch_add(1, std::memory_order_relaxed);
  std::vector<double> copy = samples_;
  const auto lo = copy.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(copy.begin(), lo, copy.end());
  const double hi = r.lo == r.hi ? *lo : *std::min_element(lo + 1, copy.end());
  return interpolate(*lo, hi, r);
}

void LatencyRecorder::finalize() {
  if (sorted_) return;
  radix_sort(samples_, [](double v) { return radix_key(v); });
  sorted_ = true;
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  if (other.samples_.empty()) return;  // nothing appended: order unchanged
  const bool was_empty = samples_.empty();
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sorted_ = was_empty && other.sorted_;
}

void LatencyRecorder::merge(LatencyRecorder&& other) {
  if (!samples_.empty()) {
    merge(other);
    return;
  }
  if (other.samples_.empty()) return;
  // 0.0 + other.sum_ == other.sum_: the copying merge's result exactly.
  samples_ = std::move(other.samples_);
  sum_ = other.sum_;
  sorted_ = other.sorted_;
  other.clear();
}

void LatencyRecorder::clear() {
  samples_.clear();
  sum_ = 0.0;
  sorted_ = true;
}

// ---------------------------------------------------------------------------
// P2Quantile
// ---------------------------------------------------------------------------

P2Quantile::P2Quantile(double q) : q_(q) {
  assert(q > 0.0 && q < 1.0);
  desired_[0] = 1;
  desired_[1] = 1 + 2 * q;
  desired_[2] = 1 + 4 * q;
  desired_[3] = 3 + 2 * q;
  desired_[4] = 5;
  increments_[0] = 0;
  increments_[1] = q / 2;
  increments_[2] = q;
  increments_[3] = (1 + q) / 2;
  increments_[4] = 1;
}

void P2Quantile::add(double v) {
  ++count_;
  if (count_ <= 5) {
    heights_[count_ - 1] = v;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }

  // Locate the cell containing v and stretch boundary markers if needed.
  int k;
  if (v < heights_[0]) {
    heights_[0] = v;
    k = 0;
  } else if (v >= heights_[4]) {
    heights_[4] = v;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && v >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust interior markers via parabolic (fallback linear) interpolation.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double right = positions_[i + 1] - positions_[i];
    const double left = positions_[i - 1] - positions_[i];
    if ((d >= 1 && right > 1) || (d <= -1 && left < -1)) {
      const double sign = d >= 1 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction.
      const double hp =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((positions_[i] - positions_[i - 1] + sign) *
                   (heights_[i + 1] - heights_[i]) / right +
               (positions_[i + 1] - positions_[i] - sign) *
                   (heights_[i] - heights_[i - 1]) / (-left));
      if (heights_[i - 1] < hp && hp < heights_[i + 1]) {
        heights_[i] = hp;
      } else {
        // Linear fallback keeps markers ordered.
        const int j = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::estimate() const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (count_ < 5) {
    // The buffer is unsorted until the 5th sample: interpolate the exact
    // q-quantile of a sorted copy (matches LatencyRecorder::percentile).
    double buf[4];
    std::copy(heights_, heights_ + count_, buf);
    std::sort(buf, buf + count_);
    const double idx = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(std::floor(idx));
    const auto hi = static_cast<std::size_t>(std::ceil(idx));
    if (lo == hi) return buf[lo];
    const double frac = idx - static_cast<double>(lo);
    return buf[lo] * (1.0 - frac) + buf[hi] * frac;
  }
  return heights_[2];
}

}  // namespace netrs::sim
