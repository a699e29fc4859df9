// Measurement utilities: exact percentile recording for experiment output,
// a mean-only recorder for series that are only ever averaged, and a
// streaming P-square quantile estimator for the CliRS-R95 client's online
// 95th-percentile latency tracking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace netrs::sim {

/// Records latency samples and answers exact mean / percentile queries.
/// Samples are stored. A recorder whose sorted samples someone reads (or
/// that answers many percentile queries) calls finalize() once after the
/// last add()/merge() to sort them in place, after which percentile() is a
/// plain lookup; one queried a few times can skip it. No query mutates
/// state, so the recorder can be read from multiple threads concurrently.
class LatencyRecorder {
 public:
  /// Records one sample.
  void add(double v);

  /// Number of recorded samples.
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  /// True when no samples have been recorded.
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  /// Arithmetic mean. Precondition: !empty().
  [[nodiscard]] double mean() const;
  /// Smallest sample. Precondition: !empty().
  [[nodiscard]] double min() const;
  /// Largest sample. Precondition: !empty().
  [[nodiscard]] double max() const;

  /// Exact q-quantile (q in [0,1]) with linear interpolation between order
  /// statistics. Precondition: !empty(). If the recorder has not been
  /// finalized since the last add()/merge(), selects the two order
  /// statistics from a copy of the samples (std::nth_element, O(n) per
  /// call) rather than mutating them; the value is the finalized one bit
  /// for bit, as long as no sample is NaN or -0.0 (finalize() orders -0.0
  /// before +0.0, a selection ties them).
  [[nodiscard]] double percentile(double q) const;

  /// Sorts the samples in place so subsequent percentile() calls are
  /// direct lookups.
  void finalize();

  /// Process-wide count of percentile() calls that hit the unsorted
  /// copy-and-select slow path. Report paths batch p50/p95/p99/p999
  /// queries, so a recorder that reaches them unfinalized copies the same
  /// samples once per query; benchmarks and tests watch this counter to
  /// keep that regression from quietly coming back.
  [[nodiscard]] static std::uint64_t unsorted_percentile_sorts();

  /// Resets the slow-path counter to zero (test/benchmark setup).
  static void reset_unsorted_percentile_sorts();

  /// Merges another recorder's samples into this one.
  void merge(const LatencyRecorder& other);
  /// Same, but takes `other`'s storage when this recorder is empty.
  void merge(LatencyRecorder&& other);

  /// Discards all samples.
  void clear();

  /// Makes room for `n` samples in all, so adds up to there never move
  /// the samples.
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// The raw samples (sorted only after finalize()).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  bool sorted_ = true;
  double sum_ = 0.0;
};

/// Mean-only recorder: the sum and count of its samples, added in
/// LatencyRecorder's order (a sum per add(), then a sum per merge()), so
/// mean() equals LatencyRecorder::mean() after the same adds and merges
/// bit for bit, without keeping the samples.
class MeanRecorder {
 public:
  /// Records one sample.
  void add(double v) {
    sum_ += v;
    ++count_;
  }
  /// Number of recorded samples.
  [[nodiscard]] std::size_t count() const { return count_; }
  /// True when no samples have been recorded.
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Arithmetic mean. Precondition: !empty().
  [[nodiscard]] double mean() const;
  /// Merges another recorder's samples into this one.
  void merge(const MeanRecorder& other) {
    sum_ += other.sum_;
    count_ += other.count_;
  }

 private:
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

/// Streaming quantile estimation via the P-square algorithm (Jain & Chlamtac
/// 1985): O(1) memory, suitable for a client deciding when a request has
/// been outstanding longer than its expected 95th-percentile latency.
class P2Quantile {
 public:
  /// `q` is the target quantile in (0, 1), e.g. 0.95.
  explicit P2Quantile(double q);

  /// Feeds one observation into the estimator.
  void add(double v);

  /// Current estimate. Before 5 samples arrive, returns the interpolated
  /// q-quantile of the buffered samples; with no samples at all, returns
  /// NaN — callers must gate on count() (the R95 client already requires
  /// min_samples before trusting the estimate).
  [[nodiscard]] double estimate() const;

  /// Number of observations fed so far.
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  double q_;
  std::uint64_t count_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};
  double positions_[5] = {1, 2, 3, 4, 5};
  double desired_[5] = {0, 0, 0, 0, 0};
  double increments_[5] = {0, 0, 0, 0, 0};
};

/// Exponentially weighted moving average with smoothing factor alpha: the
/// update is avg <- alpha * avg + (1 - alpha) * sample, matching C3's usage
/// (alpha = 0.9 keeps 90% of history per update).
class Ewma {
 public:
  /// `alpha` is the history weight in [0, 1]; higher = smoother.
  explicit Ewma(double alpha) : alpha_(alpha) {}

  /// Folds one sample into the average (the first sample seeds it).
  void add(double v) {
    value_ = seeded_ ? alpha_ * value_ + (1.0 - alpha_) * v : v;
    seeded_ = true;
  }

  /// True once at least one sample has been added.
  [[nodiscard]] bool seeded() const { return seeded_; }
  /// Current average (0 before the first sample; gate on seeded()).
  [[nodiscard]] double value() const { return value_; }
  /// Current average, or `fallback` before the first sample.
  [[nodiscard]] double value_or(double fallback) const {
    return seeded_ ? value_ : fallback;
  }
  /// Returns to the unseeded state.
  void reset() {
    seeded_ = false;
    value_ = 0.0;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace netrs::sim
