// Deterministic metrics registry sampled on simulated time.
//
// Components register gauges (pull-style callbacks over const getters)
// and shard-laned fixed-bucket histograms. The harness calls sample() at
// every sampling grid point between engine windows, appending one row per
// tick; after the run the rows become a long-format CSV time series plus
// a compact per-metric summary for the harness report.
//
// Determinism contract: the column layout is the registration order
// (never hash order), sampling reads const state only, and all value
// formatting goes through a locale-independent fixed-format printer —
// so the CSV is bit-identical for a given seed at any --jobs value.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::obs {

/// Metrics sampling tick, in simulated time: the harness samples the
/// registry at every multiple of it up to the end of the run.
inline constexpr sim::Duration kSampleInterval = 5 * sim::kMillisecond;

/// Fixed-bucket histogram in the Prometheus "le" style (a value lands in
/// the first bucket whose upper bound is >= the value; values above the
/// last bound land in the overflow bucket), safe to feed from shard worker
/// threads: each shard owns one cache-line-isolated lane (single writer)
/// accumulating integer bucket counts and an exact nanosecond sum, and
/// the read side folds the lanes by plain integer addition in lane order
/// at sample time — order-independent, so the expanded columns are
/// byte-identical at any shard count. Reads must happen at engine
/// quiescence (between ShardGroup::run_until windows), which is where the
/// harness samples. Marked shard-local because each lane belongs to
/// exactly one shard's thread.
class NETRS_SHARD_LOCAL ShardedHistogram {
 public:
  /// Creates a histogram with the given strictly increasing upper bounds
  /// in milliseconds (one overflow bucket is added implicitly) and one
  /// write lane per shard (`lanes` >= 1).
  ShardedHistogram(std::vector<double> bounds, int lanes);

  /// Records one observation of `v` simulated nanoseconds on `lane`.
  /// Only that lane's owning shard thread may call this.
  void add(int lane, sim::Duration v);

  /// Upper bounds in ms as configured (excludes the overflow bucket).
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

  /// Number of buckets including the overflow bucket.
  [[nodiscard]] std::size_t bucket_count() const {
    return bounds_.size() + 1;
  }

  /// Observation count in bucket `i`, folded over all lanes (the last
  /// index is the overflow bucket). Not cumulative.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const;

  /// Total observations over all lanes.
  [[nodiscard]] std::uint64_t count() const;

  /// Sum of all observed values in milliseconds (exact integer ns sum,
  /// converted once).
  [[nodiscard]] double sum() const;

 private:
  /// One shard's single-writer accumulator, padded to its own cache line.
  struct alignas(64) Lane {
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
  };

  std::vector<double> bounds_;        // ms, for column labels
  std::vector<sim::Duration> bounds_ns_;  // exact ns thresholds
  std::vector<Lane> lanes_;
};

/// One sampled time series extracted from a repeat: the expanded column
/// names, which columns feed the report summary, and one row per tick,
/// stored as one flat row-major table.
struct NETRS_SHARED_IMMUTABLE MetricsSnapshot {
  /// Expanded column names in registration order (histograms expand to
  /// `<name>.le_<bound>` buckets plus `<name>.count` / `<name>.sum`).
  std::vector<std::string> columns;
  /// Per-column flag: include this column in the report summary table.
  std::vector<std::uint8_t> summarize;
  /// Simulated time of each tick (one per row), ns, in tick order.
  std::vector<sim::Time> times;
  /// Row-major samples, columns.size() per row.
  std::vector<double> values;

  /// Number of sampled rows.
  [[nodiscard]] std::size_t rows() const { return times.size(); }
  /// The sample of column `col` at row `row`.
  [[nodiscard]] double value(std::size_t row, std::size_t col) const {
    return values[row * columns.size() + col];
  }
};

/// Per-column aggregate over every tick of every repeat, shown as the
/// "Metrics summary" table in the harness report.
struct NETRS_SHARED_IMMUTABLE MetricSummaryEntry {
  /// Expanded column name.
  std::string name;
  /// Number of contributing samples (ticks x repeats).
  std::uint64_t samples = 0;
  /// Smallest sampled value.
  double min = 0.0;
  /// Largest sampled value.
  double max = 0.0;
  /// Mean over all samples.
  double mean = 0.0;
  /// Value at the last tick (of the last merged repeat).
  double last = 0.0;
};

/// Summary rows for every summarized column; merged across repeats in
/// repeat order.
struct NETRS_SHARED_IMMUTABLE MetricsSummary {
  /// One entry per summarized column, registration order.
  std::vector<MetricSummaryEntry> entries;

  /// True once at least one snapshot has been merged.
  [[nodiscard]] bool enabled() const { return !entries.empty(); }

  /// Folds one repeat's snapshot into the running summary. Column sets
  /// must match across merged snapshots (they do: every repeat registers
  /// the same metrics in the same order).
  void merge(const MetricsSnapshot& snap);
};

/// Registry of gauges and sharded histograms with a deterministic,
/// registration-ordered column layout. One instance per repeat.
class NETRS_COORD_GLOBAL MetricsRegistry {
 public:
  /// Pull-style gauge callback; must only read const simulation state.
  using GaugeFn = std::function<double()>;

  /// Registers a pull gauge evaluated at each tick. `summarize` selects
  /// whether the column appears in the report summary table.
  void gauge(std::string name, GaugeFn fn, bool summarize = true);

  /// Registers a shard-laned histogram (bounds in ms, one lane per
  /// shard) and returns a stable pointer the owners feed via
  /// ShardedHistogram::add. Expands to `<name>.le_<bound>` buckets,
  /// `<name>.le_inf`, `<name>.count` and `<name>.sum`.
  ShardedHistogram* sharded_histogram(std::string name,
                                      std::vector<double> bounds, int lanes,
                                      bool summarize = true);

  /// Number of registered metrics (pre-expansion).
  [[nodiscard]] std::size_t metric_count() const { return metrics_.size(); }

  /// Appends one sample row at simulated time `now`. Registration must
  /// be finished before the first tick (the column layout freezes then).
  void sample(sim::Time now);

  /// Moves the sampled series out (column names, summary flags, rows);
  /// the registry keeps its metrics but no rows.
  [[nodiscard]] MetricsSnapshot take();

 private:
  enum class Kind { kGauge, kShardedHistogram };

  struct Metric {
    std::string name;
    Kind kind;
    bool summarize;
    std::size_t index;  // into the kind-specific storage below
  };

  std::vector<Metric> metrics_;
  std::vector<GaugeFn> gauges_;
  std::deque<ShardedHistogram> sharded_;  // deque: stable addresses
  std::vector<sim::Time> times_;  // one per sampled row
  std::vector<double> values_;    // row-major, columns_ per row
  std::size_t columns_ = 0;  // frozen at first sample()
};

/// Formats a metric value for CSV/report output: integers print exactly
/// ("17"), everything else as "%.9g". Locale-independent. A string
/// wrapper over write_metric_value() (obs/text_sink.hpp), the one path the
/// obs writers use.
[[nodiscard]] std::string format_metric_value(double v);

/// Formats simulated nanoseconds as a microsecond decimal string with
/// exact remainder and trailing zeros stripped ("1250.5"), integer
/// arithmetic only — the shared `time_us` CSV column format. A string
/// wrapper over write_time_us() (obs/text_sink.hpp).
[[nodiscard]] std::string format_time_us(sim::Time t);

/// Writes the merged long-format CSV: header
/// `repeat,time_us,metric,value`, then one row per (repeat, tick,
/// column), repeats in order, through one buffered TextSink.
/// Bit-identical at any --jobs value.
void write_metrics_csv(std::ostream& os,
                       const std::vector<MetricsSnapshot>& repeats);

}  // namespace netrs::obs
