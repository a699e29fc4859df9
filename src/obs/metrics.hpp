// Deterministic metrics registry sampled on simulated time.
//
// Components register gauges (pull-style callbacks over const getters),
// one per column. The harness calls sample() at every sampling grid point
// between engine windows, appending one row per tick, and takes the rows
// out at each flush: they become one chunk of a long-format CSV time
// series and are folded into a compact per-metric summary for the harness
// report, so the registry holds one interval's rows at a time.
//
// Determinism contract: the column layout is the registration order
// (never hash order), sampling reads const state only, and all value
// formatting goes through a locale-independent fixed-format printer —
// so the CSV is bit-identical for a given seed at any --jobs value.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/text_sink.hpp"
#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::obs {

/// Metrics sampling tick, in simulated time: the harness samples the
/// registry at every multiple of it up to the end of the run.
inline constexpr sim::Duration kSampleInterval = 5 * sim::kMillisecond;

/// Upper bounds of the `latency_ms` histogram buckets in simulated ns:
/// 1, 2, 4, ..., 256 ms, followed by one overflow bucket.
inline constexpr std::array<sim::Duration, 9> kLatencyBucketBounds = {
    1 * sim::kMillisecond,  2 * sim::kMillisecond,  4 * sim::kMillisecond,
    8 * sim::kMillisecond,  16 * sim::kMillisecond, 32 * sim::kMillisecond,
    64 * sim::kMillisecond, 128 * sim::kMillisecond, 256 * sim::kMillisecond};

/// Fixed-bucket latency histogram in the Prometheus "le" style: a value
/// lands in the first bucket whose upper bound is >= the value, and values
/// above the last bound land in the overflow bucket. Counts and the sum
/// are integers (the sum in exact ns), so folding histograms is plain
/// integer addition: order-independent, hence byte-identical at any shard
/// count. Each shard's tally owns one and fills it from its own thread.
struct NETRS_SHARD_LOCAL LatencyHistogram {
  /// Observation count per bucket, not cumulative; the last is overflow.
  std::array<std::uint64_t, kLatencyBucketBounds.size() + 1> buckets{};
  /// Total observations.
  std::uint64_t count = 0;
  /// Exact sum of the observed values, ns.
  std::uint64_t sum_ns = 0;

  /// Records one observation of `v` simulated nanoseconds.
  void add(sim::Duration v);
  /// Adds `o`'s counts and sum into this one.
  void merge(const LatencyHistogram& o);
};

/// Sampled rows taken from a repeat's registry (one chunk: the ticks
/// since the previous take): the column names, which columns feed the
/// report summary, and one row per tick, stored as one flat row-major
/// table.
struct NETRS_SHARED_IMMUTABLE MetricsSnapshot {
  /// Column names in registration order.
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
  /// Column name.
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
  /// The summarized columns' samples, in repeat and tick order, kept until
  /// finalize() folds them into running means in that order.
  MetricsSnapshot kept;

  /// True once kept samples have been folded into the entries.
  [[nodiscard]] bool enabled() const { return !entries.empty(); }

  /// Appends the summarized columns of `chunk`'s rows to `kept` (sized on
  /// first use for `ticks` rows); every chunk has the same columns.
  void keep(const MetricsSnapshot& chunk, std::size_t ticks);
  /// Appends a later repeat's kept samples (repeats in order); moves them
  /// when none are kept yet.
  void merge(MetricsSummary&& later);
  /// Folds the kept samples, in order, into the entries and drops them.
  void finalize();
};

/// Registry of gauges, one per column, with a deterministic
/// registration-ordered column layout. One instance per repeat.
class NETRS_COORD_GLOBAL MetricsRegistry {
 public:
  /// Pull-style gauge callback; must only read const simulation state.
  using GaugeFn = std::function<double()>;

  /// Registers a pull gauge evaluated at each tick. `summarize` selects
  /// whether the column appears in the report summary table.
  void gauge(std::string name, GaugeFn fn, bool summarize = true);

  /// Appends one sample row at simulated time `now`. Registration must
  /// be finished before the first tick (the column layout freezes then).
  void sample(sim::Time now);

  /// The column names and summary flags, without rows.
  [[nodiscard]] MetricsSnapshot layout() const;

  /// Appends the rows sampled since the last take to `into`'s rows,
  /// leaving its layout alone, and empties the registry's rows. The
  /// registry keeps its gauges and its buffers' capacity, so a chunk that
  /// keeps its own capacity allocates nothing once both have grown.
  void take(MetricsSnapshot& into);

 private:
  struct Gauge {
    std::string name;
    GaugeFn fn;
    bool summarize;
  };

  std::vector<Gauge> gauges_;
  std::vector<sim::Time> times_;  // one per sampled row
  std::vector<double> values_;    // row-major, one value per gauge per row
};

/// Formats a metric value for CSV/report output: integers print exactly
/// ("17"), everything else as "%.9g". Locale-independent. A string
/// wrapper over write_metric_value() (obs/text_sink.hpp), the one path the
/// obs writers use.
[[nodiscard]] std::string format_metric_value(double v);

/// Writes the long-format metrics CSV header `repeat,time_us,metric,value`.
void write_metrics_header(TextSink& out);

/// Writes one row per (tick, column) of `chunk`, tagged with `repeat`.
/// Chunks written in order after the header, repeats in order, make the
/// file; it is bit-identical at any --jobs value.
void write_metrics_rows(TextSink& out, std::size_t repeat,
                        const MetricsSnapshot& chunk);

}  // namespace netrs::obs
