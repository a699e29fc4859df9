#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <utility>

#include "obs/text_sink.hpp"

namespace netrs::obs {

void LatencyHistogram::add(sim::Duration v) {
  std::size_t i = 0;
  while (i < kLatencyBucketBounds.size() && v > kLatencyBucketBounds[i]) ++i;
  ++buckets[i];
  ++count;
  sum_ns += static_cast<std::uint64_t>(v);
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  count += o.count;
  sum_ns += o.sum_ns;
}

void MetricsSummary::keep(const MetricsSnapshot& chunk, std::size_t ticks) {
  if (chunk.rows() == 0) return;
  if (kept.columns.empty()) {
    for (std::size_t c = 0; c < chunk.columns.size(); ++c) {
      if (chunk.summarize[c] == 0) continue;
      kept.columns.push_back(chunk.columns[c]);
    }
    kept.times.reserve(ticks);
    kept.values.reserve(ticks * kept.columns.size());
  }
  for (std::size_t row = 0; row < chunk.rows(); ++row) {
    kept.times.push_back(chunk.times[row]);
    for (std::size_t c = 0; c < chunk.columns.size(); ++c) {
      if (chunk.summarize[c] != 0) kept.values.push_back(chunk.value(row, c));
    }
  }
  assert(kept.values.size() == kept.rows() * kept.columns.size() &&
         "kept chunks must share one column layout");
}

void MetricsSummary::merge(MetricsSummary&& later) {
  if (later.kept.rows() == 0) return;
  if (kept.rows() == 0) {
    kept = std::move(later.kept);
    return;
  }
  kept.times.insert(kept.times.end(), later.kept.times.begin(),
                    later.kept.times.end());
  kept.values.insert(kept.values.end(), later.kept.values.begin(),
                     later.kept.values.end());
}

void MetricsSummary::finalize() {
  if (entries.empty()) {
    for (const std::string& name : kept.columns) {
      entries.push_back({.name = name});
    }
  }
  for (std::size_t row = 0; row < kept.rows(); ++row) {
    for (std::size_t c = 0; c < entries.size(); ++c) {
      const double v = kept.value(row, c);
      MetricSummaryEntry& e = entries[c];
      e.min = e.samples == 0 ? v : std::min(e.min, v);
      e.max = e.samples == 0 ? v : std::max(e.max, v);
      // Running mean over every sample of every repeat in repeat order,
      // so the result does not depend on how the repeats were batched.
      ++e.samples;
      e.mean += (v - e.mean) / static_cast<double>(e.samples);
      e.last = v;
    }
  }
  kept = MetricsSnapshot{};
}

void MetricsRegistry::gauge(std::string name, GaugeFn fn, bool summarize) {
  assert(times_.empty() && "register metrics before the first sample");
  gauges_.push_back({std::move(name), std::move(fn), summarize});
}

void MetricsRegistry::sample(sim::Time now) {
  // Grow by whole rows: a buffer that holds one row per take allocates
  // once, not once per doubling.
  if (values_.capacity() - values_.size() < gauges_.size()) {
    values_.reserve(
        std::max(2 * values_.capacity(), values_.size() + gauges_.size()));
  }
  times_.push_back(now);
  for (const Gauge& g : gauges_) values_.push_back(g.fn());
}

MetricsSnapshot MetricsRegistry::layout() const {
  MetricsSnapshot snap;
  for (const Gauge& g : gauges_) {
    snap.columns.push_back(g.name);
    snap.summarize.push_back(g.summarize ? 1 : 0);
  }
  return snap;
}

void MetricsRegistry::take(MetricsSnapshot& into) {
  into.times.swap(times_);
  into.values.swap(values_);
  times_.clear();
  values_.clear();
}

std::string format_metric_value(double v) {
  char buf[kMaxNumberChars];
  return std::string(buf, write_metric_value(buf, v));
}

void write_metrics_header(TextSink& out) {
  out.put("repeat,time_us,metric,value\n");
}

void write_metrics_rows(TextSink& out, std::size_t repeat,
                        const MetricsSnapshot& chunk) {
  for (std::size_t row = 0; row < chunk.rows(); ++row) {
    // "repeat,time_us," is shared by every column of the tick.
    char prefix[2 * kMaxNumberChars + 2];
    char* p = write_int(prefix, repeat);
    *p++ = ',';
    p = write_time_us(p, chunk.times[row]);
    *p++ = ',';
    const std::string_view tick(prefix, static_cast<std::size_t>(p - prefix));
    for (std::size_t c = 0; c < chunk.columns.size(); ++c) {
      out.put(tick).put(chunk.columns[c]).put(',')
          .put_metric(chunk.value(row, c)).put('\n');
    }
  }
}

}  // namespace netrs::obs
