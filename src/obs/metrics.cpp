#include "obs/metrics.hpp"

#include <cassert>
#include <cmath>
#include <string_view>

#include "obs/text_sink.hpp"

namespace netrs::obs {
namespace {

/// Expanded column label for one histogram bucket upper bound.
std::string bucket_label(const std::string& name, double bound) {
  return name + ".le_" + format_metric_value(bound);
}

}  // namespace

ShardedHistogram::ShardedHistogram(std::vector<double> bounds, int lanes)
    : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    assert(bounds_[i - 1] < bounds_[i] && "histogram bounds must increase");
  }
  bounds_ns_.reserve(bounds_.size());
  for (const double b : bounds_) {
    bounds_ns_.push_back(static_cast<sim::Duration>(std::llround(b * 1e6)));
  }
  if (lanes < 1) lanes = 1;
  lanes_.resize(static_cast<std::size_t>(lanes));
  for (Lane& lane : lanes_) {
    lane.counts.assign(bounds_.size() + 1, 0);
  }
}

void ShardedHistogram::add(int lane, sim::Duration v) {
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  std::size_t i = 0;
  while (i < bounds_ns_.size() && v > bounds_ns_[i]) ++i;
  ++l.counts[i];
  ++l.count;
  l.sum_ns += static_cast<std::uint64_t>(v);
}

std::uint64_t ShardedHistogram::bucket(std::size_t i) const {
  std::uint64_t total = 0;
  for (const Lane& l : lanes_) total += l.counts[i];
  return total;
}

std::uint64_t ShardedHistogram::count() const {
  std::uint64_t total = 0;
  for (const Lane& l : lanes_) total += l.count;
  return total;
}

double ShardedHistogram::sum() const {
  std::uint64_t total_ns = 0;
  for (const Lane& l : lanes_) total_ns += l.sum_ns;
  return static_cast<double>(total_ns) * 1e-6;
}

void MetricsSummary::merge(const MetricsSnapshot& snap) {
  if (snap.rows() == 0) return;
  if (entries.empty()) {
    for (std::size_t c = 0; c < snap.columns.size(); ++c) {
      if (snap.summarize[c] == 0) continue;
      MetricSummaryEntry e;
      e.name = snap.columns[c];
      entries.push_back(std::move(e));
    }
  }
  std::size_t out = 0;
  for (std::size_t c = 0; c < snap.columns.size(); ++c) {
    if (snap.summarize[c] == 0) continue;
    assert(out < entries.size() && entries[out].name == snap.columns[c] &&
           "merged snapshots must share one column layout");
    MetricSummaryEntry& e = entries[out++];
    for (std::size_t row = 0; row < snap.rows(); ++row) {
      const double v = snap.value(row, c);
      if (e.samples == 0) {
        e.min = e.max = v;
      } else {
        if (v < e.min) e.min = v;
        if (v > e.max) e.max = v;
      }
      // Running mean keeps the merge independent of how repeats are
      // batched (same fold order as the serial harness).
      ++e.samples;
      e.mean += (v - e.mean) / static_cast<double>(e.samples);
      e.last = v;
    }
  }
}

void MetricsRegistry::gauge(std::string name, GaugeFn fn, bool summarize) {
  assert(times_.empty() && "register metrics before the first sample");
  gauges_.push_back(std::move(fn));
  metrics_.push_back(
      {std::move(name), Kind::kGauge, summarize, gauges_.size() - 1});
}

ShardedHistogram* MetricsRegistry::sharded_histogram(std::string name,
                                                     std::vector<double> bounds,
                                                     int lanes,
                                                     bool summarize) {
  assert(times_.empty() && "register metrics before the first sample");
  sharded_.emplace_back(std::move(bounds), lanes);
  metrics_.push_back({std::move(name), Kind::kShardedHistogram, summarize,
                      sharded_.size() - 1});
  return &sharded_.back();
}

void MetricsRegistry::sample(sim::Time now) {
  if (columns_ == 0) {
    for (const Metric& m : metrics_) {
      columns_ += m.kind == Kind::kShardedHistogram
                      ? sharded_[m.index].bucket_count() + 2
                      : 1;
    }
  }
  times_.push_back(now);
  for (const Metric& m : metrics_) {
    if (m.kind == Kind::kGauge) {
      values_.push_back(gauges_[m.index]());
      continue;
    }
    const ShardedHistogram& h = sharded_[m.index];
    for (std::size_t b = 0; b < h.bucket_count(); ++b) {
      values_.push_back(static_cast<double>(h.bucket(b)));
    }
    values_.push_back(static_cast<double>(h.count()));
    values_.push_back(h.sum());
  }
}

MetricsSnapshot MetricsRegistry::take() {
  MetricsSnapshot snap;
  for (const Metric& m : metrics_) {
    if (m.kind == Kind::kGauge) {
      snap.columns.push_back(m.name);
      snap.summarize.push_back(m.summarize ? 1 : 0);
      continue;
    }
    for (const double bound : sharded_[m.index].bounds()) {
      snap.columns.push_back(bucket_label(m.name, bound));
      snap.summarize.push_back(0);
    }
    snap.columns.push_back(m.name + ".le_inf");
    snap.summarize.push_back(0);
    snap.columns.push_back(m.name + ".count");
    snap.summarize.push_back(m.summarize ? 1 : 0);
    snap.columns.push_back(m.name + ".sum");
    snap.summarize.push_back(0);
  }
  snap.times = std::move(times_);
  snap.values = std::move(values_);
  times_.clear();
  values_.clear();
  return snap;
}

std::string format_metric_value(double v) {
  char buf[kMaxNumberChars];
  return std::string(buf, write_metric_value(buf, v));
}

std::string format_time_us(sim::Time t) {
  char buf[kMaxNumberChars];
  return std::string(buf, write_time_us(buf, t));
}

void write_metrics_csv(std::ostream& os,
                       const std::vector<MetricsSnapshot>& repeats) {
  TextSink out(os);
  out.put("repeat,time_us,metric,value\n");
  for (std::size_t rep = 0; rep < repeats.size(); ++rep) {
    const MetricsSnapshot& snap = repeats[rep];
    for (std::size_t row = 0; row < snap.rows(); ++row) {
      // "repeat,time_us," is shared by every column of the tick.
      char prefix[2 * kMaxNumberChars + 2];
      char* p = write_int(prefix, rep);
      *p++ = ',';
      p = write_time_us(p, snap.times[row]);
      *p++ = ',';
      const std::string_view tick(prefix,
                                  static_cast<std::size_t>(p - prefix));
      for (std::size_t c = 0; c < snap.columns.size(); ++c) {
        out.put(tick).put(snap.columns[c]).put(',')
            .put_metric(snap.value(row, c)).put('\n');
      }
    }
  }
}

}  // namespace netrs::obs
