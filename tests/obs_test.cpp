// Unit tests for the observability layer (src/obs): trace-ring
// wraparound semantics, Chrome-JSON escaping and formatting, histogram
// bucket-edge behavior, and the metrics registry's registration-ordered
// column layout plus its summary merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/shard_obs.hpp"
#include "obs/trace.hpp"

namespace netrs::obs {
namespace {

// A one-repeat trace file holding `snap`, as the harness writes it.
std::string trace_json(const TraceSnapshot& snap) {
  std::ostringstream os;
  {
    TextSink out(os);
    write_trace_begin(out);
    write_trace_repeat(out, 0, snap);
    write_trace_end(out);
  }
  return os.str();
}

TraceEvent instant_at(sim::Time ts, std::uint64_t id) {
  TraceEvent e;
  e.name = "ev";
  e.cat = "test";
  e.phase = 'i';
  e.tid = 1;
  e.ts = ts;
  e.id = id;
  return e;
}

TEST(TraceRingTest, RetainsEventsInRecordOrderBeforeWrap) {
  TraceRing ring(4);
  ASSERT_TRUE(ring.enabled());
  for (std::uint64_t i = 0; i < 3; ++i) ring.record(instant_at(10 * i, i));
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<TraceEvent> events = ring.in_order();
  ASSERT_EQ(events.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(events[i].id, i);
}

TEST(TraceRingTest, WraparoundDropsOldestKeepsNewest) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.record(instant_at(10 * i, i));
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  const std::vector<TraceEvent> events = ring.in_order();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: ids 6,7,8,9 survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].id, 6u + i);
    EXPECT_EQ(events[i].ts, 10 * static_cast<sim::Time>(6 + i));
  }
}

TEST(TraceRingTest, ExactCapacityFillDoesNotDrop) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i) ring.record(instant_at(i, i));
  EXPECT_EQ(ring.recorded(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<TraceEvent> events = ring.in_order();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().id, 0u);
  EXPECT_EQ(events.back().id, 3u);
}

TEST(TraceRingTest, ZeroCapacityDisablesRecording) {
  TraceRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.record(instant_at(1, 1));
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.in_order().empty());
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // Non-ASCII UTF-8 passes through byte-for-byte.
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(ChromeTraceTest, EmitsSpansInstantsAndMetadata) {
  TraceRing ring(8);
  TraceEvent span;
  span.name = "kv.service";
  span.cat = "kv";
  span.phase = 'X';
  span.tid = 7;
  span.ts = 1500;  // 1.5 us
  span.dur = 2000;
  span.id = 42;
  span.arg0_name = "server";
  span.arg0 = 7;
  ring.record(span);
  ring.record(instant_at(3000, 43));
  ring.set_tid_name(7, "server@h7");

  TraceSnapshot snap;
  snap.events = ring.in_order();
  snap.tid_names = ring.tid_names();
  snap.recorded = ring.recorded();
  snap.dropped = ring.dropped();

  const std::string out = trace_json(snap);
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"kv.service\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  // 1500 ns -> 1.5 us, 2000 ns -> 2 us, with trailing zeros trimmed.
  EXPECT_NE(out.find("\"ts\":1.5"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":2,"), std::string::npos);
  EXPECT_NE(out.find("\"req\":42"), std::string::npos);
  EXPECT_NE(out.find("\"server\":7"), std::string::npos);
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("server@h7"), std::string::npos);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  // Instants carry the thread scope marker.
  EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
}

TEST(ChromeTraceTest, EscapesNamesThatNeedIt) {
  // Names are usually plain literals and are copied as is; one holding a
  // quote, a backslash or a control character still goes through
  // json_escape().
  TraceEvent span;
  span.name = "say \"hi\"";
  span.cat = "c\\d";
  span.phase = 'X';
  span.tid = 2;
  span.ts = 1000;
  span.dur = 1000;
  span.arg0_name = "tab\there";
  span.arg0 = 5;
  span.arg1_name = "plain";
  span.arg1 = 6;
  TraceSnapshot snap;
  snap.events = {span};
  snap.tid_names[2] = "line\nbreak";

  const std::string out = trace_json(snap);
  EXPECT_NE(out.find("\"name\":\"say \\\"hi\\\"\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"cat\":\"c\\\\d\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"args\":{\"tab\\there\":5,\"plain\":6}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("{\"name\":\"line\\nbreak\"}"), std::string::npos)
      << out;
}

TEST(HistogramTest, ValueOnBoundaryLandsInThatBucket) {
  LatencyHistogram h;  // bounds 1, 2, 4, ..., 256 ms + overflow
  ASSERT_EQ(h.buckets.size(), 10u);
  h.add(sim::millis(1));     // == first bound -> bucket 0
  h.add(1'000'001);          // 1 ns above it -> bucket 1 (le 2)
  h.add(sim::millis(2));     // == second bound -> bucket 1
  h.add(sim::millis(4));     // == third bound -> bucket 2
  h.add(sim::millis(256));   // == last bound -> bucket 8
  h.add(sim::micros(256001));  // overflow
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 2u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[8], 1u);
  EXPECT_EQ(h.buckets[9], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum_ns, 520'001'001u);  // exact
}

TEST(HistogramTest, ValueBelowFirstBoundLandsInFirstBucket) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.add(0);
  b.add(sim::micros(900));
  b.add(sim::millis(9));
  a.merge(b);  // folding is plain addition
  EXPECT_EQ(a.buckets[0], 2u);
  EXPECT_EQ(a.buckets[1], 0u);
  EXPECT_EQ(a.buckets[4], 1u);  // 9 ms in le 16
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum_ns, 9'900'000u);
}

TEST(FormatMetricValueTest, IntegersExactOthersNineSigFigs) {
  EXPECT_EQ(format_metric_value(0.0), "0");
  EXPECT_EQ(format_metric_value(17.0), "17");
  EXPECT_EQ(format_metric_value(-3.0), "-3");
  EXPECT_EQ(format_metric_value(1.5), "1.5");
  EXPECT_EQ(format_metric_value(0.125), "0.125");
}

TEST(MetricsRegistryTest, ColumnsFollowRegistrationOrder) {
  MetricsRegistry reg;
  double reqs = 5.0;
  reg.gauge("reqs", [&reqs] { return reqs; });
  reg.gauge("depth", [] { return 3.0; }, false);
  reg.gauge("lat.count", [&reqs] { return 2.0 * reqs; });

  reg.sample(1000);
  reqs = 8.0;
  reg.sample(2000);

  MetricsSnapshot snap = reg.layout();
  reg.take(snap);
  const std::vector<std::string> want = {"reqs", "depth", "lat.count"};
  EXPECT_EQ(snap.columns, want);
  EXPECT_EQ(snap.summarize, (std::vector<std::uint8_t>{1, 0, 1}));
  ASSERT_EQ(snap.rows(), 2u);
  ASSERT_EQ(snap.values.size(), 2 * want.size());
  EXPECT_EQ(snap.times[0], 1000);
  EXPECT_EQ(snap.times[1], 2000);
  EXPECT_DOUBLE_EQ(snap.value(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(snap.value(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(snap.value(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(snap.value(1, 0), 8.0);
  EXPECT_DOUBLE_EQ(snap.value(1, 2), 16.0);
  // take() moved the rows out; the metrics stay registered.
  reg.sample(3000);
  MetricsSnapshot next = reg.layout();
  reg.take(next);
  EXPECT_EQ(next.columns, want);
  EXPECT_EQ(next.rows(), 1u);
}

TEST(MetricsRegistryTest, SummaryMergeAcrossRepeats) {
  MetricsSnapshot a;
  a.columns = {"x", "noise"};
  a.summarize = {1, 0};
  a.times = {1000, 2000};
  a.values = {2.0, 9.0, 4.0, 9.0};
  MetricsSnapshot b = a;
  b.values = {6.0, 9.0, 8.0, 9.0};

  // Two repeats keep their rows; the merged summary folds them in order.
  MetricsSummary sum;
  MetricsSummary later;
  sum.keep(a, a.rows());
  later.keep(b, b.rows());
  sum.merge(std::move(later));
  EXPECT_FALSE(sum.enabled());
  sum.finalize();
  ASSERT_TRUE(sum.enabled());
  // Only the summarized column appears.
  ASSERT_EQ(sum.entries.size(), 1u);
  const MetricSummaryEntry& e = sum.entries[0];
  EXPECT_EQ(e.name, "x");
  EXPECT_EQ(e.samples, 4u);
  EXPECT_DOUBLE_EQ(e.min, 2.0);
  EXPECT_DOUBLE_EQ(e.max, 8.0);
  EXPECT_DOUBLE_EQ(e.mean, 5.0);
  EXPECT_DOUBLE_EQ(e.last, 8.0);
}

TEST(MetricsCsvTest, LongFormatWithRepeatColumn) {
  MetricsSnapshot snap;
  snap.columns = {"a", "b"};
  snap.summarize = {1, 1};
  snap.times = {5000};
  snap.values = {1.0, 2.5};

  std::ostringstream os;
  {
    TextSink sink(os);
    write_metrics_header(sink);
    write_metrics_rows(sink, 0, snap);
    write_metrics_rows(sink, 1, snap);
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("repeat,time_us,metric,value\n"), std::string::npos);
  EXPECT_NE(out.find("0,5,a,1\n"), std::string::npos);
  EXPECT_NE(out.find("0,5,b,2.5\n"), std::string::npos);
  EXPECT_NE(out.find("1,5,a,1\n"), std::string::npos);
}

TEST(ObserverTest, TracingOffMakesSpanRecordingFree) {
  ObsConfig cfg;
  cfg.metrics_path = "unused.csv";  // metrics on, tracing off
  Observer obs(cfg);
  EXPECT_FALSE(obs.tracing());
  EXPECT_TRUE(ShardObserverSet(cfg, 1).metering());
  // Safe no-op even with tracing disabled (metrics-only runs still call
  // through the same instrumentation sites).
  obs.span("x", "t", 1, 0, 10);
  obs.instant("y", "t", 1, 5);
  EXPECT_EQ(obs.ring().recorded(), 0u);
}

TEST(ObserverTest, SnapshotCarriesCountersAndNames) {
  ObsConfig cfg;
  cfg.trace_path = "unused.json";
  cfg.trace_capacity = 2;
  Observer obs(cfg);
  EXPECT_TRUE(obs.tracing());
  obs.instant("a", "t", 3, 1);
  obs.instant("b", "t", 3, 2);
  obs.instant("c", "t", 3, 3);
  obs.set_tid_name(3, "sw3");
  const TraceSnapshot snap = obs.take_trace();
  EXPECT_EQ(snap.recorded, 3u);
  EXPECT_EQ(snap.dropped, 1u);
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(std::string(snap.events[0].name), "b");
  ASSERT_EQ(snap.tid_names.count(3), 1u);
  EXPECT_EQ(snap.tid_names.at(3), "sw3");
}

}  // namespace
}  // namespace netrs::obs
