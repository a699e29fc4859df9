// Deterministic per-request trace recorder.
//
// Components record fixed-size TraceEvent entries (lifecycle spans and
// instants keyed by the packet's simulation-side request id) into a
// bounded ring buffer; when the buffer is full the oldest events are
// overwritten, so memory stays bounded no matter how long the run is.
// At the end of each repeat the retained events are emitted as that
// repeat's section of a Chrome trace-event JSON file ("traceEvents"
// array), loadable in Perfetto / chrome://tracing.
//
// Determinism contract: recording is observation-only (no RNG, no
// wall-clock, no feedback into simulated behavior), entry order is the
// deterministic record order of a single-threaded simulation, and the
// JSON writer formats everything through locale-independent integer
// arithmetic — so the emitted file is bit-identical for a given seed at
// any harness --jobs value.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/text_sink.hpp"
#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::obs {

/// One recorded trace entry. Fixed size and allocation-free on record:
/// `name`/`cat`/argument names must point at string literals (or other
/// storage outliving the recorder) — the ring never copies them.
struct NETRS_SHARED_IMMUTABLE TraceEvent {
  /// Span/instant name (Chrome "name"); a string literal.
  const char* name = nullptr;
  /// Category (Chrome "cat"), e.g. "cli", "sw", "rs", "accel", "kv".
  const char* cat = nullptr;
  /// Chrome phase: 'X' = complete span (ts + dur), 'i' = instant.
  char phase = 'i';
  /// Thread id in the emitted trace; the recording node's NodeId.
  std::int32_t tid = -1;
  /// Event start, in simulated nanoseconds.
  sim::Time ts = 0;
  /// Span duration in nanoseconds ('X' events only).
  sim::Duration dur = 0;
  /// End-to-end request correlation id (PacketMeta::request_id); emitted
  /// as args.req when non-zero.
  std::uint64_t id = 0;
  /// Name of the first extra argument; nullptr = absent.
  const char* arg0_name = nullptr;
  /// Value of the first extra argument.
  std::uint64_t arg0 = 0;
  /// Name of the second extra argument; nullptr = absent.
  const char* arg1_name = nullptr;
  /// Value of the second extra argument.
  std::uint64_t arg1 = 0;
};

/// Bounded ring buffer of TraceEvents. Capacity 0 disables recording
/// entirely (record() is a cheap early-out branch). One ring per shard's
/// Observer; merge_traces() folds the rings at the end of the repeat.
class NETRS_SHARD_LOCAL TraceRing {
 public:
  /// Creates a ring retaining at most `capacity` events (0 = disabled).
  /// All storage is allocated up front; record() never allocates.
  explicit TraceRing(std::size_t capacity);

  /// True when recording is enabled (capacity > 0).
  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

  /// Appends an event, overwriting the oldest once full. No-op when
  /// disabled.
  void record(const TraceEvent& e);

  /// Total events ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Events currently retained.
  [[nodiscard]] std::size_t size() const { return ring_.size(); }

  /// Configured capacity.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Retained events oldest-first (record order).
  [[nodiscard]] std::vector<TraceEvent> in_order() const;

  /// Names the thread `tid` for the emitted trace (Chrome thread_name
  /// metadata), e.g. "server@h17". Last writer wins.
  void set_tid_name(std::int32_t tid, std::string name);

  /// Registered tid -> display-name mapping (ordered: emitters iterate it).
  [[nodiscard]] const std::map<std::int32_t, std::string>& tid_names() const {
    return tid_names_;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest entry once the ring has wrapped
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> ring_;
  std::map<std::int32_t, std::string> tid_names_;
};

/// Everything one repeat contributes to the merged trace file: the
/// retained events, the tid naming, and the loss counters.
struct NETRS_SHARED_IMMUTABLE TraceSnapshot {
  /// Retained events, oldest-first.
  std::vector<TraceEvent> events;
  /// tid -> display name (ordered for deterministic emission).
  std::map<std::int32_t, std::string> tid_names;
  /// Total events recorded by the repeat (including overwritten).
  std::uint64_t recorded = 0;
  /// Events lost to ring wraparound.
  std::uint64_t dropped = 0;
};

/// Merges the per-shard ring snapshots of one repeat (plus the
/// coordinator's) into a single snapshot, deterministically: all retained
/// events are stable-sorted by (record time, tid) — where a span's record
/// time is its end (`ts + dur`), the instant its ring saw it — and the
/// newest `capacity` events are kept, mirroring the single-ring overwrite
/// policy. Per-tid event streams are shard-count-invariant (a node lives
/// on one shard and event times match the serial core, DESIGN.md §4.10),
/// so as long as no ring wrapped the result is byte-identical at any
/// --shards value; the harness routes --shards 1 through this same merge.
/// `recorded` sums the parts; `dropped` counts everything not retained
/// (ring wraps plus merge-time trimming). tid names take the union. The
/// parts are moved in, so a single part's events are sorted in place.
[[nodiscard]] TraceSnapshot merge_traces(std::vector<TraceSnapshot> parts,
                                         std::size_t capacity);

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes and control characters (\uXXXX); everything else — including
/// non-ASCII UTF-8 bytes — passes through unchanged.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Writes the opening of the Chrome trace-event JSON file.
void write_trace_begin(TextSink& out);

/// Writes one repeat's section: repeat r becomes process pid=r (named
/// "repeat r"); tids keep their NodeId values and the registered thread
/// names. Timestamps are emitted in microseconds with exact nanosecond
/// remainders (integer arithmetic, locale-independent), so output is
/// byte-stable across runs and --jobs values. json_escape() runs only on
/// names that need it. Sections written in repeat order between
/// write_trace_begin() and write_trace_end() make the file.
void write_trace_repeat(TextSink& out, std::size_t repeat,
                        const TraceSnapshot& snap);

/// Writes the closing of the trace file.
void write_trace_end(TextSink& out);

}  // namespace netrs::obs
