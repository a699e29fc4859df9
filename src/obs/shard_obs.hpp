// Shard-parallel observability: one Observer per engine shard, flushed
// deterministically in chunks while the run goes on (DESIGN.md §8.6).
//
// The partitioned engine (sim/shard.hpp) runs one Simulator per shard on
// its own worker thread; a single Observer cannot be shared across them
// without cross-thread writes on the hot path. The ShardObserverSet
// instead owns one shard-local Observer per shard — attached by the
// harness to that shard's simulator, so every component hook lands on its
// own shard's recorders with no synchronization — plus one coordinator
// observer for the global simulator (controller, fault injector). Flight
// records are built in-band at the client and the decision recorders log
// raw observations. At each flush watermark — a point of the harness's
// sampling grid, where every event before it has run on every shard and
// none after it — flush() moves what the lanes recorded before the
// watermark into an ObsChunk: the flight records merged in canonical
// order, the decision picks replayed against the oracle journal, and the
// metric rows sampled so far. The merge keys are simulated time plus
// stable ids and event times are shard-count-invariant (DESIGN.md §4.10),
// so the attribution, decision and metrics files are byte-identical at
// any --shards value and any chunking, and so is the trace JSON, merged
// once at the end of the repeat, as long as no trace ring wraps (DESIGN.md
// §8.6). The single-shard harness routes through the very same flushes.
//
// Observation only, unchanged: nothing here mutates simulation state,
// consumes RNG draws, or reads the wall clock — golden digests are
// identical with the set attached or absent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::obs {

/// Per-ring trace accounting for one shard's (or the coordinator's) ring.
struct NETRS_SHARED_IMMUTABLE TraceLaneCounts {
  /// Events the ring recorded (including overwritten ones).
  std::uint64_t recorded = 0;
  /// Events the ring lost to wraparound before the merge.
  std::uint64_t dropped = 0;
};

/// What the flushes move out of a repeat's lanes: the records between two
/// flush watermarks, or several flushes' worth appended in order, in the
/// order their files list them. The harness alternates between two
/// chunks, so their buffers are reused.
struct NETRS_SHARED_IMMUTABLE ObsChunk {
  /// Flight records in (completion time, request id) order, plus counts.
  FlightSnapshot flight;
  /// Audited decisions in (time, node, per-node sequence) order.
  DecisionSnapshot decisions;
  /// Metric rows sampled since the previous flush (without the column
  /// layout, which the reader holds: MetricsRegistry::layout()).
  MetricsSnapshot metrics;

  /// Rows held: flight and decision records plus sampled metric ticks.
  [[nodiscard]] std::size_t rows() const {
    return flight.records.size() + decisions.records.size() + metrics.rows();
  }

  /// Empties the chunk, keeping its buffers' capacity.
  void clear();
};

/// Owns the per-shard Observers of one repeat plus the coordinator-side
/// one, the repeat's single metrics registry and its decision replay, and
/// produces the deterministic chunks. Coordinator-owned: the harness
/// creates it, attaches the lanes, and flushes it at engine quiescence;
/// shard threads only ever touch their own lane's Observer.
class NETRS_COORD_GLOBAL ShardObserverSet {
 public:
  /// Creates `lanes` shard observers (>= 1) from `cfg`. With a single
  /// lane the coordinator observer IS lane 0 (the serial engine runs
  /// shard and global events on one simulator); with more, a separate
  /// coordinator observer is added for the global simulator.
  ShardObserverSet(const ObsConfig& cfg, int lanes);

  /// Number of shard lanes (excludes the coordinator observer).
  [[nodiscard]] int lanes() const { return static_cast<int>(lanes_.size()); }

  /// Shard `i`'s observer — attach to that shard's simulator.
  [[nodiscard]] Observer& lane(int i) { return *lanes_[std::size_t(i)]; }

  /// The coordinator observer — attach to the global simulator. Same
  /// object as lane(0) when lanes() == 1.
  [[nodiscard]] Observer& coordinator() {
    return coord_ != nullptr ? *coord_ : *lanes_.front();
  }

  /// The single metrics home of the repeat (gauges read cross-shard
  /// state at sampling quiescence, so per-shard registries would buy
  /// nothing but merge complexity). Register gauges here before the
  /// first sample.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  /// True when trace events are being recorded.
  [[nodiscard]] bool tracing() const { return lanes_.front()->tracing(); }
  /// True when metrics sampling is requested (ObsConfig::want_metrics).
  [[nodiscard]] bool metering() const { return cfg_.want_metrics(); }
  /// True when flight attribution is being captured.
  [[nodiscard]] bool attributing() const {
    return lanes_.front()->attributing();
  }
  /// True when selection decisions are being audited.
  [[nodiscard]] bool deciding() const { return lanes_.front()->deciding(); }

  /// Completions/decisions of requests issued before `t` are excluded
  /// from records: every lane's flight recorder applies it on completion,
  /// the decision replay at each flush. Set before the run.
  void set_measure_from(sim::Time t);

  /// Names a trace thread on every lane (merge takes the union).
  void set_tid_name(std::int32_t tid, const std::string& name);

  /// Merged trace of all lanes plus the coordinator: merge_traces() over
  /// the rings with the configured capacity.
  [[nodiscard]] TraceSnapshot take_trace() const;

  /// Appends everything the lanes recorded before `watermark` to `chunk`,
  /// after what it holds: the flight records (merge_flights()), the
  /// replayed decisions (DecisionReplay with kHerdWindow), and every
  /// metric row sampled so far (the rows only: the column layout is
  /// metrics().layout()). Call it at engine quiescence, with every
  /// event before the watermark run and none after it; the final flush
  /// after the drain passes the largest sim::Time.
  void flush(sim::Time watermark, ObsChunk& chunk);

  /// Per-ring recorded/dropped counts: one entry per shard lane, plus a
  /// final coordinator entry when a separate coordinator observer exists.
  [[nodiscard]] std::vector<TraceLaneCounts> lane_trace_counts() const;

 private:
  ObsConfig cfg_;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Observer>> lanes_;
  std::unique_ptr<Observer> coord_;  // null when lanes() == 1
  // Every recorder of the lanes plus the coordinator, in that order.
  std::vector<FlightRecorder*> flight_lanes_;
  std::vector<DecisionRecorder*> decision_lanes_;
  DecisionReplay replay_{kHerdWindow, 0};
};

}  // namespace netrs::obs
