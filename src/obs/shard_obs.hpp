// Shard-parallel observability: one Observer per engine shard, merged
// deterministically at harvest (DESIGN.md §8.6).
//
// The partitioned engine (sim/shard.hpp) runs one Simulator per shard on
// its own worker thread; a single Observer cannot be shared across them
// without cross-thread writes on the hot path. The ShardObserverSet
// instead owns one shard-local Observer per shard — attached by the
// harness to that shard's simulator, so every component hook lands on its
// own shard's recorders with no synchronization — plus one coordinator
// observer for the global simulator (controller, fault injector). Flight
// records are built in-band at the client, the decision recorders log raw
// observations, and the take_*() harvests merge the per-shard
// contributions in canonical orders keyed on simulated time: event times
// are shard-count-invariant (DESIGN.md §4.10), so the merged attribution
// and decision CSVs are byte-identical at any --shards value, and so is
// the trace JSON as long as no trace ring wraps (DESIGN.md §8.6). The
// single-shard harness routes through the very same merges, which is what
// makes the identity hold by construction rather than by coincidence.
//
// Observation only, unchanged: nothing here mutates simulation state,
// consumes RNG draws, or reads the wall clock — golden digests are
// identical with the set attached or absent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/// Owns the per-shard Observers of one repeat plus the coordinator-side
/// one, and the repeat's single metrics registry, and produces the
/// deterministic merged snapshots. Coordinator-owned: the harness creates
/// it, attaches the lanes, and harvests after the run; shard threads only
/// ever touch their own lane's Observer.
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
  /// the decision replay at harvest.
  void set_measure_from(sim::Time t);

  /// Names a trace thread on every lane (merge takes the union).
  void set_tid_name(std::int32_t tid, const std::string& name);

  /// Merged trace of all lanes plus the coordinator: merge_traces() over
  /// the rings with the configured capacity.
  [[nodiscard]] TraceSnapshot take_trace() const;

  /// The registry's sampled series, moved out (MetricsRegistry::take()),
  /// so this harvests once per repeat.
  [[nodiscard]] MetricsSnapshot take_metrics() { return metrics_.take(); }

  /// Every lane's flight records in canonical order (merge_flights()).
  /// The records are moved out of the lanes, so this harvests once per
  /// repeat.
  [[nodiscard]] FlightSnapshot take_flight();

  /// Canonical replay of every lane's decision log (replay_decisions()
  /// with the configured herd window). The logs are moved out of the
  /// lanes, so this harvests once per repeat.
  [[nodiscard]] DecisionSnapshot take_decisions();

  /// Per-ring recorded/dropped counts: one entry per shard lane, plus a
  /// final coordinator entry when a separate coordinator observer exists.
  [[nodiscard]] std::vector<TraceLaneCounts> lane_trace_counts() const;

 private:
  ObsConfig cfg_;
  sim::Time measure_from_ = 0;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Observer>> lanes_;
  std::unique_ptr<Observer> coord_;  // null when lanes() == 1
};

}  // namespace netrs::obs
