// Observability hub: one Observer per simulation run.
//
// The Observer bundles the trace ring (obs/trace.hpp) and the flight and
// decision recorders (obs/attribution.hpp, obs/decision.hpp) and hangs
// off the Simulator as a plain pointer (`Simulator::set_observer`), which
// the simulator only forward-declares — sim keeps zero dependency on obs.
// Components guard every record with
// `if (obs::Observer* o = sim.observer())`, so a run without
// observability pays exactly one pointer load + branch per would-be
// event ("zero overhead when off" in the runtime sense; the audit layer
// covers the compile-time sense).
//
// Observation only: recording never mutates simulation state, consumes
// RNG draws, or reads the wall clock — golden digests are identical with
// the Observer attached or absent.
#pragma once

#include <cstdint>
#include <string>

#include "obs/attribution.hpp"
#include "obs/decision.hpp"
#include "obs/trace.hpp"
#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::sim {
class Simulator;
}  // namespace netrs::sim

namespace netrs::obs {

/// What to observe and where to write it. Carried by the harness config;
/// empty paths disable the corresponding subsystem entirely.
struct NETRS_SHARED_IMMUTABLE ObsConfig {
  /// Chrome trace-event JSON output path ("" = tracing off).
  std::string trace_path;
  /// Metrics CSV output path ("" = metrics off).
  std::string metrics_path;
  /// Per-request latency attribution CSV path ("" = no CSV; recording can
  /// still be forced on via `record_attribution` for the report tables).
  std::string attribution_path;
  /// Per-decision audit CSV path ("" = no CSV; see `record_decisions`).
  std::string decision_path;
  /// Record flight attribution even without a CSV path (report tables /
  /// tests); implied by a non-empty attribution_path.
  bool record_attribution = false;
  /// Audit selection decisions even without a CSV path (report tables /
  /// tests); implied by a non-empty decision_path.
  bool record_decisions = false;
  /// Events retained per repeat before the ring wraps.
  std::size_t trace_capacity = 1u << 16;

  /// True when tracing is requested.
  [[nodiscard]] bool want_trace() const { return !trace_path.empty(); }
  /// True when metrics sampling is requested.
  [[nodiscard]] bool want_metrics() const { return !metrics_path.empty(); }
  /// True when flight attribution is requested (CSV or report tables).
  [[nodiscard]] bool want_attribution() const {
    return record_attribution || !attribution_path.empty();
  }
  /// True when decision auditing is requested (CSV or report tables).
  [[nodiscard]] bool want_decisions() const {
    return record_decisions || !decision_path.empty();
  }
  /// True when any subsystem is requested.
  [[nodiscard]] bool any() const {
    return want_trace() || want_metrics() || want_attribution() ||
           want_decisions();
  }
};

/// Per-simulator observability hub; owns the trace ring and the
/// flight/decision recorders. Created by the harness —
/// one per shard per repeat (plus a coordinator-side one for the global
/// simulator), bundled in a ShardObserverSet (obs/shard_obs.hpp) — and
/// attached to that simulator via Simulator::set_observer, so every
/// component hook lands on its own shard's observer with no cross-shard
/// traffic. Harvested through the set's deterministic merges after the
/// run. Shard-local by construction: only the owning shard's thread
/// records into it while the engine runs.
class NETRS_SHARD_LOCAL Observer {
 public:
  /// Sizes the trace ring (0 when tracing is off) per `cfg`.
  explicit Observer(const ObsConfig& cfg);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// True when trace events are being recorded.
  [[nodiscard]] bool tracing() const { return ring_.enabled(); }

  /// True when the flight recorder is capturing latency attribution.
  [[nodiscard]] bool attributing() const { return flight_.enabled(); }

  /// True when the decision auditor is capturing selection quality.
  [[nodiscard]] bool deciding() const { return decisions_.enabled(); }

  /// The per-request flight recorder (hooks early-out when disabled).
  [[nodiscard]] FlightRecorder& flight() { return flight_; }

  /// The decision auditor (hooks early-out when disabled).
  [[nodiscard]] DecisionRecorder& decisions() { return decisions_; }

  /// The trace ring (mostly for tests; components use span()/instant()).
  [[nodiscard]] TraceRing& ring() { return ring_; }

  /// Records a complete span ('X'): `ts` + `dur` in simulated ns,
  /// `tid` = recording node, `id` = request correlation id, plus up to
  /// two named integer args. All strings must be literals.
  void span(const char* name, const char* cat, std::int32_t tid, sim::Time ts,
            sim::Duration dur, std::uint64_t id = 0,
            const char* arg0_name = nullptr, std::uint64_t arg0 = 0,
            const char* arg1_name = nullptr, std::uint64_t arg1 = 0);

  /// Records a thread-scoped instant ('i'); parameters as in span().
  void instant(const char* name, const char* cat, std::int32_t tid,
               sim::Time ts, std::uint64_t id = 0,
               const char* arg0_name = nullptr, std::uint64_t arg0 = 0,
               const char* arg1_name = nullptr, std::uint64_t arg1 = 0);

  /// Names a trace thread (forwarded to TraceRing::set_tid_name).
  void set_tid_name(std::int32_t tid, std::string name);

  /// Extracts this run's trace contribution for the merged JSON file.
  [[nodiscard]] TraceSnapshot take_trace() const;

 private:
  TraceRing ring_;
  FlightRecorder flight_;
  DecisionRecorder decisions_;
};

}  // namespace netrs::obs
