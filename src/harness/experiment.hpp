// Experiment runner: builds the full system — fat-tree, switches, NetRS
// operators + controller (for NetRS schemes), KV servers and clients — runs
// the workload, and reports the latency distribution the paper's figures
// plot (mean / 95th / 99th / 99.9th percentiles).
#pragma once

#include <string>
#include <vector>

#include "harness/config.hpp"
#include "obs/attribution.hpp"
#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/shard_obs.hpp"
#include "sim/audit.hpp"
#include "sim/fault.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"

namespace netrs::harness {

/// Per-phase report windows of a fault-injection run (DESIGN.md §9):
/// completions and decisions are bucketed against the plan's fault window
/// [earliest event, latest event) into pre (phase 0), during (phase 1),
/// and post (phase 2). Disabled (all-empty) when cfg.fault_plan is empty.
struct FaultPhaseStats {
  /// True when the run had a non-empty fault plan.
  bool enabled = false;
  /// Fault window start — the plan's earliest event (ms of sim time).
  double window_start_ms = 0.0;
  /// Fault window end — the plan's latest event (ms of sim time).
  double window_end_ms = 0.0;
  /// Fault events whose handler ran, summed over repeats.
  std::uint64_t events_fired = 0;
  /// Fault events skipped for lack of a binding (e.g. an rsnode event in
  /// a CliRS run), summed over repeats.
  std::uint64_t events_unbound = 0;
  /// Measured completion latencies per phase (bucketed by completion
  /// time), indexed 0=pre / 1=during / 2=post.
  sim::LatencyRecorder latency_ms[3];
  /// Decision-auditor regret per phase in ms (needs --decisions).
  sim::LatencyRecorder regret_ms[3];
  /// Decision-auditor feedback staleness per phase in ms (--decisions).
  sim::LatencyRecorder staleness_ms[3];
};

/// Report label for a fault phase index: "pre", "during", "post".
[[nodiscard]] const char* fault_phase_name(int phase);

/// Everything measured by one run_experiment() call, or by one repeat
/// (Deployment::run()). Repeats fold in repeat order through merge();
/// until finalize(), the three means below hold sums.
struct ExperimentResult {
  Scheme scheme = Scheme::kCliRS;  ///< Scheme that was run.
  /// Measured completions (after warmup), merged over repeats.
  sim::LatencyRecorder latencies_ms;

  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t redundant = 0;
  std::uint64_t cancels = 0;  ///< cross-server cancels sent (R95C)
  double avg_forwards = 0.0;  ///< mean switch forwards per request+response
  /// Total wire bytes per completed request, averaged over repeats
  /// (bandwidth accounting; covers every link crossing: headers,
  /// piggybacks, detours, duplicates).
  double wire_bytes_per_request = 0.0;

  /// Herd-behavior metric: the mean over servers of the coefficient of
  /// variation of each server's queue length, sampled every few ms during
  /// the measured phase. The paper argues more independent RSNodes cause
  /// load oscillation; this makes that claim directly measurable.
  double load_oscillation = 0.0;
  /// Repeats merged into this result.
  int repeats = 0;

  /// RSNodes performing selection: #clients for CliRS schemes, the active
  /// plan's RSNode count for NetRS schemes (last repeat).
  int rsnodes = 0;
  std::string plan_method;  ///< placement method of the final plan
  int plans_deployed = 0;
  std::size_t drs_groups = 0;  ///< groups on Degraded Replica Selection

  /// Simulator events fired, summed over repeats (throughput accounting
  /// for the macro benchmark's events/sec metric; not part of digests).
  std::uint64_t events_fired = 0;
  /// Per-shard events fired (excluding the global simulator's share),
  /// summed elementwise over repeats in shard order. One entry in serial
  /// runs (then it includes the global queue — shard 0 IS the global
  /// simulator). Deterministic at any --shards x --jobs.
  std::vector<std::uint64_t> events_per_shard;
  /// Engine self-telemetry per repeat, in repeat order; empty unless
  /// `cfg.shard_telemetry_path` was set. Wall-clock derived, so the
  /// values are nondeterministic (the shape — lanes, buckets — is not).
  std::vector<sim::ShardTelemetry> shard_telemetry;

  double wall_seconds = 0.0;
  /// Wall-clock seconds the simulation threads spent harvesting obs
  /// records: the flushes at each watermark (moving records out of the
  /// lanes, merging them, replaying decisions) and the trace merge at the
  /// end, summed over repeats; 0 when obs is off. A diagnostic like
  /// wall_seconds: nondeterministic, not in the report.
  double harvest_seconds = 0.0;
  /// Wall-clock seconds the simulation threads waited to hand a chunk to
  /// their obs writer (ObsWriter::wait_seconds), summed over repeats; 0
  /// when obs is off. A diagnostic like wall_seconds.
  double wait_seconds = 0.0;
  /// Chunks the simulation threads handed to their obs writers, summed
  /// over repeats; 0 when obs is off. A diagnostic like wall_seconds.
  std::uint64_t obs_handoffs = 0;
  /// Wall-clock seconds the obs writer threads spent formatting and
  /// writing chunks and folding them into the report summaries, summed
  /// over repeats (this overlaps the run), plus the time after the last
  /// repeat spent appending the spools and closing the files; 0 when obs
  /// is off. A diagnostic like wall_seconds.
  double write_seconds = 0.0;

  /// Invariant-audit result merged over repeats. `enabled` only in
  /// NETRS_AUDIT builds; CI fails the audit job on violations_total != 0.
  sim::AuditSummary audit;

  /// Per-metric aggregates over every sampling tick of every repeat;
  /// empty unless `cfg.obs` requested metrics (DESIGN.md §8).
  obs::MetricsSummary metrics;
  /// Trace events retained across repeats (0 unless tracing was on).
  std::uint64_t trace_events = 0;
  /// Trace events lost to ring wraparound across repeats.
  std::uint64_t trace_dropped = 0;
  /// One repeat's trace bookkeeping, for the per-repeat report rows.
  struct TraceRepeatCounts {
    std::uint64_t recorded = 0;  ///< Events offered to the ring.
    std::uint64_t dropped = 0;   ///< Events lost to ring wraparound.
    /// Per-ring breakdown: one entry per shard lane in shard order, plus
    /// a trailing coordinator entry when the repeat ran shards > 1. Lets
    /// the overflow warning name the shard whose ring wrapped.
    std::vector<obs::TraceLaneCounts> lanes;
  };
  /// Per-repeat trace counts in repeat order (empty unless tracing).
  std::vector<TraceRepeatCounts> trace_repeats;

  /// Per-request latency attribution merged over repeats; disabled unless
  /// `cfg.obs` requested attribution (DESIGN.md §8.4).
  obs::AttributionSummary attribution;
  /// Selection-quality (regret / staleness / herd) aggregates merged over
  /// repeats; disabled unless `cfg.obs` requested decisions (§8.5).
  obs::DecisionSummary decisions;

  /// Pre/during/post-fault report windows; all-empty unless
  /// `cfg.fault_plan` scheduled at least one event (DESIGN.md §9).
  FaultPhaseStats fault;
  /// Latency timeline: bucket i holds the completions whose completion
  /// time fell in [i, i+1) x timeline_bucket_ms of absolute sim time
  /// (warmup included). Empty unless `cfg.timeline_bucket` > 0.
  std::vector<sim::LatencyRecorder> timeline;
  /// Timeline bucket width in ms (0 = timeline off).
  double timeline_bucket_ms = 0.0;
  /// Decision-staleness timeline on the same buckets as `timeline`,
  /// bucketed by decision time (only averaged, so it keeps no samples);
  /// empty unless decisions were recorded (`cfg.obs`) and
  /// `cfg.timeline_bucket` > 0.
  std::vector<sim::MeanRecorder> stale_timeline;
  /// Doomed-pick timeline: per bucket, audited decisions that chose a
  /// replica while it was crash-dark — the scheme's failure reaction
  /// time as a directly comparable number (same preconditions as
  /// `stale_timeline`, plus a fault plan with a server crash).
  std::vector<std::uint64_t> doomed_timeline;
  /// Total doomed picks (sum over `doomed_timeline`).
  std::uint64_t doomed_picks = 0;

  /// Mean measured latency in ms (0 when nothing was measured).
  [[nodiscard]] double mean_ms() const {
    return latencies_ms.empty() ? 0.0 : latencies_ms.mean();
  }
  /// Latency percentile in ms, q in [0, 1] (0 when nothing was measured).
  [[nodiscard]] double percentile_ms(double q) const {
    return latencies_ms.empty() ? 0.0 : latencies_ms.percentile(q);
  }

  /// Appends `later` (the next repeat or shard tally), taking its storage;
  /// what describes one repeat (scheme, plan, fault window) is `later`'s.
  void merge(ExperimentResult&& later);
  /// Turns the sums into means and sorts, once, the sample sets whose
  /// order is read: latencies_ms, fault.latency_ms and timeline (the
  /// golden digests and perfbench read them sorted). The report's other
  /// recorders answer their few percentile queries unsorted.
  void finalize();
};

/// Checks what run_experiment() checks before its first repeat: the fault
/// plan parses and its link events name cabled links of the fat tree, the
/// tree is valid and holds the servers and clients, the cell asks for at
/// least one request and one repeat and carries load (positive service
/// time and utilization, at least one client, skew in [0, 1)), the
/// replica ring can be built (1 <= replication_factor <= num_servers,
/// 1 <= virtual_nodes and num_servers x virtual_nodes <= 2^24, so every
/// RGID fits its 24-bit field), rs::make_selector() knows the selector
/// algorithm, and neither extra_hop_fraction nor timeline_bucket is
/// negative. Returns the parsed fault plan; throws std::invalid_argument
/// naming the first problem.
sim::FaultPlan validate_config(const ExperimentConfig& cfg);

/// Runs `cfg.repeats` independent deployments (re-randomized client/server
/// placement, as in the paper; see harness::Deployment) and merges their
/// results in repeat order. Throws std::invalid_argument, before any
/// repeat runs, for a configuration validate_config() rejects or an
/// output file that cannot be opened.
ExperimentResult run_experiment(Scheme scheme, const ExperimentConfig& cfg);

}  // namespace netrs::harness
