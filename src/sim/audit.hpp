// Runtime invariant auditor for the simulation core (checked builds).
//
// Configure with -DNETRS_AUDIT=ON to compile the checks in; without it every
// method below is an inline no-op and the instrumented call sites vanish
// entirely, so release builds pay nothing. The auditor is deliberately
// observation-only: it never changes control flow, so an audit build is
// behavior-identical to a plain build (the golden-digest test runs under
// both to prove it).
//
// Three families of invariants:
//   - event causality: nothing schedules into the past, fired event times
//     never regress, event-queue slots are in the state their heap entries
//     claim (the bare asserts of simulator.cpp/event_queue.cpp, promoted to
//     violations that carry event provenance instead of aborting);
//   - packet conservation: every packet Fabric::send injects is either
//     delivered or still on the wire, so sent = delivered + in flight; at
//     finalize every packet still on the wire is reported as a leak, and
//     node-level drops (malformed, cancelled) are explicitly accounted by
//     reason;
//   - queue accounting: per-station enqueue/dequeue/remove counters must
//     match the live queue depth at every step, service slots never exceed
//     capacity, and accelerator busy time never exceeds wall time.
//
// Violations are recorded (capped detail, full count), never thrown: the
// end-of-run summary is attached to harness experiment results so CI can
// fail on `violations_total != 0` while a human still gets provenance.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace netrs::sim {

class Simulator;

#ifdef NETRS_AUDIT
/// True in checked builds (-DNETRS_AUDIT=ON): audit checks are compiled in.
inline constexpr bool kAuditEnabled = true;
#else
/// False in plain builds: every audit call below is an inline no-op.
inline constexpr bool kAuditEnabled = false;
#endif

/// One recorded invariant violation with provenance.
struct AuditViolation {
  std::string rule;    ///< e.g. "schedule-into-past", "packet-leak"
  std::string detail;  ///< provenance: times, ids, counters
  Time when = 0;       ///< simulated time at detection
  std::uint64_t event_seq = 0;  ///< events fired when detected
};

/// Copyable end-of-run audit result; merged across harness repeats.
struct AuditSummary {
  bool enabled = false;  ///< True when produced by a checked build.
  std::uint64_t checks = 0;  ///< Invariant evaluations performed.
  std::uint64_t violations_total = 0;  ///< Total violations (uncapped).
  /// First kMaxDetailedViolations violations with full provenance.
  std::vector<AuditViolation> violations;

  // Packet-conservation counters (Fabric sends and deliveries + node-level
  // drops).
  std::uint64_t packets_injected = 0;   ///< Fabric::send calls.
  std::uint64_t packets_delivered = 0;  ///< Deliveries to a node.
  std::uint64_t packets_in_flight_at_end = 0;  ///< Undelivered at finalize.
  /// Terminal node-side discards by reason (accounted, not violations).
  std::map<std::string, std::uint64_t> drops_by_reason;

  /// Accumulates another repeat's summary into this one.
  void merge(const AuditSummary& other);
};

/// Central violation sink, one per Simulator. Components reach it through
/// Simulator::auditor(); every check is a no-op unless kAuditEnabled.
class Auditor {
 public:
  /// Violations beyond this count are tallied but carry no detail string.
  static constexpr std::size_t kMaxDetailedViolations = 32;

  /// Binds the simulator whose clock stamps violation provenance.
  void attach(const Simulator* sim) {
    if constexpr (kAuditEnabled) sim_ = sim;
  }

  /// Evaluates an invariant; on failure records a violation whose detail is
  /// produced lazily by `detail` (a callable returning std::string), so the
  /// passing path never formats anything.
  template <typename F>
  void check(bool ok, const char* rule, F&& detail) {
    if constexpr (kAuditEnabled) {
      ++checks_;
      if (!ok) record(rule, std::forward<F>(detail)());
    } else {
      (void)ok;
      (void)rule;
      (void)detail;
    }
  }

  /// Records a violation unconditionally (used by ledgers and leak walks).
  void record(const char* rule, std::string detail);

  // --- Packet-conservation counters ---------------------------------------
  /// Counts one Fabric::send (checked builds).
  void on_packet_injected() {
    if constexpr (kAuditEnabled) ++packets_injected_;
  }
  /// Counts one delivery to a node (checked builds).
  void on_packet_delivered() {
    if constexpr (kAuditEnabled) ++packets_delivered_;
  }
  /// A node terminally discarded a delivered packet for `reason`
  /// (e.g. "server-malformed", "server-cancel"). Accounted, not a violation.
  void on_packet_dropped(const char* reason) {
    if constexpr (kAuditEnabled) ++drops_by_reason_[reason];
    (void)reason;
  }
  /// Records `n` packets still undelivered when the fabric finalized.
  void on_packets_in_flight_at_end(std::uint64_t n) {
    if constexpr (kAuditEnabled) packets_in_flight_at_end_ += n;
    (void)n;
  }

  /// Snapshot of all counters and recorded violations.
  [[nodiscard]] AuditSummary summary() const;

  /// Resets all counters and recorded violations.
  void clear();

 private:
  const Simulator* sim_ = nullptr;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_total_ = 0;
  std::vector<AuditViolation> violations_;
  std::uint64_t packets_injected_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_in_flight_at_end_ = 0;
  std::map<std::string, std::uint64_t> drops_by_reason_;
};

/// Queue-accounting ledger for a FIFO service station (Accelerator, Server):
/// enqueue/dequeue/remove counters must match the station's live queue depth
/// at every step, and busy service slots must stay within capacity.
class StationLedger {
 public:
  /// `name` identifies the station in violation messages.
  void set_name(std::string name) {
    if constexpr (kAuditEnabled) name_ = std::move(name);
  }

  /// Counts one enqueue; `actual_depth` is the station's queue size after.
  void on_enqueue(Auditor& a, std::size_t actual_depth);
  /// Counts one FIFO dequeue; `actual_depth` as in on_enqueue.
  void on_dequeue(Auditor& a, std::size_t actual_depth);
  /// Out-of-order removal (e.g. cross-server cancellation).
  void on_remove(Auditor& a, std::size_t actual_depth);
  /// A service slot went busy; `busy_after` must stay within `capacity`.
  void on_service_start(Auditor& a, int busy_after, int capacity);
  /// A service slot freed; `busy_after` must stay non-negative.
  void on_service_finish(Auditor& a, int busy_after, int capacity);
  /// Busy core-time accrued within a window must fit in cores * wall time.
  void check_busy_time(Auditor& a, Duration busy, Duration window, int cores);

 private:
  void check_depth(Auditor& a, const char* op, std::size_t actual_depth);

  std::string name_ = "station";
  std::uint64_t enqueued_ = 0;
  std::uint64_t dequeued_ = 0;
  std::uint64_t removed_ = 0;
};

}  // namespace netrs::sim
