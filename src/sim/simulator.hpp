// The discrete-event simulator driving every NetRS experiment.
//
// Single-threaded and deterministic: components schedule callbacks at
// absolute or relative simulated times, and `run()` fires them in
// (time, scheduling-order) order. There is no wall-clock coupling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/affinity.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace netrs::obs {
/// Forward declaration (obs/observer.hpp); sim never includes obs.
class Observer;
}  // namespace netrs::obs

namespace netrs::sim {

/// The discrete-event scheduler: absolute/relative/periodic scheduling,
/// deterministic (time, scheduling-order) dispatch, and the attachment
/// points for the invariant auditor and the observability hub.
class Simulator {
 public:
  /// Move-only small-buffer callable (sim::Task); lambdas convert
  /// implicitly and captures up to Task::kInlineSize bytes never touch the
  /// heap.
  using Callback = EventQueue::Callback;

  /// Constructs an empty simulator at time 0 with the auditor attached.
  Simulator() {
    auditor_.attach(this);
    queue_.set_auditor(&auditor_);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. 0 before the first event fires.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t`; `t` must be >= now().
  EventId at(Time t, Callback cb);

  /// Schedules `cb` after a non-negative delay from now().
  EventId after(Duration d, Callback cb);

  /// Schedules `cb` every `period` (> 0), first firing at now() + period.
  /// The periodic task stops when `cb` returns false or the simulation ends.
  void every(Duration period, std::function<bool()> cb);

  /// Cancels a pending event; see EventQueue::cancel.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains or `stop()` is called. Returns the number
  /// of events fired.
  std::uint64_t run();

  /// Runs until simulated time would exceed `deadline` (events at exactly
  /// `deadline` still fire); leaves later events queued and sets now() to
  /// `deadline` if the queue outlives it. Returns events fired.
  std::uint64_t run_until(Time deadline);

  /// Requests that `run`/`run_until` return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events fired so far (diagnostic).
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Live events still queued (diagnostic).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Timestamp of the earliest queued event, or kNever when the queue is
  /// empty (the ShardGroup coordinator peeks at global-event deadlines).
  /// Non-const: peeking may purge cancelled calendar-queue entries.
  [[nodiscard]] Time next_event_time() {
    return queue_.empty() ? kNever : queue_.next_time();
  }

  /// Shard-ownership sentinel (checked builds; inline no-op otherwise).
  /// ShardGroup binds it for every shard simulator so at()/after() record
  /// foreign-simulator scheduling — an event pushed onto another shard's
  /// queue from the wrong thread — with owner/actor provenance. Unbound
  /// (serial mode, standalone simulators) it accepts every context.
  [[nodiscard]] ShardAffinityGuard& shard_affinity() { return affinity_; }
  /// Read-only guard access (tests inspect the bound owner).
  [[nodiscard]] const ShardAffinityGuard& shard_affinity() const {
    return affinity_;
  }

  /// Invariant auditor (checked builds; inline no-op otherwise). Components
  /// reach it through here to report conservation and causality violations.
  [[nodiscard]] Auditor& auditor() { return auditor_; }
  /// Read-only auditor access (summary extraction after a run).
  [[nodiscard]] const Auditor& auditor() const { return auditor_; }

  /// Attaches (or detaches, with nullptr) the observability hub. The
  /// simulator only stores the pointer — obs stays a layer above sim —
  /// and components reach tracing/metrics through observer(). The
  /// Observer must outlive the run.
  void set_observer(obs::Observer* o) { observer_ = o; }

  /// The attached observability hub, or nullptr when observability is
  /// off. Callers guard every record with this null check, which is the
  /// entire cost of a run without observability.
  [[nodiscard]] obs::Observer* observer() const { return observer_; }

 private:
  void schedule_tick(Duration period,
                     std::shared_ptr<std::function<bool()>> body);

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  Auditor auditor_;
  ShardAffinityGuard affinity_;
  obs::Observer* observer_ = nullptr;
};

}  // namespace netrs::sim
