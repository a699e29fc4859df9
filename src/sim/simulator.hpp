// The discrete-event simulator driving every NetRS experiment.
//
// Single-threaded and deterministic: components schedule callbacks at
// absolute or relative simulated times, and `run()` fires them in
// (time, scheduling-order) order. There is no wall-clock coupling.
//
// `at`/`after` take the callback as `Callback&&`: a lambda converts into a
// temporary sim::Task in place, and the queue moves it once, into its
// arena slot; the run loop moves it out of the slot to fire it. Traffic
// that is in time order by construction — a fixed delay from now() — can
// skip the Task entirely: `after_lane` (or `at_lane`, at an absolute
// time) appends a (time, seq, token) entry to a FIFO lane created by
// `add_lane`, and the run loop calls the lane's plain-function handler
// with the token (EventQueue's file comment).
#pragma once

#include <cassert>
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

  /// Schedules `cb` at absolute time `t`; `t` must be >= now(). A
  /// scheduled event always fires: an owner that may have to void it
  /// checks for that inside `cb` (sim::Station does, after a crash).
  void at(Time t, Callback&& cb);

  /// Schedules `cb` after a non-negative delay from now().
  void after(Duration d, Callback&& cb);

  /// Creates a FIFO lane on this simulator's queue whose events fire as
  /// `handler(ctx, token)`, reserved for `depth` pending events; see
  /// EventQueue::add_lane.
  LaneId add_lane(LaneHandler handler, void* ctx, std::size_t depth = 0) {
    return queue_.add_lane(handler, ctx, depth);
  }

  /// Schedules a lane event a non-negative delay `d` from now(). Every
  /// push onto one lane must use the same `d` (or a non-decreasing one),
  /// which keeps the lane in time order (EventQueue::push_lane). Lane
  /// events count in events_fired() like any other.
  void after_lane(LaneId lane, Duration d, std::uint32_t token) {
    affinity_.check("schedule");
    assert(d >= 0 && "negative lane delay");
    queue_.push_lane(lane, now_ + d, token);
  }

  /// Schedules a lane event at absolute time `t` >= now(), for traffic
  /// that is in time order by construction without a fixed delay (the
  /// fabric's cross-shard arrivals, parked in merge order at each window
  /// start). The lane-order precondition of after_lane applies.
  void at_lane(LaneId lane, Time t, std::uint32_t token) {
    affinity_.check("schedule");
    assert(t >= now_ && "lane event scheduled into the past");
    queue_.push_lane(lane, t, token);
  }

  /// Schedules `cb` every `period` (> 0), first firing at now() + period.
  /// The periodic task stops when `cb` returns false or the simulation ends.
  void every(Duration period, std::function<bool()> cb);

  /// Runs until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Runs until simulated time would exceed `deadline` (events at exactly
  /// `deadline` still fire); leaves later events queued and sets now() to
  /// `deadline` if the queue outlives it. Returns events fired.
  std::uint64_t run_until(Time deadline);

  /// Number of events fired so far (diagnostic).
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Timestamp of the earliest queued event, or kNever when the queue is
  /// empty (the ShardGroup coordinator peeks at global-event deadlines).
  /// Non-const: peeking positions the calendar's scan on its earliest
  /// entry.
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
  Auditor auditor_;
  ShardAffinityGuard affinity_;
  obs::Observer* observer_ = nullptr;
};

}  // namespace netrs::sim
