#include "sim/simulator.hpp"

#include <cassert>
#include <limits>
#include <memory>
#include <utility>

namespace netrs::sim {

void Simulator::at(Time t, Callback&& cb) {
  // Shard affinity: only the owning worker (or the coordinator between
  // windows) may push events onto a sharded simulator's queue.
  affinity_.check("schedule");
  // Causality: scheduling into the past would fire the callback at now()
  // anyway (the clamp below), silently reordering it after events it should
  // have preceded. Checked builds record the violation with provenance;
  // plain builds keep the original assert.
  if constexpr (kAuditEnabled) {
    auditor_.check(t >= now_, "schedule-into-past", [&] {
      return "event scheduled at t=" + std::to_string(t) +
             " ns while now=" + std::to_string(now_) + " ns (" +
             std::to_string(fired_) + " events fired, " +
             std::to_string(queue_.size()) + " pending); clamped to now";
    });
  } else {
    assert(t >= now_ && "cannot schedule into the past");
  }
  queue_.push(t < now_ ? now_ : t, std::move(cb));
}

void Simulator::after(Duration d, Callback&& cb) {
  if constexpr (kAuditEnabled) {
    auditor_.check(d >= 0, "schedule-into-past", [&] {
      return "negative delay " + std::to_string(d) + " ns at now=" +
             std::to_string(now_) + " ns; clamped to zero";
    });
  } else {
    assert(d >= 0 && "negative delay");
  }
  at(now_ + (d < 0 ? 0 : d), std::move(cb));
}

void Simulator::every(Duration period, std::function<bool()> cb) {
  assert(period > 0);
  // The periodic body is heap-allocated once; each tick's event captures
  // only {this, period, shared_ptr} (32 bytes, inline in the Task), so
  // rescheduling allocates nothing.
  schedule_tick(period, std::make_shared<std::function<bool()>>(std::move(cb)));
}

void Simulator::schedule_tick(Duration period,
                              std::shared_ptr<std::function<bool()>> body) {
  after(period, [this, period, body = std::move(body)]() mutable {
    if ((*body)()) schedule_tick(period, std::move(body));
  });
}

std::uint64_t Simulator::run() {
  return run_until(std::numeric_limits<Time>::max());
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t n = 0;
  Time t = 0;
  Callback cb;
  LaneEvent lane;
  while (!queue_.empty()) {
    const EventQueue::Popped popped = queue_.pop_next(deadline, t, cb, lane);
    if (popped == EventQueue::Popped::kNone) {
      now_ = deadline;
      return n;
    }
    // Causality: the queue's (time, seq) order guarantees fired times never
    // regress; a regression here means queue-state corruption.
    if constexpr (kAuditEnabled) {
      auditor_.check(t >= now_, "event-time-regression", [&] {
        return "popped event at t=" + std::to_string(t) +
               " ns behind now=" + std::to_string(now_) + " ns (" +
               std::to_string(fired_) + " events fired)";
      });
    } else {
      assert(t >= now_);
    }
    now_ = t;
    if (popped == EventQueue::Popped::kLane) {
      lane();  // no Task: the lane handler runs directly
    } else {
      cb();
      cb.reset();  // captures die as soon as their event has fired
    }
    ++n;
    ++fired_;
  }
  if (queue_.empty() && deadline != std::numeric_limits<Time>::max() &&
      now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

}  // namespace netrs::sim
