// Multi-slot FIFO service station (paper §V-A): the queueing discipline of
// the KV server (Np slots, exponential service) and of the network
// accelerator (c cores, fixed service).
//
// Up to `slots` jobs are in service and the rest wait FIFO. A job in
// service parks in the lowest free slot with its service start; its
// completion event captures the slot and the station's crash count, so
// it stays inline in its Task. A crash bumps the count: the completions
// of the jobs it dropped still fire, find the count moved and do
// nothing, and a job started after the crash is never finished by them.
// The wait queue is a sim::Ring, which doubles when full and never
// shrinks: past its high-water depth, queueing allocates nothing. The
// station is the only caller of its StationLedger (DESIGN.md §7); the
// owner keeps the service-time policy, tracing, and what a finished job
// turns into.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/audit.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace netrs::sim {

/// A `slots`-way parallel FIFO queueing station over jobs of type `Job`
/// (default-constructible and movable); see the file comment.
template <typename Job>
class Station {
 public:
  /// Creates an idle station on `sim`; `name` identifies it in audit
  /// violations. Throws std::invalid_argument when `slots` < 1: a station
  /// without slots would queue every job forever.
  Station(Simulator& sim, int slots, std::string name) : sim_(sim) {
    if (slots < 1) {
      throw std::invalid_argument(name + ": a service station needs at "
                                         "least 1 slot, got " +
                                  std::to_string(slots));
    }
    slots_.resize(static_cast<std::size_t>(slots));
    ledger_.set_name(std::move(name));
  }
  Station(const Station&) = delete;             ///< Completions hold `this`.
  Station& operator=(const Station&) = delete;  ///< Completions hold `this`.

  /// Parallel service slots (Np or c).
  [[nodiscard]] int slots() const { return static_cast<int>(slots_.size()); }
  /// Jobs in service.
  [[nodiscard]] int busy() const { return busy_; }
  /// Jobs waiting for a slot.
  [[nodiscard]] std::size_t queued() const { return ring_.size(); }
  /// Waiting jobs the queue holds before it next doubles (its high-water
  /// storage; diagnostic).
  [[nodiscard]] std::size_t queue_capacity() const { return ring_.capacity(); }
  /// True when start() may be called.
  [[nodiscard]] bool has_free_slot() const { return busy_ < slots(); }

  /// Appends `job` to the FIFO.
  void enqueue(Job job) {
    ring_.push_back(std::move(job));
    ledger_.on_enqueue(sim_.auditor(), ring_.size());
  }

  /// Removes and returns the oldest waiting job, if any.
  std::optional<Job> dequeue() {
    if (ring_.empty()) return std::nullopt;
    Job job = std::move(ring_[0]);
    ring_.pop_front();
    ledger_.on_dequeue(sim_.auditor(), ring_.size());
    return job;
  }

  /// Removes and returns the oldest waiting job for which `pred(job)` is
  /// true (out-of-order removal: the CliRS-R95 cancel path); the jobs
  /// behind it keep their order.
  template <typename Pred>
  std::optional<Job> remove_first(Pred pred) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      if (!pred(std::as_const(ring_[i]))) continue;
      Job job = std::move(ring_[i]);
      for (; i + 1 < ring_.size(); ++i) ring_[i] = std::move(ring_[i + 1]);
      ring_.pop_back();
      ledger_.on_remove(sim_.auditor(), ring_.size());
      return job;
    }
    return std::nullopt;
  }

  /// Parks `job` in the lowest free slot and schedules its completion
  /// `service` from now. The completion frees the slot, then calls
  /// `done(job, service_start)`. Call only when has_free_slot(); a start
  /// on a full station is a `service-slot-overflow` violation in checked
  /// builds and drops the job.
  template <typename Done>
  void start(Job job, Duration service, Done done) {
    std::size_t s = 0;
    while (s < slots_.size() && slots_[s].busy) ++s;
    ledger_.on_service_start(sim_.auditor(), busy_ + 1, slots());
    assert(s < slots_.size() && "start() on a station with no free slot");
    if (s == slots_.size()) return;
    Slot& slot = slots_[s];
    slot.job = std::move(job);
    slot.start = sim_.now();
    slot.busy = true;
    ++busy_;
    sim_.after(service, [this, s, epoch = epoch_, done = std::move(done)] {
      if (epoch != epoch_) return;  // a crash dropped this job
      const Time started = slots_[s].start;
      done(finish(s), started);
    });
  }

  /// Calls `f(job, service_start)` for every job in service, in slot
  /// order.
  template <typename F>
  void for_each_in_service(F f) const {
    for (const Slot& slot : slots_) {
      if (slot.busy) f(slot.job, slot.start);
    }
  }

  /// Crash path: drops every waiting and every in-service job, counting
  /// each as a `reason` drop in the audit ledger, and voids the pending
  /// completions of the dropped jobs. The station is empty and idle
  /// afterwards.
  void crash(const char* reason) {
    Auditor& audit = sim_.auditor();
    while (remove_first([](const Job&) { return true; })) {
      audit.on_packet_dropped(reason);
    }
    ++epoch_;
    for (Slot& slot : slots_) {
      if (!slot.busy) continue;
      slot = Slot{};
      --busy_;
      ledger_.on_service_finish(audit, busy_, slots());
      audit.on_packet_dropped(reason);
    }
  }

  /// Checked builds: busy slot-time `busy` accrued over `window` must fit
  /// in slots() x `window` (`busy-time-overflow`).
  void check_busy_time(Duration busy, Duration window) {
    ledger_.check_busy_time(sim_.auditor(), busy, window, slots());
  }

 private:
  struct Slot {
    Job job{};
    Time start = 0;
    bool busy = false;
  };

  Job finish(std::size_t s) {
    Slot& slot = slots_[s];
    assert(slot.busy);
    slot.busy = false;
    --busy_;
    ledger_.on_service_finish(sim_.auditor(), busy_, slots());
    return std::move(slot.job);
  }

  Simulator& sim_;
  std::vector<Slot> slots_;
  int busy_ = 0;
  std::uint64_t epoch_ = 0;  // crashes so far; completions compare it
  Ring<Job> ring_;           // waiting jobs
  StationLedger ledger_;
};

}  // namespace netrs::sim
