// Deterministic event queue for the discrete-event simulator.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break by a monotonically increasing sequence number),
// which makes every run with the same seed bit-for-bit reproducible.
//
// The queue is allocation-free in steady state: callbacks are sim::Task
// objects (small-buffer inline storage), index entries carry only
// (time, seq, slot) triples, and callbacks live in a recycled slot arena.
// Cancellation is O(1) and hash-free — an EventId encodes its slot index
// plus a generation tag, so cancel() is a bounds check and a generation
// compare. Cancelling destroys the callback (and everything it captured)
// eagerly; the slot itself is tombstoned until its index entry surfaces.
//
// The priority index is a calendar queue (Brown 1988; DESIGN.md §4.8) of
// width-aligned time buckets, each kept sorted by (time, seq) with an
// amortized-O(1) sorted-append fast path. Pop reads the head of the
// current bucket, so push and pop are amortized O(1) at any depth. The
// bucket count follows the live event population; the width is a power
// of two (bucket_of is a shift) calibrated on the gaps among the earliest
// pending events, and is recalibrated when pushes and pops start paying
// for a layout that no longer fits the traffic.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/audit.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace netrs::sim {

/// Identifies a scheduled event so it can be cancelled. Encodes
/// (generation << 32) | slot; generations start at 1, so 0 is never a
/// valid id.
using EventId = std::uint64_t;

/// Scheduled-callback priority queue with FIFO same-instant ordering, O(1)
/// generation-tagged cancellation, a recycled slot arena, and a calendar
/// priority index (see the file comment for the allocation-free design).
class EventQueue {
 public:
  /// The stored callable type (sim::Task, move-only small-buffer).
  using Callback = Task;

  /// Constructs an empty queue.
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` to fire at absolute time `t`. Returns an id usable with
  /// `cancel`. The callback is moved once, into its arena slot.
  EventId push(Time t, Callback&& cb);

  /// Cancels a pending event. Returns true if the id was pending;
  /// cancelling an already-fired or unknown id is a no-op returning false.
  /// The callback is destroyed immediately (releasing captured resources);
  /// the tombstoned index entry is discarded when it reaches the head.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event. Precondition: !empty().
  [[nodiscard]] Time next_time();

  /// Removes and returns the earliest live event. Precondition: !empty().
  std::pair<Time, Callback> pop();

  /// One index probe per event: when the earliest live event is due at or
  /// before `deadline`, moves its callback into `cb`, stores its time in
  /// `when`, removes it and returns true; otherwise leaves it queued and
  /// returns false. Precondition: !empty().
  bool pop_due(Time deadline, Time& when, Callback& cb);

  /// Index entries moved aside by out-of-order pushes so far: the
  /// calendar's per-push cost beyond the O(1) append (diagnostic; the
  /// event-queue micro-benchmark bounds it per push).
  [[nodiscard]] std::uint64_t entries_shifted() const { return shifted_; }

  /// Routes slot-state invariant violations to the simulator's auditor
  /// (checked builds only; the pointer is unused otherwise).
  void set_auditor(Auditor* auditor) { auditor_ = auditor; }

 private:
  friend struct EventQueueTestPeer;  // generation and layout tests

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  enum class SlotState : std::uint8_t { kFree, kLive, kCancelled };

  struct Slot {
    Task task;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilSlot;
    SlotState state = SlotState::kFree;
  };

  struct Entry {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = kNilSlot;
  };

  // Calendar bucket: entries ascending by (time, seq) from `head` on;
  // positions before `head` are already consumed (cleared when the bucket
  // drains, so capacity is recycled without memmoves).
  struct Bucket {
    std::vector<Entry> entries;
    std::size_t head = 0;
  };

  // Total order over (time, seq); seqs are strictly increasing, so the
  // order is FIFO within an instant.
  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void check_live_slot(const Entry& e, const Slot& s);

  // Calendar index.
  [[nodiscard]] std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(t >> shift_) & bucket_mask_;
  }
  // Exclusive upper bound of the bucket window holding `t` (arithmetic
  // shifts keep windows width-aligned for negative times too).
  [[nodiscard]] Time window_end(Time t) const {
    return ((t >> shift_) + 1) << shift_;
  }
  void cal_init();
  void cal_insert(const Entry& e);
  Entry* cal_find_min();
  void cal_direct_seek();
  void cal_rebuild(std::size_t nbuckets);
  void calibrate_width();
  void take(const Entry& e, Callback& cb);
  void end_epoch();

  std::vector<Bucket> buckets_;
  std::vector<Entry> rebuild_scratch_;
  int shift_ = 0;               // bucket width is 2^shift_ ns
  std::size_t bucket_mask_ = 0;
  std::size_t cursor_ = 0;      // bucket the year scan is positioned on
  Time cursor_upper_ = 1;       // exclusive time bound of cursor_'s window
  std::size_t cal_stored_ = 0;  // entries in buckets incl. tombstones

  // Layout cost accounting: entries shifted by pushes and buckets stepped
  // over by pops. Every epoch of pops compares the cost with the pops it
  // served and recalibrates the width when the layout stops fitting.
  std::uint64_t shifted_ = 0;
  std::uint64_t scanned_ = 0;
  std::uint64_t epoch_cost_mark_ = 0;
  std::size_t epoch_len_ = 0;
  std::size_t epoch_left_ = 0;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  Auditor* auditor_ = nullptr;
};

}  // namespace netrs::sim
