// Deterministic event queue for the discrete-event simulator.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break by a monotonically increasing sequence number),
// which makes every run with the same seed bit-for-bit reproducible.
//
// Two kinds of event share that one order. General events are sim::Task
// callbacks (small-buffer inline storage) in a recycled slot arena: a push
// takes a free slot, its pop frees it again. Scheduled events cannot be
// cancelled; an owner that must void work it scheduled (a crashed
// sim::Station) makes the callback check for itself when it fires.
//
// FIFO lanes carry the events that are pushed in time order anyway, such
// as link crossings of one fixed latency: a lane is a sim::Ring of
// (time, seq, token) entries with one plain-function handler, so a lane
// push is a ring append and a lane pop calls `handler(ctx, token)` — no
// Task, no arena slot, no index insert. Lane entries take their seq from
// the same counter as general events, and every pop selects the minimum
// (time, seq) over the calendar head and the lane heads, so the pop order
// is exactly the order one index over all events would give.
//
// The general events' priority index is a calendar queue (Brown 1988;
// DESIGN.md §4.8) of width-aligned time buckets, each kept sorted by
// (time, seq) with an amortized-O(1) sorted-append fast path. Pop reads
// the head of the current bucket, so push and pop are amortized O(1) at
// any depth. The bucket count follows the calendar's live population; the
// width is a power of two (bucket_of is a shift) calibrated on the gaps
// among the earliest pending events, and is recalibrated when pushes and
// pops start paying for a layout that no longer fits the traffic.
//
// The queue is allocation-free in steady state: every piece of storage
// grows only to a high-water mark and is reused from then on. A bucket is
// a (first, last) pair of a doubly linked list whose nodes live in one
// pooled arena, indexed by the event's slot, so an event's index entry
// comes and goes with its slot; doubling or halving the bucket count and
// recalibrating the width relink the nodes without allocating. The slot
// and node arenas grow to the peak number of pending general events, the
// bucket directory to its peak bucket count, and each lane's ring to its
// peak depth.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/audit.hpp"
#include "sim/ring.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace netrs::sim {

/// Identifies a FIFO lane of one EventQueue (lanes are numbered in the
/// order add_lane created them).
using LaneId = std::uint32_t;

/// A FIFO lane's handler: called with the lane's context pointer and the
/// token pushed with the event.
using LaneHandler = void (*)(void* ctx, std::uint32_t token);

/// One lane event taken off the queue: the lane's handler and the
/// arguments to call it with.
struct LaneEvent {
  LaneHandler handler = nullptr;  ///< The lane's handler.
  void* ctx = nullptr;            ///< The lane's context pointer.
  std::uint32_t token = 0;        ///< The token pushed with the event.
  /// Fires the event: `handler(ctx, token)`.
  void operator()() const { handler(ctx, token); }
};

/// Scheduled-callback priority queue with FIFO same-instant ordering, a
/// recycled slot arena, a calendar priority index, and Task-free FIFO
/// lanes for in-order traffic (see the file comment for the design).
class EventQueue {
 public:
  /// The stored callable type (sim::Task, move-only small-buffer).
  using Callback = Task;

  /// Where pop_next took its event from.
  enum class Popped : std::uint8_t {
    kNone,  ///< Nothing due by the deadline; nothing was removed.
    kTask,  ///< A general event: its callback was moved out.
    kLane,  ///< A lane event: its handler and token were stored.
  };

  /// Constructs an empty queue.
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` to fire at absolute time `t`. The callback is moved
  /// once, into its arena slot.
  void push(Time t, Callback&& cb);

  /// Creates a FIFO lane whose events fire as `handler(ctx, token)`, its
  /// ring reserved for `depth` pending events (Ring::reserve). Lanes are
  /// meant for traffic that arrives in time order by construction (a
  /// fixed delay added to a clock that never runs back); see push_lane.
  LaneId add_lane(LaneHandler handler, void* ctx, std::size_t depth = 0);

  /// Schedules a lane event at absolute time `t`. Precondition: `t` is no
  /// earlier than the lane's latest pending event. Audit builds record a
  /// `lane-order` violation and plain builds assert when it is; either
  /// way the event is clamped to that latest time, so the lane stays in
  /// order. The entry takes the next sequence number, exactly as push()
  /// would. The ring doubles when full and never shrinks, so its memory
  /// is bounded by the lane's peak number of pending events.
  void push_lane(LaneId lane, Time t, std::uint32_t token) {
    Ring<LaneEntry>& ring = lanes_[lane].ring;
    if (!ring.empty()) {
      const Time tail = ring[ring.size() - 1].time;
      if (t < tail) [[unlikely]] t = lane_order_violation(lane, t, tail);
    }
    ring.push_back(LaneEntry{t, next_seq_++, token});
    ++size_;
  }

  /// True when no events remain, lanes included.
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Number of pending events, lane events included.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest event. Precondition: !empty().
  [[nodiscard]] Time next_time() { return find_min().time; }

  /// The run loop's dispatch: one min-selection over the calendar head
  /// and the lane heads by (time, seq). When the earliest event is
  /// due at or before `deadline`, stores its time in `when`, removes it
  /// and returns where it came from: a general event's callback is moved
  /// into `cb`, a lane event's handler and token are stored in `lane`.
  /// Otherwise leaves it queued and returns kNone. Precondition: !empty().
  Popped pop_next(Time deadline, Time& when, Callback& cb, LaneEvent& lane) {
    const Head h = find_min();
    if (h.time > deadline) return Popped::kNone;
    when = h.time;
    if (h.lane == nullptr) {
      take(cal_head_, cb);
      return Popped::kTask;
    }
    Lane& ln = *h.lane;
    lane = LaneEvent{ln.handler, ln.ctx, ln.ring[0].token};
    ln.ring.pop_front();
    --size_;
    return Popped::kLane;
  }

  /// Index entries moved aside by out-of-order pushes so far: the
  /// calendar's per-push cost beyond the O(1) append (diagnostic; the
  /// event-queue micro-benchmark bounds it per push).
  [[nodiscard]] std::uint64_t entries_shifted() const { return shifted_; }

  /// Routes slot-state and lane-order invariant violations to the
  /// simulator's auditor (checked builds only; the pointer is unused
  /// otherwise).
  void set_auditor(Auditor* auditor) { auditor_ = auditor; }

 private:
  friend struct EventQueueTestPeer;  // layout tests

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  struct Slot {
    Task task;
    std::uint32_t next_free = kNilSlot;
    bool live = false;
  };

  struct Entry {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = kNilSlot;
  };

  // A pending general event's place in its calendar bucket; nodes_[i]
  // belongs to slots_[i].
  struct Node {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t prev = kNilSlot;  // earlier neighbour in the bucket
    std::uint32_t next = kNilSlot;  // later neighbour in the bucket
  };

  struct LaneEntry {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t token = 0;
  };

  // FIFO lane: entries ascending by (time, seq) from the front.
  struct Lane {
    Ring<LaneEntry> ring;
    LaneHandler handler = nullptr;
    void* ctx = nullptr;
  };

  // The earliest event: a lane's head, or with `lane` null the
  // calendar's (cal_head_). The defaults lose every (time, seq)
  // comparison.
  struct Head {
    Time time = kNever;
    std::uint64_t seq = ~std::uint64_t{0};
    Lane* lane = nullptr;
  };

  // Calendar bucket: a list of nodes ascending by (time, seq) from
  // `first` to `last` (kNilSlot when empty).
  struct Bucket {
    std::uint32_t first = kNilSlot;
    std::uint32_t last = kNilSlot;
  };

  // Total order over (time, seq); seqs are strictly increasing, so the
  // order is FIFO within an instant.
  template <typename A, typename B>
  static bool entry_less(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  [[nodiscard]] std::uint32_t take_slot();
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
  void cal_insert(std::uint32_t index);
  void cal_append(Bucket& b, std::uint32_t index);
  Entry cal_find_min();
  void cal_direct_seek();
  void cal_rebuild(std::size_t nbuckets);
  void calibrate_width();
  void take(const Entry& e, Callback& cb);
  void end_epoch();

  // One min-selection over the calendar head and the lane heads by
  // (time, seq); serves next_time and pop_next.
  [[nodiscard]] Head find_min() {
    assert(size_ > 0);
    Head best;
    if (cal_size_ > 0) {
      if (!cal_head_valid_) {
        cal_head_ = cal_find_min();
        cal_head_valid_ = true;
      }
      best.time = cal_head_.time;
      best.seq = cal_head_.seq;
    }
    for (Lane& ln : lanes_) {
      if (ln.ring.empty()) continue;
      const LaneEntry& e = ln.ring[0];
      if (e.time < best.time || (e.time == best.time && e.seq < best.seq)) {
        best = Head{e.time, e.seq, &ln};
      }
    }
    return best;
  }
  Time lane_order_violation(LaneId lane, Time t, Time tail);

  std::vector<Bucket> buckets_;
  std::vector<Entry> rebuild_scratch_;
  int shift_ = 0;               // bucket width is 2^shift_ ns
  std::size_t bucket_mask_ = 0;
  std::size_t cursor_ = 0;    // bucket the year scan is positioned on
  Time cursor_upper_ = 1;     // exclusive time bound of cursor_'s window
  std::size_t cal_size_ = 0;  // events in the calendar
  // The calendar's earliest entry as find_min last saw it; valid until
  // the calendar changes (a push or a take), so lane pops in between do
  // not probe the calendar again.
  Entry cal_head_;
  bool cal_head_valid_ = false;

  // Layout cost accounting: entries shifted by pushes and buckets stepped
  // over by pops. Every epoch of pops compares the cost with the pops it
  // served and recalibrates the width when the layout stops fitting.
  std::uint64_t shifted_ = 0;
  std::uint64_t scanned_ = 0;
  std::uint64_t epoch_cost_mark_ = 0;
  std::size_t epoch_len_ = 0;
  std::size_t epoch_left_ = 0;

  std::vector<Slot> slots_;
  std::vector<Node> nodes_;  // the buckets' node arena, by slot
  std::uint32_t free_head_ = kNilSlot;
  std::vector<Lane> lanes_;
  std::uint64_t next_seq_ = 1;
  std::size_t size_ = 0;  // pending events, calendar and lanes
  Auditor* auditor_ = nullptr;
};

}  // namespace netrs::sim
