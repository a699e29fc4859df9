#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace netrs::sim {
namespace {

// Calendar sizing: buckets double once live events exceed 2x the bucket
// count and halve below 1/8th (hysteresis so steady-state churn never
// resizes); the cap bounds the bucket directory to a few MB — beyond it
// buckets simply hold more entries each, which the sorted-append fast
// path tolerates.
constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 18;

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNilSlot;
    return index;
  }
  assert(slots_.size() < kNilSlot);
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.task.reset();
  // Bumping the generation invalidates every EventId handed out for this
  // slot so far; wrap-around after 2^32 reuses is acceptable.
  ++s.generation;
  if (s.generation == 0) s.generation = 1;
  s.state = SlotState::kFree;
  s.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::check_live_slot(const Entry& e, const Slot& s) {
  // A surfacing index entry must reference a live slot — tombstones were
  // dropped before it was selected, and a free slot here means the
  // (slot, generation) recycling lost track of an event.
  if constexpr (kAuditEnabled) {
    if (auditor_ != nullptr) {
      auditor_->check(s.state == SlotState::kLive, "event-slot-state", [&] {
        return "index entry (t=" + std::to_string(e.time) +
               " ns, seq=" + std::to_string(e.seq) + ") surfaced slot " +
               std::to_string(e.slot) + " in state " +
               std::to_string(static_cast<int>(s.state)) +
               " (generation " + std::to_string(s.generation) + ")";
      });
      return;
    }
  }
  // Audit builds without an installed auditor (bare EventQueue usage) must
  // not silently skip the invariant; fall back to the plain-build assert.
  assert(s.state == SlotState::kLive);
  (void)e;
  (void)s;
}

EventId EventQueue::push(Time t, Callback cb) {
  const std::uint32_t index = acquire_slot();
  Slot& s = slots_[index];
  s.task = std::move(cb);
  s.state = SlotState::kLive;
  if (buckets_.empty()) cal_init();
  cal_insert(Entry{t, next_seq_++, index});
  ++live_;
  if (live_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
    cal_rebuild(buckets_.size() * 2);
  } else if (cal_stored_ > 2 * live_ + 64) {
    // Tombstones the cursor never sweeps (cancelled entries in windows
    // the scan jumped over) would otherwise pin arena slots forever.
    cal_rebuild(buckets_.size());
  }
  return (static_cast<EventId>(s.generation) << 32) | index;
}

bool EventQueue::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size()) return false;
  Slot& s = slots_[index];
  if (s.state != SlotState::kLive || s.generation != generation) {
    return false;
  }
  // Release the callback (and whatever it captured) now; the index entry
  // becomes a tombstone discarded lazily when it reaches the front.
  s.task.reset();
  s.state = SlotState::kCancelled;
  assert(live_ > 0);
  --live_;
  return true;
}

Time EventQueue::floor_div(Time t, Time w) {
  // Bucket windows must stay width-aligned for negative times too (the
  // queue API does not forbid them even though the simulator never
  // schedules below zero).
  return t >= 0 ? t / w : -((-t + w - 1) / w);
}

std::size_t EventQueue::bucket_of(Time t) const {
  return static_cast<std::size_t>(floor_div(t, width_)) & bucket_mask_;
}

void EventQueue::cal_init() {
  buckets_.resize(kMinBuckets);
  bucket_mask_ = kMinBuckets - 1;
  width_ = 1;
  cursor_ = 0;
  cursor_upper_ = width_;
  cal_stored_ = 0;
}

void EventQueue::cal_insert(const Entry& e) {
  Bucket& b = buckets_[bucket_of(e.time)];
  if (b.entries.empty() || entry_less(b.entries.back(), e)) {
    // Fast path: seqs are monotonic, so same-instant bursts and any
    // time-ascending insertion stream append in O(1).
    b.entries.push_back(e);
  } else {
    const auto it =
        std::upper_bound(b.entries.begin() + static_cast<std::ptrdiff_t>(b.head),
                         b.entries.end(), e, entry_less);
    b.entries.insert(it, e);
  }
  ++cal_stored_;
  if (live_ == 0 || e.time < cursor_upper_ - width_) {
    // The new entry precedes the scan position: reposition the year scan
    // on its window so pop order stays exact.
    cursor_ = bucket_of(e.time);
    cursor_upper_ = floor_div(e.time, width_) * width_ + width_;
  }
}

EventQueue::Entry* EventQueue::cal_find_min() {
  assert(live_ > 0);
  std::size_t scanned = 0;
  while (true) {
    Bucket& b = buckets_[cursor_];
    while (b.head < b.entries.size() &&
           slots_[b.entries[b.head].slot].state == SlotState::kCancelled) {
      release_slot(b.entries[b.head].slot);
      ++b.head;
      --cal_stored_;
    }
    if (b.head >= b.entries.size()) {
      b.entries.clear();
      b.head = 0;
    } else if (b.entries[b.head].time < cursor_upper_) {
      // Buckets are sorted and no live entry precedes the current window
      // (push repositions the cursor), so this head is the global minimum.
      return &b.entries[b.head];
    }
    cursor_ = (cursor_ + 1) & bucket_mask_;
    cursor_upper_ += width_;
    if (++scanned > buckets_.size()) {
      // A full year scanned with nothing eligible: the next event is more
      // than nbuckets * width away. Find it directly and jump there.
      cal_direct_seek();
      scanned = 0;
    }
  }
}

void EventQueue::cal_direct_seek() {
  const Entry* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    Bucket& b = buckets_[i];
    while (b.head < b.entries.size() &&
           slots_[b.entries[b.head].slot].state == SlotState::kCancelled) {
      release_slot(b.entries[b.head].slot);
      ++b.head;
      --cal_stored_;
    }
    if (b.head >= b.entries.size()) {
      b.entries.clear();
      b.head = 0;
      continue;
    }
    const Entry& e = b.entries[b.head];
    if (best == nullptr || entry_less(e, *best)) {
      best = &e;
      best_bucket = i;
    }
  }
  assert(best != nullptr && "cal_direct_seek on a queue with no live events");
  cursor_ = best_bucket;
  cursor_upper_ = floor_div(best->time, width_) * width_ + width_;
}

void EventQueue::cal_rebuild(std::size_t nbuckets) {
  nbuckets = std::clamp(nbuckets, kMinBuckets, kMaxBuckets);
  rebuild_scratch_.clear();
  rebuild_scratch_.reserve(live_);
  for (Bucket& b : buckets_) {
    for (std::size_t i = b.head; i < b.entries.size(); ++i) {
      const Entry& e = b.entries[i];
      if (slots_[e.slot].state == SlotState::kCancelled) {
        release_slot(e.slot);
        continue;
      }
      rebuild_scratch_.push_back(e);
    }
    b.entries.clear();
    b.head = 0;
  }
  buckets_.resize(nbuckets);
  bucket_mask_ = nbuckets - 1;
  std::sort(rebuild_scratch_.begin(), rebuild_scratch_.end(), entry_less);
  if (rebuild_scratch_.size() >= 2) {
    // Width ~ mean inter-event gap, so the live population spreads over
    // about one bucket each; clamped to >= 1 ns (integer time).
    const Time span =
        rebuild_scratch_.back().time - rebuild_scratch_.front().time;
    width_ = std::max<Time>(
        1, span / static_cast<Time>(rebuild_scratch_.size() - 1));
  }
  if (rebuild_scratch_.empty()) {
    cursor_ = 0;
    cursor_upper_ = width_;
  } else {
    cursor_ = bucket_of(rebuild_scratch_.front().time);
    cursor_upper_ =
        floor_div(rebuild_scratch_.front().time, width_) * width_ + width_;
  }
  // Globally sorted order keeps every bucket's [head, end) run ascending.
  for (const Entry& e : rebuild_scratch_) {
    buckets_[bucket_of(e.time)].entries.push_back(e);
  }
  cal_stored_ = rebuild_scratch_.size();
}

Time EventQueue::next_time() {
  assert(live_ > 0);
  return cal_find_min()->time;
}

std::pair<Time, EventQueue::Callback> EventQueue::pop() {
  assert(live_ > 0);
  const Entry e = *cal_find_min();
  Slot& s = slots_[e.slot];
  check_live_slot(e, s);
  Task cb = std::move(s.task);
  release_slot(e.slot);
  Bucket& b = buckets_[cursor_];
  ++b.head;
  --cal_stored_;
  if (b.head >= b.entries.size()) {
    b.entries.clear();
    b.head = 0;
  }
  --live_;
  if (buckets_.size() > kMinBuckets && live_ < buckets_.size() / 8) {
    cal_rebuild(buckets_.size() / 2);
  }
  return {e.time, std::move(cb)};
}

}  // namespace netrs::sim
