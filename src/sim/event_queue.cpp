#include "sim/event_queue.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <span>

namespace netrs::sim {
namespace {

// Calendar sizing: buckets double once live events exceed 2x the bucket
// count and halve below 1/8th (hysteresis so steady-state churn never
// resizes); the cap bounds the bucket directory to a few MB — beyond it
// buckets simply hold more entries each, which the sorted-append fast
// path tolerates.
constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 18;

// Width calibration samples the earliest kSample pending events; widths
// stay below 2^kMaxShift ns (~18 simulated minutes).
constexpr std::size_t kSample = 32;
constexpr int kMaxShift = 40;

// Recalibration: every epoch of pops (at least kMinEpoch, at least two
// per bucket) the entries shifted by pushes plus the buckets stepped over
// by pops are compared with the pops served; above kMaxCostPerPop the
// width is recalibrated. Two pops per bucket cover the live population
// (up to the bucket cap), so even a workload whose cost no width can
// lower pays at most one O(n log n) rebuild per n pops.
constexpr std::size_t kMinEpoch = 1024;
constexpr std::uint64_t kMaxCostPerPop = 4;

// Brown's separation estimate over ascending times: the mean gap,
// recomputed over the gaps at most twice that mean, so one far-off event
// in the sample (a periodic timer) does not stretch the width.
double mean_gap(std::span<const Time> t) {
  if (t.size() < 2) return 0;
  const double first = static_cast<double>(t.back() - t.front()) /
                       static_cast<double>(t.size() - 1);
  double sum = 0;
  std::size_t count = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const auto gap = static_cast<double>(t[i] - t[i - 1]);
    if (gap <= 2 * first) {
      sum += gap;
      ++count;
    }
  }
  // count >= 1: the smallest gap is at most the mean.
  return sum / static_cast<double>(count);
}

}  // namespace

std::uint32_t EventQueue::take_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNilSlot;
    return index;
  }
  assert(slots_.size() < kNilSlot);
  slots_.emplace_back();
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.task.reset();
  s.live = false;
  s.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::check_live_slot(const Entry& e, const Slot& s) {
  // A surfacing index entry must reference a live slot: a free slot here
  // means the arena's recycling lost track of an event.
  if constexpr (kAuditEnabled) {
    if (auditor_ != nullptr) {
      auditor_->check(s.live, "event-slot-state", [&] {
        return "index entry (t=" + std::to_string(e.time) +
               " ns, seq=" + std::to_string(e.seq) + ") surfaced free slot " +
               std::to_string(e.slot);
      });
      return;
    }
  }
  // Audit builds without an installed auditor (bare EventQueue usage) must
  // not silently skip the invariant; fall back to the plain-build assert.
  assert(s.live);
  (void)e;
  (void)s;
}

void EventQueue::push(Time t, Callback&& cb) {
  const std::uint32_t index = take_slot();
  Slot& s = slots_[index];
  s.task = std::move(cb);
  s.live = true;
  nodes_[index].time = t;
  nodes_[index].seq = next_seq_++;
  if (buckets_.empty()) cal_init();
  cal_insert(index);
  ++size_;
  ++cal_size_;
  cal_head_valid_ = false;
  if (cal_size_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
    cal_rebuild(buckets_.size() * 2);
  }
}

LaneId EventQueue::add_lane(LaneHandler handler, void* ctx,
                            std::size_t depth) {
  assert(handler != nullptr);
  lanes_.push_back(Lane{{}, handler, ctx});
  lanes_.back().ring.reserve(depth);
  return static_cast<LaneId>(lanes_.size() - 1);
}

Time EventQueue::lane_order_violation(LaneId lane, Time t, Time tail) {
  // A push behind the lane's tail would leave the ring out of order, and
  // the head comparison in find_min would fire it late and out of
  // (time, seq) order. Clamping to the tail keeps the ring sorted.
  if constexpr (kAuditEnabled) {
    if (auditor_ != nullptr) {
      auditor_->record(
          "lane-order",
          "lane " + std::to_string(lane) + " push at t=" + std::to_string(t) +
              " ns behind its latest pending event at t=" +
              std::to_string(tail) + " ns (" +
              std::to_string(lanes_[lane].ring.size()) +
              " pending on the lane); clamped to the latest");
      return tail;
    }
  }
  assert(t >= tail && "lane push behind the lane's latest event");
  (void)lane;
  (void)t;
  return tail;
}

void EventQueue::cal_init() {
  buckets_.resize(kMinBuckets);
  bucket_mask_ = kMinBuckets - 1;
  shift_ = 0;
  cursor_ = 0;
  cursor_upper_ = window_end(0);
  epoch_len_ = epoch_left_ = kMinEpoch;
  epoch_cost_mark_ = shifted_ + scanned_;
}

void EventQueue::cal_append(Bucket& b, std::uint32_t index) {
  Node& n = nodes_[index];
  n.prev = b.last;
  n.next = kNilSlot;
  if (b.last == kNilSlot) {
    b.first = index;
  } else {
    nodes_[b.last].next = index;
  }
  b.last = index;
}

void EventQueue::cal_insert(std::uint32_t index) {
  Node& n = nodes_[index];
  Bucket& b = buckets_[bucket_of(n.time)];
  if (b.last == kNilSlot || entry_less(nodes_[b.last], n)) {
    // Fast path: seqs are monotonic, so same-instant bursts and any
    // time-ascending insertion stream append in O(1).
    cal_append(b, index);
  } else {
    // Walk back from the tail to the first node the new one precedes;
    // every node stepped over is one the sorted order moves aside.
    std::uint32_t after = b.last;
    std::uint64_t moved = 1;
    while (nodes_[after].prev != kNilSlot &&
           entry_less(n, nodes_[nodes_[after].prev])) {
      after = nodes_[after].prev;
      ++moved;
    }
    shifted_ += moved;
    n.next = after;
    n.prev = nodes_[after].prev;
    if (n.prev == kNilSlot) {
      b.first = index;
    } else {
      nodes_[n.prev].next = index;
    }
    nodes_[after].prev = index;
  }
  if (cal_size_ == 0 || n.time < cursor_upper_ - (Time{1} << shift_)) {
    // The new entry precedes the scan position: reposition the year scan
    // on its window so pop order stays exact.
    cursor_ = bucket_of(n.time);
    cursor_upper_ = window_end(n.time);
  }
}

EventQueue::Entry EventQueue::cal_find_min() {
  assert(cal_size_ > 0);
  std::size_t scanned = 0;
  while (true) {
    const Bucket& b = buckets_[cursor_];
    if (b.first != kNilSlot && nodes_[b.first].time < cursor_upper_) {
      // Buckets are sorted and no entry precedes the current window (push
      // repositions the cursor), so this head is the global minimum.
      const Node& n = nodes_[b.first];
      return Entry{n.time, n.seq, b.first};
    }
    cursor_ = (cursor_ + 1) & bucket_mask_;
    cursor_upper_ += Time{1} << shift_;
    ++scanned_;
    if (++scanned > buckets_.size()) {
      // A full year scanned with nothing eligible: the next event is more
      // than nbuckets * width away. Find it directly and jump there.
      cal_direct_seek();
      scanned = 0;
    }
  }
}

void EventQueue::cal_direct_seek() {
  const Node* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i].first == kNilSlot) continue;
    const Node& n = nodes_[buckets_[i].first];
    if (best == nullptr || entry_less(n, *best)) {
      best = &n;
      best_bucket = i;
    }
  }
  assert(best != nullptr && "cal_direct_seek on an empty calendar");
  scanned_ += buckets_.size();
  cursor_ = best_bucket;
  cursor_upper_ = window_end(best->time);
}

void EventQueue::cal_rebuild(std::size_t nbuckets) {
  nbuckets = std::clamp(nbuckets, kMinBuckets, kMaxBuckets);
  rebuild_scratch_.clear();
  rebuild_scratch_.reserve(cal_size_);
  for (Bucket& b : buckets_) {
    for (std::uint32_t i = b.first; i != kNilSlot; i = nodes_[i].next) {
      rebuild_scratch_.push_back(Entry{nodes_[i].time, nodes_[i].seq, i});
    }
    b = Bucket{};
  }
  // Halving keeps the directory's capacity, so doubling back reuses it.
  buckets_.resize(nbuckets);
  bucket_mask_ = nbuckets - 1;
  std::sort(rebuild_scratch_.begin(), rebuild_scratch_.end(),
            entry_less<Entry, Entry>);
  calibrate_width();
  if (rebuild_scratch_.empty()) {
    cursor_ = 0;
    cursor_upper_ = window_end(0);
  } else {
    cursor_ = bucket_of(rebuild_scratch_.front().time);
    cursor_upper_ = window_end(rebuild_scratch_.front().time);
  }
  // Globally sorted order keeps every bucket's list ascending.
  for (const Entry& e : rebuild_scratch_) {
    cal_append(buckets_[bucket_of(e.time)], e.slot);
  }
}

void EventQueue::calibrate_width() {
  // Brown's rule: a bucket spans ~3 mean gaps among the earliest pending
  // events, so the events about to fire sit a few per bucket. The whole
  // live span would be stretched by far-future timers into buckets that
  // each hold most of the near traffic.
  const std::vector<Entry>& sorted = rebuild_scratch_;
  std::array<Time, kSample> sample{};
  std::size_t n = std::min(sorted.size(), kSample);
  for (std::size_t i = 0; i < n; ++i) sample[i] = sorted[i].time;
  double width = 3 * mean_gap({sample.data(), n});
  if (width == 0) {
    // A same-instant burst fills the sample and says nothing about the
    // spacing: measure the gaps between the next distinct instants
    // instead, one instant per bucket, as a dense instant stream needs
    // (each push into a shared bucket would shift a whole instant's run).
    n = 0;
    for (const Entry& e : sorted) {
      if (n == 0 || e.time != sample[n - 1]) sample[n++] = e.time;
      if (n == kSample) break;
    }
    width = mean_gap({sample.data(), n});
    if (width == 0) return;  // one instant queued: keep the width
  }
  const auto w = static_cast<std::uint64_t>(
      std::min(width, static_cast<double>(Time{1} << kMaxShift)));
  shift_ = w <= 1 ? 0 : std::bit_width(w) - 1;  // floor to a power of two
}

void EventQueue::end_epoch() {
  if (shifted_ + scanned_ - epoch_cost_mark_ > kMaxCostPerPop * epoch_len_) {
    cal_rebuild(buckets_.size());
  }
  epoch_len_ = epoch_left_ = std::max(kMinEpoch, 2 * buckets_.size());
  epoch_cost_mark_ = shifted_ + scanned_;
}

void EventQueue::take(const Entry& e, Callback& cb) {
  Slot& s = slots_[e.slot];
  check_live_slot(e, s);
  cb = std::move(s.task);
  release_slot(e.slot);
  cal_head_valid_ = false;
  Bucket& b = buckets_[cursor_];
  assert(b.first == e.slot);
  b.first = nodes_[e.slot].next;
  if (b.first == kNilSlot) {
    b.last = kNilSlot;
  } else {
    nodes_[b.first].prev = kNilSlot;
  }
  --size_;
  --cal_size_;
  if (buckets_.size() > kMinBuckets && cal_size_ < buckets_.size() / 8) {
    cal_rebuild(buckets_.size() / 2);
  }
  if (--epoch_left_ == 0) end_epoch();
}

}  // namespace netrs::sim
