#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace netrs::sim {

/// Test-only backdoor (friend of EventQueue) used to read the calendar's
/// layout.
struct EventQueueTestPeer {
  /// The calendar's current bucket width in ns.
  static Time width(const EventQueue& q) { return Time{1} << q.shift_; }
};

namespace {

/// Removes and returns the earliest event (pop_next with no
/// deadline); a lane event comes back wrapped in a callback that fires it.
std::pair<Time, EventQueue::Callback> pop_earliest(EventQueue& q) {
  std::pair<Time, EventQueue::Callback> out;
  LaneEvent lane;
  if (q.pop_next(kNever, out.first, out.second, lane) ==
      EventQueue::Popped::kLane) {
    out.second = [lane] { lane(); };
  }
  return out;
}

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) pop_earliest(q).second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoWithinSameInstant) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(42, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) pop_earliest(q).second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PopReportsTime) {
  EventQueue q;
  q.push(77, [] {});
  EXPECT_EQ(q.next_time(), 77);
  auto [t, cb] = pop_earliest(q);
  EXPECT_EQ(t, 77);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FifoPreservedAcrossSlotReuse) {
  // Slot indices get recycled out of order; the FIFO tie-break must follow
  // scheduling order, not slot order. Pops free slot 0, then slot 2, so
  // the same-instant pushes below take slots 2, 0, 3, 4, 5.
  EventQueue q;
  std::vector<int> fired;
  q.push(1, [] {});  // slot 0
  q.push(9, [&] { fired.push_back(5); });  // slot 1
  q.push(2, [] {});  // slot 2
  pop_earliest(q).second();
  pop_earliest(q).second();
  for (int i = 0; i < 5; ++i) {
    q.push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) pop_earliest(q).second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueTest, StressRandomOrderMatchesSort) {
  EventQueue q;
  Rng rng(7);
  std::vector<Time> times;
  for (int i = 0; i < 2000; ++i) {
    const Time t = static_cast<Time>(rng.uniform(500));
    times.push_back(t);
    q.push(t, [] {});
  }
  Time prev = -1;
  while (!q.empty()) {
    const Time t = pop_earliest(q).first;
    EXPECT_GE(t, prev);
    prev = t;
  }
}

// Mirrors an EventQueue with a reference model of the pending set,
// ordered by (time, logical event index). Logical indices grow in push
// order, as the queue's sequence numbers do, so the model's minimum is
// exactly the event the queue must pop next (FIFO within an instant).
struct ReferenceChurn {
  EventQueue q;
  std::set<std::pair<Time, int>> model;
  std::vector<bool> is_lane;          // by logical event
  std::vector<LaneId> lanes;          // lanes made by add_lane
  std::vector<Duration> lane_delays;  // by lane
  int fired = -1;                     // set by callbacks and lane handlers
  Time now = 0;                       // time of the last pop

  ReferenceChurn() = default;
  ReferenceChurn(const ReferenceChurn&) = delete;  // lanes point at this

  void push(Time when) {
    const int k = static_cast<int>(is_lane.size());
    q.push(when, [this, k] { fired = k; });
    is_lane.push_back(false);
    model.emplace(when, k);
  }

  // Adds a lane whose events all fire `delay` after the pop before their
  // push, as a fixed-latency link's deliveries do.
  void add_lane(Duration delay) {
    lanes.push_back(q.add_lane(
        [](void* ctx, std::uint32_t token) {
          static_cast<ReferenceChurn*>(ctx)->fired = static_cast<int>(token);
        },
        this));
    lane_delays.push_back(delay);
  }

  void push_lane(std::size_t lane) {
    const int k = static_cast<int>(is_lane.size());
    const Time when = now + lane_delays[lane];
    q.push_lane(lanes[lane], when, static_cast<std::uint32_t>(k));
    is_lane.push_back(true);
    model.emplace(when, k);
  }

  void pop_and_check(int op) {
    ASSERT_FALSE(model.empty());
    const auto [want_time, want_event] = *model.begin();
    ASSERT_EQ(q.next_time(), want_time) << "op " << op;
    auto [when, cb] = pop_earliest(q);
    ASSERT_EQ(when, want_time) << "pop time diverged at op " << op;
    cb();
    ASSERT_EQ(fired, want_event) << "pop order diverged at op " << op;
    model.erase(model.begin());
    now = when;
  }

  // The run loop's path: pop_next with a deadline. Nothing may be removed
  // when the earliest event is later; otherwise the event must be the
  // model's minimum and come back through its own kind (lane or Task).
  void pop_next_and_check(Time deadline, int op) {
    ASSERT_FALSE(model.empty());
    const auto [want_time, want_event] = *model.begin();
    Time when = -1;
    EventQueue::Callback cb;
    LaneEvent lane;
    const EventQueue::Popped popped = q.pop_next(deadline, when, cb, lane);
    if (want_time > deadline) {
      ASSERT_EQ(popped, EventQueue::Popped::kNone) << "op " << op;
      ASSERT_EQ(q.size(), model.size()) << "op " << op;
      return;
    }
    const bool want_lane = is_lane[static_cast<std::size_t>(want_event)];
    ASSERT_EQ(popped, want_lane ? EventQueue::Popped::kLane
                                : EventQueue::Popped::kTask)
        << "op " << op;
    ASSERT_EQ(when, want_time) << "pop time diverged at op " << op;
    if (want_lane) {
      lane();
    } else {
      cb();
    }
    ASSERT_EQ(fired, want_event) << "pop order diverged at op " << op;
    model.erase(model.begin());
    now = when;
  }

  // `ops` random operations: a push (drawing its delay from `delay`)
  // with probability push_in_10 / 10, otherwise a pop checked against
  // the model.
  void run(Rng& rng, int ops, Time (*delay)(Rng&), std::uint64_t push_in_10) {
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t dice = rng.uniform(10);
      if (dice < push_in_10 || model.empty()) {
        push(now + delay(rng));
      } else {
        pop_and_check(op);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
      }
      ASSERT_EQ(q.size(), model.size());
    }
  }

  // Drains completely; the tail must match too.
  void drain() {
    while (!model.empty()) {
      pop_and_check(-1);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    EXPECT_TRUE(q.empty());
  }
};

// Uniform delays, sometimes far ahead, to exercise bucket-year wraps and
// the calendar's direct-seek fallback.
Time uniform_with_far_tail(Rng& rng) {
  return static_cast<Time>(
      rng.uniform(rng.uniform(50) == 0 ? 2'000'000 : 2'000));
}

// The simulator's near/far mix, a coarser version of BM_EventQueueChurn's
// ilp-k8 mix with the periodic timers drawn like any other delay: mostly
// 30 us link and 1.25 us accelerator hops, exponential service times and
// arrival gaps, and rare 50 ms / 100 ms timers.
Time near_far_mix(Rng& rng) {
  const std::uint64_t u = rng.uniform(1000);
  if (u < 620) return micros(30);
  if (u < 780) return micros(1.25);
  if (u < 890) return micros(rng.uniform(2) == 0 ? 5 : 1);
  if (u < 997) return nanos(rng.exponential(millis(2.5)));
  if (u < 999) return millis(50);
  return millis(100);
}

TEST(EventQueueTest, ChurnPopOrderMatchesReferenceModel) {
  // A random push/pop interleaving checked against the reference model
  // of the pending set.
  Rng rng(99);
  ReferenceChurn c;
  c.run(rng, 20000, uniform_with_far_tail, 5);
  ASSERT_FALSE(HasFatalFailure());
  c.drain();
}

TEST(EventQueueTest, NearFarMixMatchesReferenceModelAndShiftsLittle) {
  // The delay mix the simulator schedules, at its steady depth and
  // above. The calendar's width must follow the near traffic, not the
  // span stretched by far timers: a width taken from the whole span puts
  // most near events into one crowded bucket, and each push then shifts
  // ~20 entries aside.
  for (const int depth : {130, 1000}) {
    SCOPED_TRACE(depth);
    Rng rng(static_cast<std::uint64_t>(depth));
    ReferenceChurn c;
    for (int i = 0; i < depth; ++i) c.push(near_far_mix(rng));
    const std::uint64_t shifted_before = c.q.entries_shifted();
    const std::size_t pushes_before = c.is_lane.size();
    // Push and pop half the time each: the depth stays near `depth`.
    c.run(rng, 40000, near_far_mix, 5);
    ASSERT_FALSE(HasFatalFailure());
    const double shifted_per_push =
        static_cast<double>(c.q.entries_shifted() - shifted_before) /
        static_cast<double>(c.is_lane.size() - pushes_before);
    EXPECT_LE(shifted_per_push, 4.0);
    c.drain();
  }
}

TEST(EventQueueTest, SameInstantBurstKeepsTheWidth) {
  // A burst of same-instant events at t=0 lands on top of the mix and
  // grows the calendar, so the rebuild samples only the burst. Its zero
  // gaps must not collapse the width to 1 ns (which would spread the
  // near traffic over one bucket-year per few ns); FIFO order within the
  // burst and the order behind it must hold.
  Rng rng(5);
  ReferenceChurn c;
  for (int i = 0; i < 200; ++i) c.push(near_far_mix(rng));
  const Time mix_width = EventQueueTestPeer::width(c.q);
  for (int i = 0; i < 100; ++i) c.push(0);
  EXPECT_GT(EventQueueTestPeer::width(c.q), 1);
  EXPECT_GE(EventQueueTestPeer::width(c.q), mix_width / 64);
  for (int i = 0; i < 100; ++i) {
    c.pop_and_check(i);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(c.now, 0);
  }
  c.run(rng, 4000, near_far_mix, 5);
  ASSERT_FALSE(HasFatalFailure());
  c.drain();
}

TEST(EventQueueTest, PopsStraddlingRecalibrationsMatchReferenceModel) {
  // The delay scale jumps 1000x between phases at a constant depth of
  // 1000, so the layout stops fitting and the calendar recalibrates its
  // width mid-run. Events pushed under one width are popped under
  // another: the pop order must match the model throughout.
  Rng rng(2024);
  ReferenceChurn c;
  for (int i = 0; i < 1000; ++i) c.push(static_cast<Time>(rng.uniform(200)));
  std::vector<Time> widths;
  for (int phase = 0; phase < 6; ++phase) {
    const std::uint64_t range = phase % 2 == 0 ? 200 : 200'000;
    for (int op = 0; op < 8000; ++op) {
      c.pop_and_check(op);
      ASSERT_FALSE(HasFatalFailure());
      c.push(c.now + static_cast<Time>(rng.uniform(range)));
      ASSERT_EQ(c.q.size(), c.model.size());
    }
    widths.push_back(EventQueueTestPeer::width(c.q));
  }
  // Each fine phase ended on a narrower width than the coarse phases
  // around it: the calendar recalibrated at every jump.
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_LT(widths[i], widths[i + 1]) << "phase " << i;
    } else {
      EXPECT_GT(widths[i], widths[i + 1]) << "phase " << i;
    }
  }
  c.drain();
}

TEST(EventQueueTest, LanesMixedWithCalendarMatchReferenceModel) {
  // Differential test of the lanes: two or three fixed-delay lanes (the
  // fabric's 30 us and 1.25 us links, plus a third in one run) share the
  // queue with calendar pushes from the simulator's delay mix, and pops
  // both without a deadline and through
  // pop_next with random deadlines. Every pop must match the (time, push
  // order) reference model, so lane events interleave with calendar events
  // exactly as one index over all of them would order them.
  for (const int nlanes : {2, 3}) {
    SCOPED_TRACE(nlanes);
    Rng rng(static_cast<std::uint64_t>(40 + nlanes));
    ReferenceChurn c;
    c.add_lane(micros(30));
    c.add_lane(micros(1.25));
    if (nlanes == 3) c.add_lane(micros(5));
    for (int i = 0; i < 200; ++i) {
      if (rng.uniform(2) == 0) {
        c.push_lane(rng.uniform(c.lanes.size()));
      } else {
        c.push(near_far_mix(rng));
      }
    }
    for (int op = 0; op < 40000; ++op) {
      const std::uint64_t dice = rng.uniform(20);
      if (dice < 6 || c.model.empty()) {
        c.push_lane(rng.uniform(c.lanes.size()));
      } else if (dice < 10) {
        c.push(c.now + near_far_mix(rng));
      } else if (dice < 15) {
        c.pop_and_check(op);
      } else {
        // Deadlines from just behind to well past the lane delays.
        c.pop_next_and_check(c.now + static_cast<Time>(rng.uniform(40'000)),
                             op);
      }
      ASSERT_FALSE(HasFatalFailure());
      ASSERT_EQ(c.q.size(), c.model.size());
      ASSERT_EQ(c.q.empty(), c.model.empty());
    }
    c.drain();
  }
}

TEST(EventQueueTest, LaneAndCalendarEventsAtOneInstantPopInPushOrder) {
  // Lane entries take their seq from the queue's one counter, so a lane
  // event and a calendar event at the same instant fire in push order,
  // whichever lane or bucket holds them.
  EventQueue q;
  std::vector<int> fired;
  const auto record = [](void* ctx, std::uint32_t token) {
    static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(token));
  };
  const LaneId a = q.add_lane(record, &fired);
  const LaneId b = q.add_lane(record, &fired);
  q.push(100, [&] { fired.push_back(1); });
  q.push_lane(a, 100, 2);
  q.push_lane(b, 100, 3);
  q.push(100, [&] { fired.push_back(4); });
  q.push_lane(a, 100, 5);
  q.push(50, [&] { fired.push_back(0); });
  q.push_lane(b, 200, 7);
  q.push(100, [&] { fired.push_back(6); });
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.next_time(), 50);
  Time prev = 0;
  while (!q.empty()) {
    auto [when, cb] = pop_earliest(q);
    EXPECT_GE(when, prev);
    prev = when;
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueTest, LaneRingWrapsAndGrowsInOrder) {
  // A ring that has wrapped (head past the start) must grow into one
  // that keeps the oldest entry first; pops interleaved with the pushes
  // check the order across the wrap, the growth and the tail.
  EventQueue q;
  std::vector<std::uint32_t> fired;
  const LaneId lane = q.add_lane(
      [](void* ctx, std::uint32_t token) {
        static_cast<std::vector<std::uint32_t>*>(ctx)->push_back(token);
      },
      &fired);
  std::uint32_t next = 0;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i, ++next) {
      q.push_lane(lane, static_cast<Time>(10 * next), next);
    }
  };
  const auto pop = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Time when = -1;
      EventQueue::Callback cb;
      LaneEvent ev;
      ASSERT_EQ(q.pop_next(kNever, when, cb, ev), EventQueue::Popped::kLane);
      ev();
      ASSERT_EQ(when, static_cast<Time>(10 * fired.back()));
    }
  };
  push(64);   // fills a 64-entry ring exactly
  pop(40);    // head moves to 40
  push(40);   // wraps: entries 64..103 land in slots 0..39
  ASSERT_FALSE(HasFatalFailure());
  push(300);  // grows twice from a wrapped ring
  EXPECT_EQ(q.size(), 364u);
  pop(200);
  push(100);
  ASSERT_FALSE(HasFatalFailure());
  while (!q.empty()) {
    pop(1);
    ASSERT_FALSE(HasFatalFailure());
  }
  ASSERT_EQ(fired.size(), next);
  for (std::uint32_t i = 0; i < next; ++i) EXPECT_EQ(fired[i], i);
}

}  // namespace
}  // namespace netrs::sim
