#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace netrs::sim {

/// Test-only backdoor (friend of EventQueue) used to steer a slot's
/// generation counter to the wraparound boundary.
struct EventQueueTestPeer {
  /// Sets the generation counter of `slot` (must not have live events
  /// whose ids embed the old generation).
  static void set_generation(EventQueue& q, std::uint32_t slot,
                             std::uint32_t gen) {
    q.slots_[slot].generation = gen;
  }
  /// Reads the generation counter of `slot`.
  static std::uint32_t generation(const EventQueue& q, std::uint32_t slot) {
    return q.slots_[slot].generation;
  }
};

namespace {

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
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoWithinSameInstant) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(42, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PopReportsTime) {
  EventQueue q;
  q.push(77, [] {});
  EXPECT_EQ(q.next_time(), 77);
  auto [t, cb] = q.pop();
  EXPECT_EQ(t, 77);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelRemovesPendingEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(5, [&] { fired = true; });
  q.push(6, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.push(1, [] {});
  EXPECT_FALSE(q.cancel(999));
  EXPECT_FALSE(q.cancel(0));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, CancelFiredIdIsNoop) {
  EventQueue q;
  const EventId id = q.push(1, [] {});
  q.pop().second();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelledHeadSkippedByNextTime) {
  EventQueue q;
  const EventId early = q.push(1, [] {});
  q.push(9, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueueTest, CancelReleasesCapturedResourcesEagerly) {
  // Regression: cancel() used to keep the callback (and everything it
  // captured, e.g. a timeout's retained state) alive until the tombstone
  // reached the front of the heap. The capture must die at cancel time.
  EventQueue q;
  auto retained = std::make_shared<int>(7);
  const EventId id = q.push(100, [retained] { (void)*retained; });
  q.push(1, [] {});  // keeps the cancelled entry buried in the heap
  EXPECT_EQ(retained.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(retained.use_count(), 1) << "callback retained past cancel()";
  while (!q.empty()) q.pop().second();
}

TEST(EventQueueTest, RecycledSlotsInvalidateStaleIds) {
  // A slot freed by pop/cancel may be reused by a later push; the stale
  // EventId must not cancel the new occupant (generation tag check).
  EventQueue q;
  const EventId first = q.push(1, [] {});
  q.pop().second();  // frees the slot
  bool fired = false;
  q.push(2, [&] { fired = true; });  // likely reuses the slot
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, FifoPreservedAcrossSlotReuse) {
  // Slot indices get recycled out of order; the FIFO tie-break must follow
  // scheduling order, not slot order.
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.push(5, [] {});
  q.push(5, [&] { fired.push_back(0); });
  q.cancel(a);
  for (int i = 1; i <= 5; ++i) {
    q.push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
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
    const Time t = q.pop().first;
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(EventQueueTest, StressWithRandomCancellations) {
  EventQueue q;
  Rng rng(11);
  std::vector<EventId> ids;
  int live = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push(static_cast<Time>(rng.uniform(100)), [] {}));
    ++live;
  }
  for (const EventId id : ids) {
    if (rng.bernoulli(0.5) && q.cancel(id)) --live;
  }
  EXPECT_EQ(q.size(), static_cast<size_t>(live));
  int popped = 0;
  while (!q.empty()) {
    q.pop();
    ++popped;
  }
  EXPECT_EQ(popped, live);
}

TEST(EventQueueTest, ChurnPopOrderMatchesReferenceModel) {
  // A random push/cancel/pop interleaving checked against a reference
  // model of the pending set, ordered by (time, logical event index).
  // Logical indices grow in push order, as the queue's sequence numbers
  // do, so the model's minimum is exactly the event the queue must pop
  // next (FIFO within an instant).
  EventQueue q;
  Rng rng(99);
  std::set<std::pair<Time, int>> model;
  std::vector<EventId> ids;  // by logical event
  std::vector<Time> whens;   // by logical event
  std::vector<bool> gone;    // popped or cancelled
  int fired = -1;            // set by callbacks

  const auto pop_and_check = [&](int op) {
    ASSERT_FALSE(model.empty());
    const auto [want_time, want_event] = *model.begin();
    ASSERT_EQ(q.next_time(), want_time) << "op " << op;
    auto [when, cb] = q.pop();
    ASSERT_EQ(when, want_time) << "pop time diverged at op " << op;
    cb();
    ASSERT_EQ(fired, want_event) << "pop order diverged at op " << op;
    gone[static_cast<std::size_t>(fired)] = true;
    model.erase(model.begin());
  };

  Time t = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t dice = rng.uniform(10);
    if (dice < 5 || model.empty()) {
      // Push (sometimes far ahead, to exercise bucket-year wraps and the
      // calendar's direct-seek fallback).
      const Time when =
          t + static_cast<Time>(rng.uniform(rng.uniform(50) == 0 ? 2'000'000
                                                                 : 2'000));
      const int k = static_cast<int>(ids.size());
      ids.push_back(q.push(when, [&fired, k] { fired = k; }));
      whens.push_back(when);
      gone.push_back(false);
      model.emplace(when, k);
    } else if (dice < 7) {
      // Cancel a random logical event; one already gone must fail.
      const std::size_t probe = rng.uniform(ids.size());
      if (!gone[probe]) {
        EXPECT_TRUE(q.cancel(ids[probe]));
        gone[probe] = true;
        model.erase({whens[probe], static_cast<int>(probe)});
      } else {
        EXPECT_FALSE(q.cancel(ids[probe]));
      }
    } else {
      pop_and_check(op);
      ASSERT_FALSE(HasFatalFailure());
      t = whens[static_cast<std::size_t>(fired)];
    }
    ASSERT_EQ(q.size(), model.size());
  }
  // Drain completely; the tail must match too.
  while (!model.empty()) {
    pop_and_check(-1);
    ASSERT_FALSE(HasFatalFailure());
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelHeavyChurnReclaimsTombstones) {
  // Cancel-dominated load: tombstones in windows the cursor jumps over
  // must be purged (not pinned forever). Every cancel must succeed
  // exactly once, stale ids must keep failing, and live accounting must
  // stay exact through 200 rounds of 90% cancellation.
  EventQueue q;
  Rng rng(7);
  Time t = 0;
  std::vector<EventId> ids;  // by logical event k
  std::vector<bool> gone;    // popped or cancelled
  std::size_t live_count = 0;
  int fired = -1;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 100; ++i) {
      const int k = static_cast<int>(ids.size());
      ids.push_back(q.push(t + 1 + static_cast<Time>(rng.uniform(1'000'000)),
                           [&fired, k] { fired = k; }));
      gone.push_back(false);
      ++live_count;
    }
    // Cancel ~90% of everything still pending.
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (!gone[k] && rng.uniform(10) != 0) {
        ASSERT_TRUE(q.cancel(ids[k]));
        gone[k] = true;
        --live_count;
        ASSERT_FALSE(q.cancel(ids[k])) << "double cancel must fail";
      }
    }
    // Pop a few survivors; time only moves forward.
    for (int i = 0; i < 3 && !q.empty(); ++i) {
      auto [when, cb] = q.pop();
      EXPECT_GE(when, t);
      t = when;
      cb();
      ASSERT_GE(fired, 0);
      ASSERT_FALSE(gone[static_cast<std::size_t>(fired)]);
      gone[static_cast<std::size_t>(fired)] = true;
      --live_count;
    }
    ASSERT_EQ(q.size(), live_count);
  }
  while (!q.empty()) {
    auto [when, cb] = q.pop();
    cb();
    gone[static_cast<std::size_t>(fired)] = true;
    --live_count;
  }
  EXPECT_EQ(live_count, 0u);
}

TEST(EventQueueTest, GenerationWrapSkipsZeroAndKillsStaleIds) {
  EventQueue q;

  // Cycle slot 0 once so it exists and is free.
  const EventId first = q.push(1, [] {});
  ASSERT_EQ(static_cast<std::uint32_t>(first & 0xFFFFFFFFu), 0u);
  (void)q.pop();

  // Park the free slot's generation at the wrap boundary.
  EventQueueTestPeer::set_generation(q, 0, 0xFFFFFFFFu);

  // Reuse the slot: the id embeds generation 0xFFFFFFFF.
  const EventId boundary = q.push(2, [] {});
  ASSERT_EQ(static_cast<std::uint32_t>(boundary & 0xFFFFFFFFu), 0u);
  ASSERT_EQ(static_cast<std::uint32_t>(boundary >> 32), 0xFFFFFFFFu);

  // Cancel it, then force the tombstone to be swept so the slot recycles:
  // a live event at the same instant sits behind the tombstone (lower
  // seq first), so popping it releases the cancelled slot on the way.
  ASSERT_TRUE(q.cancel(boundary));
  const EventId later = q.push(2, [] {});
  auto [when, cb] = q.pop();
  EXPECT_EQ(when, 2);

  // The wrapped generation must have skipped 0 (0 is never a valid id).
  EXPECT_EQ(EventQueueTestPeer::generation(q, 0), 1u);

  // Stale ids from before the wrap are dead, and a forged generation-0 id
  // never matches anything.
  EXPECT_FALSE(q.cancel(boundary));
  EXPECT_FALSE(q.cancel(EventId{0} << 32 | 0u));
  EXPECT_FALSE(q.cancel(later));  // already popped

  // Recycled slots keep working: a fresh push's id embeds exactly its
  // slot's current generation and cancels cleanly.
  const EventId fresh = q.push(4, [] {});
  const auto fresh_slot = static_cast<std::uint32_t>(fresh & 0xFFFFFFFFu);
  EXPECT_EQ(static_cast<std::uint32_t>(fresh >> 32),
            EventQueueTestPeer::generation(q, fresh_slot));
  EXPECT_TRUE(q.cancel(fresh));
}

}  // namespace
}  // namespace netrs::sim
