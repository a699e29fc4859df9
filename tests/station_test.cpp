// sim::Station: the multi-slot FIFO station behind kv::Server and
// core::Accelerator.
#include "sim/station.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace netrs::sim {
namespace {

// Completion record: which job finished, when it started, and how many
// slots were still busy when `done` ran.
struct Done {
  int job = 0;
  Time started = 0;
  Time finished = 0;
  int busy = 0;
};

class StationRig : public ::testing::Test {
 protected:
  void start(Station<int>& st, int job, Duration service) {
    st.start(job, service, [this, &st](int j, Time started) {
      done.push_back({j, started, sim.now(), st.busy()});
    });
  }

  std::vector<int> in_service(const Station<int>& st) const {
    std::vector<int> jobs;
    st.for_each_in_service([&jobs](const int& j, Time) { jobs.push_back(j); });
    return jobs;
  }

  Simulator sim;
  std::vector<Done> done;
};

TEST_F(StationRig, FifoOrderSurvivesRingWraparoundAndGrowth) {
  Station<int> st(sim, 1, "fifo");
  for (int j = 0; j < 3; ++j) st.enqueue(j);
  EXPECT_EQ(st.dequeue(), 0);
  EXPECT_EQ(st.dequeue(), 1);
  // The head sits mid-ring: these wrap around, then the fifth queued job
  // grows the ring while it is wrapped.
  for (int j = 3; j < 20; ++j) st.enqueue(j);
  EXPECT_EQ(st.queued(), 18u);
  for (int j = 2; j < 20; ++j) EXPECT_EQ(st.dequeue(), j);
  EXPECT_EQ(st.dequeue(), std::nullopt);
  EXPECT_EQ(st.queued(), 0u);
}

TEST_F(StationRig, RemoveFirstTakesTheOldestMatchAndKeepsTheRestInOrder) {
  // The CliRS-R95 cancel path removes a queued copy from the middle.
  Station<int> st(sim, 1, "cancel");
  for (int j = 0; j < 3; ++j) st.enqueue(j);
  st.dequeue();
  st.dequeue();
  for (int j : {3, 14, 5, 24, 7}) st.enqueue(j);  // wraps the ring
  EXPECT_EQ(st.remove_first([](int j) { return j % 10 == 4; }), 14);
  EXPECT_EQ(st.remove_first([](int j) { return j == 99; }), std::nullopt);
  EXPECT_EQ(st.remove_first([](int j) { return j == 7; }), 7);  // the tail
  std::vector<int> rest;
  while (std::optional<int> j = st.dequeue()) rest.push_back(*j);
  EXPECT_EQ(rest, (std::vector<int>{2, 3, 5, 24}));
}

TEST_F(StationRig, FreedSlotIsReusedLowestFirst) {
  Station<int> st(sim, 3, "slots");
  start(st, 10, micros(10));
  start(st, 11, micros(5));
  start(st, 12, micros(20));
  EXPECT_FALSE(st.has_free_slot());
  sim.run_until(micros(6));
  // Job 11 left slot 1; the slot was free before its `done` ran.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].job, 11);
  EXPECT_EQ(done[0].finished - done[0].started, micros(5));
  EXPECT_EQ(done[0].busy, 2);
  start(st, 13, micros(10));
  EXPECT_EQ(in_service(st), (std::vector<int>{10, 13, 12}));
  sim.run_until(micros(11));  // job 10 leaves slot 0
  start(st, 14, micros(1));
  EXPECT_EQ(in_service(st), (std::vector<int>{14, 13, 12}));
  sim.run();
  EXPECT_EQ(done.size(), 5u);
  EXPECT_EQ(st.busy(), 0);
}

TEST_F(StationRig, CrashDropsEverythingAndTheStationRestartsClean) {
  Station<int> st(sim, 2, "crash");
  start(st, 1, micros(10));
  start(st, 2, micros(10));
  for (int j = 3; j < 6; ++j) st.enqueue(j);
  sim.run_until(micros(4));
  st.crash("test-crash");
  EXPECT_EQ(st.busy(), 0);
  EXPECT_EQ(st.queued(), 0u);
  sim.run();
  EXPECT_TRUE(done.empty()) << "a dropped job's completion finished a job";
  if constexpr (kAuditEnabled) {
    const AuditSummary s = sim.auditor().summary();
    EXPECT_EQ(s.drops_by_reason.at("test-crash"), 5u);
    EXPECT_EQ(s.violations_total, 0u);
  }

  // After the crash both slots and the queue work again.
  start(st, 6, micros(3));
  start(st, 7, micros(1));
  st.enqueue(8);
  EXPECT_EQ(in_service(st), (std::vector<int>{6, 7}));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].job, 7);
  EXPECT_EQ(done[1].job, 6);
  EXPECT_EQ(st.dequeue(), 8);
}

TEST_F(StationRig, CrashVoidsOnlyTheCompletionsOfTheJobsItDropped) {
  // Job 2 reuses the slot job 1 was dropped from. Job 1's completion is
  // still queued for 10 us and must not finish job 2 there.
  Station<int> st(sim, 1, "epoch");
  start(st, 1, micros(10));
  sim.run_until(micros(4));
  st.crash("test-crash");
  sim.run_until(micros(5));
  start(st, 2, micros(20));
  sim.run_until(micros(10));
  EXPECT_TRUE(done.empty()) << "job 1's completion finished job 2";
  EXPECT_EQ(st.busy(), 1);
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].job, 2);
  EXPECT_EQ(done[0].started, micros(5));
  EXPECT_EQ(done[0].finished, micros(25));
  EXPECT_EQ(done[0].busy, 0);
}

TEST_F(StationRig, AuditLedgerStaysCleanOverAMixedWorkload) {
  if constexpr (!kAuditEnabled) {
    GTEST_SKIP() << "auditor compiled out; configure -DNETRS_AUDIT=ON";
  }
  // Arrivals, FIFO service, cancels, crashes and busy-time checks in a
  // seeded mix, mirrored against a std::deque model of the queue.
  Station<int> st(sim, 3, "mixed");
  std::deque<int> model;
  Rng rng(7);
  const auto serve_next = [&](auto& self) -> void {
    std::optional<int> next = st.dequeue();
    ASSERT_EQ(next.has_value(), !model.empty());
    if (!next.has_value()) return;
    EXPECT_EQ(*next, model.front());
    model.pop_front();
    st.start(*next, static_cast<Duration>(rng.uniform(40'000)),
             [&self](int, Time) { self(self); });
  };
  Time window_start = 0;
  for (int i = 0; i < 5000; ++i) {
    sim.run_until(sim.now() + static_cast<Duration>(rng.uniform(10'000)));
    const std::uint64_t op = rng.uniform(100);
    if (op < 80) {
      if (st.has_free_slot() && model.empty()) {
        st.start(i, static_cast<Duration>(rng.uniform(40'000)),
                 [&serve_next](int, Time) { serve_next(serve_next); });
      } else {
        st.enqueue(i);
        model.push_back(i);
      }
    } else if (op < 97) {
      const int target = model.empty() ? -1 : model[model.size() / 2];
      const std::optional<int> removed =
          st.remove_first([target](int j) { return j == target; });
      EXPECT_EQ(removed.has_value(), target >= 0);
      if (removed.has_value()) model.erase(model.begin() + model.size() / 2);
    } else if (op < 99) {
      st.check_busy_time(st.busy() * (sim.now() - window_start),
                         sim.now() - window_start);
      window_start = sim.now();
    } else {
      st.crash("mixed-crash");
      model.clear();
    }
    ASSERT_EQ(st.queued(), model.size());
  }
  sim.run();
  const AuditSummary s = sim.auditor().summary();
  EXPECT_GT(s.checks, 5000u);
  EXPECT_EQ(s.violations_total, 0u)
      << (s.violations.empty() ? "" : s.violations[0].detail);
}

}  // namespace
}  // namespace netrs::sim
