#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace netrs::sim {
namespace {

TEST(SimulatorTest, NowStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
}

TEST(SimulatorTest, RunAdvancesTimeThroughEvents) {
  Simulator s;
  std::vector<Time> seen;
  s.at(micros(5), [&] { seen.push_back(s.now()); });
  s.at(micros(1), [&] { seen.push_back(s.now()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<Time>{micros(1), micros(5)}));
  EXPECT_EQ(s.now(), micros(5));
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow) {
  Simulator s;
  Time fired_at = -1;
  s.at(100, [&] { s.after(50, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) s.after(1, recurse);
  };
  s.after(1, recurse);
  EXPECT_EQ(s.run(), 10u);
  EXPECT_EQ(depth, 10);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    s.at(i * 10, [&] { ++fired; });
  }
  EXPECT_EQ(s.run_until(50), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.next_event_time(), 60);  // later events stay queued
  EXPECT_EQ(s.run(), 5u);
  EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, RunUntilWithEmptyQueueAdvancesToDeadline) {
  Simulator s;
  s.run_until(1234);
  EXPECT_EQ(s.now(), 1234);
}

TEST(SimulatorTest, EveryRepeatsUntilFalse) {
  Simulator s;
  int ticks = 0;
  s.every(10, [&] { return ++ticks < 4; });
  s.run();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(s.now(), 40);
}

TEST(SimulatorTest, EventsFiredCounts) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_fired(), 7u);
}

TEST(SimulatorTest, SameInstantEventsFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.at(99, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace netrs::sim
