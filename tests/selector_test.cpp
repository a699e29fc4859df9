#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "rs/baselines.hpp"
#include "rs/c3.hpp"
#include "rs/factory.hpp"
#include "rs/rate_control.hpp"
#include "sim/simulator.hpp"

namespace netrs::rs {
namespace {

const std::vector<net::HostId> kServers = {10, 20, 30};

Feedback fb(net::HostId server, double rt_ms, std::uint32_t queue,
            double service_ms) {
  Feedback f;
  f.server = server;
  f.response_time = sim::millis(rt_ms);
  f.queue_size = queue;
  f.service_time = sim::millis(service_ms);
  return f;
}

// --- C3 ---------------------------------------------------------------------

class C3Test : public ::testing::Test {
 protected:
  C3Options opts_without_rate() {
    C3Options o;
    o.rate_control = false;
    o.concurrency = 1.0;
    return o;
  }
  sim::Simulator sim;
};

TEST_F(C3Test, PrefersUnknownServersFirst) {
  C3Selector c3(sim, sim::Rng(1), opts_without_rate());
  c3.on_response(fb(10, 4.0, 2, 4.0));
  // 20 and 30 are unexplored: they must win over the known server.
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(c3.select(kServers), 10u);
  }
}

TEST_F(C3Test, PicksLowestQueueWhenLatenciesEqual) {
  C3Selector c3(sim, sim::Rng(2), opts_without_rate());
  c3.on_response(fb(10, 4.0, 10, 4.0));
  c3.on_response(fb(20, 4.0, 1, 4.0));
  c3.on_response(fb(30, 4.0, 5, 4.0));
  EXPECT_EQ(c3.select(kServers), 20u);
}

TEST_F(C3Test, CubicPenaltyBeatsLatencyDifferences) {
  C3Selector c3(sim, sim::Rng(3), opts_without_rate());
  // Server 10: slightly slower responses, empty queue.
  c3.on_response(fb(10, 6.0, 0, 4.0));
  // Server 20: fast responses but a deep queue. q-hat cubed must dominate.
  c3.on_response(fb(20, 2.0, 12, 4.0));
  c3.on_response(fb(30, 6.0, 13, 4.0));
  EXPECT_EQ(c3.select(kServers), 10u);
}

TEST_F(C3Test, OutstandingRequestsRaiseScore) {
  C3Selector c3(sim, sim::Rng(4), opts_without_rate());
  c3.on_response(fb(10, 4.0, 0, 4.0));
  c3.on_response(fb(20, 4.0, 0, 4.0));
  c3.on_response(fb(30, 4.0, 9, 4.0));
  // Pile outstanding requests onto 10: it should lose to 20.
  for (int i = 0; i < 5; ++i) c3.on_send(10);
  EXPECT_EQ(c3.outstanding(10), 5u);
  EXPECT_EQ(c3.select(kServers), 20u);
}

TEST_F(C3Test, ConcurrencyCompensationScalesOutstanding) {
  C3Options low = opts_without_rate();
  C3Options high = opts_without_rate();
  high.concurrency = 100.0;
  C3Selector a(sim, sim::Rng(5), low);
  C3Selector b(sim, sim::Rng(5), high);
  for (auto* c3 : {&a, &b}) {
    c3->on_response(fb(10, 4.0, 0, 4.0));
    c3->on_response(fb(20, 4.0, 0, 4.0));
    c3->on_send(10);
  }
  // With compensation 100 the single outstanding request looks like 100
  // queued requests: score(10) must exceed score(20) by much more in b.
  EXPECT_GT(b.score(10) - b.score(20), a.score(10) - a.score(20));
}

TEST_F(C3Test, ResponsesDrainOutstanding) {
  C3Selector c3(sim, sim::Rng(6), opts_without_rate());
  c3.on_send(10);
  c3.on_send(10);
  c3.on_response(fb(10, 4.0, 0, 4.0));
  EXPECT_EQ(c3.outstanding(10), 1u);
  c3.on_response(fb(10, 4.0, 0, 4.0));
  EXPECT_EQ(c3.outstanding(10), 0u);
  c3.on_response(fb(10, 4.0, 0, 4.0));  // extra response: no underflow
  EXPECT_EQ(c3.outstanding(10), 0u);
}

TEST_F(C3Test, FeedbackWithoutResponseTimeSkipsLatencyEwma) {
  C3Selector c3(sim, sim::Rng(7), opts_without_rate());
  c3.on_response(fb(10, 4.0, 0, 4.0));
  const double before = c3.score(10);
  Feedback f = fb(10, 400.0, 0, 4.0);
  f.has_response_time = false;
  c3.on_response(f);
  // The huge bogus response time must have been ignored.
  EXPECT_NEAR(c3.score(10), before, before * 0.01);
}

TEST_F(C3Test, SingleCandidateAlwaysSelected) {
  C3Selector c3(sim, sim::Rng(8), opts_without_rate());
  const std::vector<net::HostId> one = {42};
  EXPECT_EQ(c3.select(one), 42u);
}

TEST_F(C3Test, RateControlFallsBackToNextReplica) {
  C3Options o;
  o.rate_control = true;
  o.cubic.initial_rate = 1.0;  // 1 req/s: exhausted immediately
  o.cubic.burst_tokens = 1.0;
  C3Selector c3(sim, sim::Rng(9), o);
  c3.on_response(fb(10, 2.0, 0, 4.0));
  c3.on_response(fb(20, 3.0, 0, 4.0));
  c3.on_response(fb(30, 9.0, 5, 4.0));
  // First select drains server 10's token; the next must shift to 20.
  EXPECT_EQ(c3.select(kServers), 10u);
  EXPECT_EQ(c3.select(kServers), 20u);
  EXPECT_EQ(c3.select(kServers), 30u);
  // All limiters dry: C3 still returns the best-ranked server (10).
  EXPECT_EQ(c3.select(kServers), 10u);
}

// --- Baselines ---------------------------------------------------------------

TEST(BaselinesTest, RoundRobinCycles) {
  RoundRobinSelector rr;
  EXPECT_EQ(rr.select(kServers), 10u);
  EXPECT_EQ(rr.select(kServers), 20u);
  EXPECT_EQ(rr.select(kServers), 30u);
  EXPECT_EQ(rr.select(kServers), 10u);
}

TEST(BaselinesTest, RandomCoversAllCandidates) {
  RandomSelector r{sim::Rng(10)};
  std::map<net::HostId, int> counts;
  for (int i = 0; i < 3000; ++i) ++counts[r.select(kServers)];
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [h, c] : counts) {
    (void)h;
    EXPECT_NEAR(c, 1000, 200);
  }
}

TEST(BaselinesTest, LeastOutstandingAvoidsBusyServer) {
  sim::Simulator sim;
  LeastOutstandingSelector lor{sim::Rng(11), sim};
  lor.on_send(10);
  lor.on_send(10);
  lor.on_send(20);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(lor.select(kServers), 30u);
  lor.on_send(30);
  lor.on_send(30);
  // Now 20 has the fewest.
  EXPECT_EQ(lor.select(kServers), 20u);
}

TEST(BaselinesTest, LeastOutstandingTieBreaksUniformly) {
  sim::Simulator sim;
  LeastOutstandingSelector lor{sim::Rng(12), sim};
  std::map<net::HostId, int> counts;
  for (int i = 0; i < 3000; ++i) ++counts[lor.select(kServers)];
  EXPECT_EQ(counts.size(), 3u);  // ties must not always pick the first
}

TEST(BaselinesTest, TwoChoicesPrefersShorterQueue) {
  sim::Simulator sim;
  TwoChoicesSelector p2c{sim::Rng(13), sim};
  Feedback f;
  f.server = 10;
  f.queue_size = 50;
  p2c.on_response(f);
  std::map<net::HostId, int> counts;
  for (int i = 0; i < 2000; ++i) ++counts[p2c.select(kServers)];
  // Server 10 can only win when it is not sampled against 20/30.
  EXPECT_LT(counts[10], counts[20]);
  EXPECT_LT(counts[10], counts[30]);
}

TEST(BaselinesTest, EwmaLatencySelectsFastest) {
  sim::Simulator sim;
  EwmaLatencySelector sel{sim::Rng(14), sim};
  sel.on_response(fb(10, 9.0, 0, 4.0));
  sel.on_response(fb(20, 2.0, 0, 4.0));
  sel.on_response(fb(30, 5.0, 0, 4.0));
  EXPECT_EQ(sel.select(kServers), 20u);
}

// --- Factory -----------------------------------------------------------------

TEST(FactoryTest, BuildsEveryRegisteredAlgorithm) {
  sim::Simulator sim;
  for (const std::string& name : selector_names()) {
    SelectorConfig cfg;
    cfg.algorithm = name;
    auto sel = make_selector(cfg, sim, sim::Rng(15));
    ASSERT_NE(sel, nullptr) << name;
    EXPECT_FALSE(sel->name().empty());
    EXPECT_NE(std::find(kServers.begin(), kServers.end(),
                        sel->select(kServers)),
              kServers.end());
  }
}

TEST(FactoryTest, RejectsUnknownAlgorithm) {
  sim::Simulator sim;
  SelectorConfig cfg;
  cfg.algorithm = "quantum-oracle";
  EXPECT_THROW(make_selector(cfg, sim, sim::Rng(16)), std::invalid_argument);
}

TEST(FactoryTest, C3NorateDisablesRateControl) {
  sim::Simulator sim;
  SelectorConfig cfg;
  cfg.algorithm = "c3-norate";
  cfg.c3.cubic.initial_rate = 0.0001;  // would starve with rate control on
  auto sel = make_selector(cfg, sim, sim::Rng(17));
  // With rate control off, repeated selects never shift for rate reasons;
  // just exercise it to ensure no token logic interferes.
  for (int i = 0; i < 10; ++i) {
    sel->on_send(sel->select(kServers));
  }
}

// --- Cubic rate controller ----------------------------------------------------

TEST(RateControlTest, TokensRefillAtRate) {
  CubicOptions o;
  o.initial_rate = 100.0;  // per second
  o.burst_tokens = 1.0;
  CubicRateController rc(o);
  EXPECT_TRUE(rc.try_acquire(0));
  EXPECT_FALSE(rc.try_acquire(sim::millis(1)));  // 0.1 token accrued
  EXPECT_TRUE(rc.try_acquire(sim::millis(11)));  // 1.1 tokens accrued
}

TEST(RateControlTest, DecreaseWhenSendExceedsReceive) {
  CubicOptions o;
  o.initial_rate = 1000.0;
  o.gamma = 1.0;
  CubicRateController rc(o);
  // Responses arriving at ~100/s over a 20ms window => recv rate ~100.
  sim::Time t = 0;
  for (int i = 0; i < 10; ++i) {
    t += sim::millis(10);
    rc.on_response(t);
  }
  EXPECT_LT(rc.send_rate(), 1000.0);
  EXPECT_GT(rc.send_rate(), 0.0);
}

TEST(RateControlTest, CubicGrowthAfterDecrease) {
  CubicOptions o;
  o.initial_rate = 50.0;
  o.gamma = 100.0;  // effectively never decrease
  CubicRateController rc(o);
  sim::Time t = 0;
  for (int i = 0; i < 50; ++i) {
    t += sim::millis(2);
    rc.on_response(t);
  }
  // With gamma huge and steady responses, the rate must have grown.
  EXPECT_GE(rc.send_rate(), 50.0);
}

}  // namespace
}  // namespace netrs::rs
