// The simulator's steady state allocates nothing (DESIGN.md §4.7).
//
// Each case builds a k=8 harness::Deployment, drives its shard group past
// warm-up, and counts global operator new calls (bench/alloc_shim.hpp,
// linked into this binary only) over a window of four replan intervals.
// The count must equal the growth of the structures that are sized by a
// peak rather than up front, each counted exactly from its capacity
// before and after the window:
//   - RV tables (core::SelectorNode), which double up to 2^16 slots as
//     an RSNode's RV counter advances;
//   - client pending tables and server wait queues, which double when a
//     client's outstanding requests or a server's queue reach a new peak;
//   - the measured-latency samples, one per completed request.
// Every other allocation in the window (a replan, a monitor count, a
// calendar bucket, a selector's state, ...) fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_shim.hpp"
#include "harness/deployment.hpp"
#include "harness/experiment.hpp"

namespace netrs::harness {
namespace {

using benchshim::alloc_count;

// Allocations a buffer made growing from `before` to `after` elements:
// one for its first storage of `first` elements, one per doubling.
std::uint64_t growths(std::size_t before, std::size_t after,
                      std::size_t first) {
  if (after == before) return 0;
  std::uint64_t n = before == 0 ? 1 : 0;
  std::size_t size = before == 0 ? first : before;
  while (size < after) {
    size *= 2;
    ++n;
  }
  EXPECT_EQ(size, after) << "not a doubling of " << before;
  return n;
}

// Capacities of the peak-sized structures, in one fixed walk order.
struct PeakSized {
  std::vector<std::size_t> rv_tables, pending, queues, samples;
};

PeakSized capacities(const Deployment& d) {
  PeakSized c;
  for (const auto& op : d.operators) {
    c.rv_tables.push_back(op->selector_node().rv_table_slots());
  }
  for (const auto& client : d.clients) {
    c.pending.push_back(client->pending_capacity());
  }
  for (const auto& server : d.servers) {
    c.queues.push_back(server->queue_capacity());
  }
  for (const ExperimentResult& t : d.tallies) {
    c.samples.push_back(t.latencies_ms.samples().capacity());
  }
  return c;
}

struct Growth {
  std::uint64_t rv = 0, peaks = 0, samples = 0;
};

Growth growth(const PeakSized& a, const PeakSized& b) {
  Growth g;
  for (std::size_t i = 0; i < a.rv_tables.size(); ++i) {
    g.rv += growths(a.rv_tables[i], b.rv_tables[i], 64);
  }
  for (std::size_t i = 0; i < a.pending.size(); ++i) {
    g.peaks += growths(a.pending[i], b.pending[i], 16);
  }
  for (std::size_t i = 0; i < a.queues.size(); ++i) {
    g.peaks += growths(a.queues[i], b.queues[i], 4);
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    g.samples += growths(a.samples[i], b.samples[i], 1);
  }
  return g;
}

// bench/macro's k=8 cell at 90% utilization (32 servers, 64 clients), long
// enough that the window below ends before the clients stop.
ExperimentConfig k8_cell(int shards) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 8;
  cfg.num_servers = 32;
  cfg.num_clients = 64;
  cfg.utilization = 0.9;
  cfg.total_requests = 100'000;
  cfg.repeats = 1;
  cfg.jobs = 1;
  cfg.shards = shards;
  cfg.seed = 1;
  return cfg;
}

// The window: past warm-up and past the NetRS-ILP re-solve at ~2.1 s, four
// replan intervals long, before the next re-solve at ~4.1 s
// (rsp_update_interval is 2 s).
constexpr sim::Time kWindowStart = sim::millis(2400);

void expect_steady_state_allocates_nothing(Scheme scheme, int shards) {
  const ExperimentConfig cfg = k8_cell(shards);
  ASSERT_EQ(cfg.replan_interval, sim::millis(100));
  const sim::Time window_end = kWindowStart + 4 * cfg.replan_interval;
  const sim::FaultPlan plan = validate_config(cfg);
  Deployment d(scheme, cfg, plan, cfg.seed);
  ASSERT_GT(kWindowStart, d.warmup_time);
  ASSERT_LT(window_end, d.t_end);

  d.shard_group.run_until(kWindowStart);
  const std::uint32_t plans_before =
      d.controller ? d.controller->plans_deployed() : 0;
  const PeakSized before = capacities(d);
  const std::uint64_t allocs_before = alloc_count();
  d.shard_group.run_until(window_end);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const Growth g = growth(before, capacities(d));

  EXPECT_EQ(allocs, g.rv + g.peaks + g.samples)
      << "RV-table doublings " << g.rv << ", pending-table and wait-queue "
      << "doublings " << g.peaks << ", latency-sample doublings "
      << g.samples;
  if (scheme == Scheme::kNetRSToR) {
    // Every replan in the window redeployed the ToR plan.
    EXPECT_EQ(d.controller->plans_deployed() - plans_before, 4u);
  } else if (scheme == Scheme::kNetRSIlp) {
    // No re-solve (and no overload degradation) fell in the window.
    EXPECT_EQ(d.controller->plans_deployed(), plans_before);
  }
}

TEST(SteadyStateAllocTest, NetRSToR) {
  expect_steady_state_allocates_nothing(Scheme::kNetRSToR, 1);
}

TEST(SteadyStateAllocTest, NetRSToRTwoShards) {
  expect_steady_state_allocates_nothing(Scheme::kNetRSToR, 2);
}

TEST(SteadyStateAllocTest, CliRSR95) {
  expect_steady_state_allocates_nothing(Scheme::kCliRSR95, 1);
}

TEST(SteadyStateAllocTest, NetRSIlpBetweenSolves) {
  expect_steady_state_allocates_nothing(Scheme::kNetRSIlp, 1);
}

}  // namespace
}  // namespace netrs::harness
