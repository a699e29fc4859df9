// The traced run: the workload's cell composed from the simulator's public
// classes (as bench/ablation_transition.cpp and examples/custom_algorithm.cpp
// do), with timing wrappers at each layer's public entry point:
//   - a net::Node attached in each net::Switch's place, forwarding to
//     Switch::receive;
//   - an Accelerator::set_handler handler wrapping SelectorNode::process;
//   - a decorating core::SelectorFactory timing every rs::ReplicaSelector
//     call made on an RSNode.
// The deployment mirrors harness::run_experiment's construction order and
// RNG derivation, so its event and forward counts equal the untraced run's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Calls into one layer entry point, their wall time and the heap
/// allocations made during them (process-wide: on a sharded run this also
/// counts allocations made meanwhile by other shard threads).
struct Span {
  std::uint64_t calls = 0;   ///< Calls timed.
  std::uint64_t ns = 0;      ///< Wall time inside the calls.
  std::uint64_t allocs = 0;  ///< Allocations during the calls.
};

/// One constructor group of the deployment (set-up trace).
struct CtorGroup {
  std::string name;         ///< Group label ("netrs.operators", ...).
  std::uint64_t ns = 0;     ///< Wall time constructing the group.
  std::int64_t rss_kb = 0;  ///< Resident-set growth across it.
};

/// Everything the traced run measures.
struct TracedResult {
  std::vector<CtorGroup> ctor;  ///< Set-up trace, in construction order.
  std::uint64_t setup_ns = 0;   ///< Construction through client start.
  std::uint64_t run_ns = 0;     ///< Simulation through the drain.
  std::uint64_t harvest_ns = 0; ///< Result harvest plus teardown.
  Span sw;                      ///< net::Switch::receive.
  Span selector;                ///< core::SelectorNode::process.
  Span rs_select;               ///< rs::ReplicaSelector::select on RSNodes.
  Span rs_send;                 ///< rs::ReplicaSelector::on_send.
  Span rs_response;             ///< rs::ReplicaSelector::on_response.
  std::uint64_t issued = 0;     ///< Requests issued.
  std::uint64_t completed = 0;  ///< Requests completed.
  std::uint64_t events = 0;     ///< Simulator events fired.
  double forwards_sum = 0.0;    ///< Switch forwards of measured requests.
  std::uint64_t measured = 0;   ///< Measured (post-warmup) completions.
  int shards = 1;               ///< Shards the run used.
  /// Engine telemetry summed over shard lanes (zero on serial runs).
  std::uint64_t windows = 0, lane_events = 0, exec_ns = 0, stall_ns = 0;
  std::uint64_t max_lane_events = 0;  ///< Busiest shard's events.
  /// The busiest accelerator's service-time share of the run.
  double accel_utilization = 0.0;
  /// core::solve_placement(controller.build_problem()) wall times, ms, on
  /// the problem of the last full traffic window (empty unless the scheme
  /// is NetRS-ILP).
  std::vector<double> ilp_solve_ms;
};

/// Builds, runs and harvests `w` with the timing wrappers installed.
[[nodiscard]] TracedResult run_traced(const Workload& w);

}  // namespace perfbench
