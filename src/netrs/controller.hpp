// NetRS controller (§II, §III): the centralized component that collects
// traffic statistics from ToR monitors, periodically computes a Replica
// Selection Plan by solving the RSNodes-placement problem, and deploys it
// by updating the NetRS rules of every ToR operator. It also implements the
// §III-C exception handling: Degraded Replica Selection for infeasible
// groups, overloaded accelerators, and failed operators.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "netrs/operator.hpp"
#include "netrs/placement.hpp"
#include "sim/affinity.hpp"
#include "sim/simulator.hpp"

namespace netrs::core {

/// How the controller produces Replica Selection Plans.
enum class PlanMode {
  kTor,  ///< NetRS-ToR: each group served by its rack's ToR operator
  kIlp,  ///< NetRS-ILP: plans from the placement solver
};

/// Controller timing, sizing, and exception-handling knobs.
struct NETRS_SHARED_IMMUTABLE ControllerConfig {
  PlanMode mode = PlanMode::kIlp;  ///< Plan source.
  /// How often monitors are polled (and overload checks run).
  sim::Duration replan_interval = sim::millis(250);
  /// Minimum time between RSP recomputations in kIlp mode. The paper notes
  /// user-facing workloads are stable enough that the controller "does not
  /// need to update RSP frequently"; the first plan is still computed at
  /// the first stats tick.
  sim::Duration rsp_update_interval = sim::seconds(2);
  /// U: maximum accelerator utilization assumed when sizing Tmax (§III-A
  /// Constraint 2).
  double utilization_cap = 0.5;
  /// E as a fraction of the measured aggregate request rate (§V-B: 20%).
  double extra_hop_fraction = 0.2;
  /// Accelerator utilization above which a live RSNode's groups are
  /// degraded (§III-C exception case ii). > 1 disables the check.
  double overload_utilization = 1.5;
  PlacementOptions placement;  ///< Solver knobs passed through.
  /// Invoked just before each plan is deployed (before fresh RSNodes are
  /// reset), e.g. so selector factories can adapt C3's concurrency
  /// compensation to the new RSNode count.
  std::function<void(const PlacementResult&)> on_plan_change;
};

/// The centralized NetRS controller: statistics collection, periodic
/// replanning, plan deployment, exception handling (see the file comment).
class NETRS_COORD_GLOBAL Controller {
 public:
  /// `operators` must outlive the controller. The TrafficGroups instance is
  /// the same one installed in the ToR rules.
  Controller(sim::Simulator& sim, const net::FatTree& topo,
             const TrafficGroups& groups,
             std::vector<NetRSOperator*> operators, ControllerConfig cfg);

  /// Installs the bootstrap plan (ToR plan in both modes — a fresh ILP has
  /// no statistics yet) and starts the periodic replan task.
  void start();

  /// Marks an operator failed (§III-C case iii): its groups degrade to DRS
  /// immediately; subsequent plans exclude it.
  void fail_operator(RsNodeId id);

  /// Restores a previously failed operator.
  void restore_operator(RsNodeId id);

  /// Forces statistics collection + replan right now (tests/examples).
  void replan_now();

  /// The plan currently installed.
  [[nodiscard]] const PlacementResult& current_plan() const { return plan_; }
  /// How many plans have been deployed so far.
  [[nodiscard]] std::uint32_t plans_deployed() const { return deployed_; }
  /// Number of distinct RSNodes in the active plan.
  [[nodiscard]] int active_rsnodes() const { return plan_.rsnodes_used; }

  /// Builds the placement problem from the most recent statistics window
  /// (exposed for tests and the planner example).
  [[nodiscard]] PlacementProblem build_problem() const;

 private:
  void collect_stats();
  void replan();
  void install(const PlacementResult& plan);
  [[nodiscard]] double capacity_of(const NetRSOperator& op) const;
  /// The static NetRS-ToR plan over *all* traffic groups (needs no stats),
  /// rebuilt only after failed_ changed.
  [[nodiscard]] const PlacementResult& tor_plan();

  sim::Simulator& sim_;
  const net::FatTree& topo_;
  const TrafficGroups& groups_;
  std::vector<NetRSOperator*> operators_;
  ControllerConfig cfg_;

  std::unordered_map<RsNodeId, NetRSOperator*> by_id_;
  std::set<RsNodeId> failed_;
  std::set<RsNodeId> active_;  // RSNodes used by the current plan

  // Latest stats window: per group (indexed by GroupId), requests/s by
  // tier. A group is present when its monitor counted a response in the
  // window; the placement problem walks the present groups in GroupId
  // order, so the solver's variable order (hence tie-breaking) is fixed.
  struct GroupRate {
    double tier[3] = {0, 0, 0};
    std::uint64_t responses = 0;  // 0: absent from the window
  };
  std::vector<GroupRate> rates_;
  bool have_rates_ = false;  // some group is present
  sim::Time last_collect_ = 0;

  PlacementResult tor_plan_;
  bool tor_plan_stale_ = true;  // failed_ changed since tor_plan_ was built
  std::shared_ptr<const GroupRidTable> rid_table_;  // installed ToR table
  GroupRidTable next_table_;  // install()'s scratch: the table a plan asks
  PlacementResult plan_;
  sim::Time last_solve_ = 0;
  std::uint32_t deployed_ = 0;
  bool started_ = false;
};

}  // namespace netrs::core
