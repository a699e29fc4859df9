// RSNodes placement (§III): choosing which NetRS operator selects replicas
// for each traffic group.
//
// Objective and constraints follow the paper's ILP, Eqs. (1)-(7):
//   minimize   sum_j D_j                      (number of RSNodes)
//   s.t.       P, D binary                    (2)
//              D_j >= P_ij                    (3)
//              P_ij <= R_ij                   (4)  eligibility
//              sum_j P_ij = 1                 (5)  one RSNode per group
//              sum_i P_ij * load_i <= Tmax_j  (6)  accelerator capacity
//              sum_ij P_ij * cost_ij <= E     (7)  extra-hop budget
// with R_ij = 1 iff operator j is the group's own ToR, an aggregation
// switch of the group's pod, or any core switch; load_i the group's total
// request rate; and cost_ij the Eq. (7) coefficient
//   cost_ij = sum_{k=0}^{h-1} 2*(h+k) * T_i(t(i)-k),   h = t(i) - t(j).
//
// Three solve paths:
//   kFullIlp    — the model above verbatim (fine for small instances and
//                 the only path supporting shared accelerators);
//   kReducedIlp — exploits that aggregation switches within a pod (and all
//                 core switches) are interchangeable: per-group tier-choice
//                 binaries + per-pod/core integer operator counts, solved
//                 exactly, then concretized by first-fit-decreasing packing
//                 and re-verified against the original constraints;
//   kGreedy     — consolidation heuristic used as a fallback.
// kAuto picks full for small instances, reduced when its symmetry
// assumptions hold, greedy otherwise.
//
// Infeasibility is handled per §III-C: the highest-traffic group is moved
// to Degraded Replica Selection and the problem re-solved.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "netrs/packet_format.hpp"
#include "netrs/traffic_group.hpp"
#include "sim/affinity.hpp"

namespace netrs::core {

/// One traffic group's location and measured demand (a row of the ILP).
struct NETRS_SHARED_IMMUTABLE GroupDemand {
  GroupId id = 0;  ///< Traffic-group id.
  int pod = 0;     ///< Pod the group sits in.
  int rack = 0;  ///< rack index within the pod
  /// Requests/s by traffic tier (index = tier id; [0]=inter-pod,
  /// [1]=intra-pod, [2]=intra-rack), from monitor statistics.
  double tier_traffic[3] = {0, 0, 0};

  /// Total requests/s across all tiers (load_i in Eq. 6).
  [[nodiscard]] double total() const {
    return tier_traffic[0] + tier_traffic[1] + tier_traffic[2];
  }
};

/// One candidate RSNode location (a column of the ILP).
struct NETRS_SHARED_IMMUTABLE OperatorSpec {
  RsNodeId id = kRidUnset;             ///< The operator's RSNode id.
  net::NodeId sw = net::kInvalidNode;  ///< Switch it is installed on.
  net::Tier tier = net::Tier::kCore;   ///< Tier of that switch.
  int pod = 0;   ///< agg/ToR only
  int rack = 0;  ///< ToR only: rack index within the pod
  double t_max = 0.0;  ///< accelerator capacity in requests/s (U*c/t)
  /// Operators with equal non-negative share ids sit behind one physical
  /// accelerator (§III-B last paragraph); -1 = dedicated.
  int accel_share = -1;
  bool available = true;  ///< false: failed / excluded by the controller
};

/// A complete placement instance (Eqs. 1-7 data).
struct NETRS_SHARED_IMMUTABLE PlacementProblem {
  std::vector<GroupDemand> groups;      ///< Rows: traffic groups.
  std::vector<OperatorSpec> operators;  ///< Columns: candidate RSNodes.
  double extra_hop_budget = 0.0;  ///< E, in forwarding operations/s
};

/// Which solve path to use (see the file comment).
enum class PlacementMethod {
  kAuto,        ///< Pick by instance size/shape.
  kFullIlp,     ///< The paper's ILP verbatim.
  kReducedIlp,  ///< Symmetry-reduced exact model + packing.
  kGreedy,      ///< Consolidation heuristic.
};

/// Solver knobs.
struct NETRS_SHARED_IMMUTABLE PlacementOptions {
  PlacementMethod method = PlacementMethod::kAuto;  ///< Solve path.
  /// Branch-and-bound node budget (the paper's early-termination knob).
  int max_bnb_nodes = 5000;
};

/// A solved Replica Selection Plan.
struct NETRS_SHARED_IMMUTABLE PlacementResult {
  /// Group -> RSNode assignment; groups absent here are in drs_groups.
  /// Ordered map: plans are iterated when installed (ToR tables, active-set
  /// computation), so the walk order must not depend on hash layout.
  std::map<GroupId, RsNodeId> assignment;
  std::vector<GroupId> drs_groups;  ///< Groups degraded to DRS (§III-C).
  int rsnodes_used = 0;             ///< Objective value: active RSNodes.
  double extra_hops_used = 0.0;  ///< Eq. (7) cost of the final plan
  bool proven_optimal = false;  ///< True when the solver proved optimality.
  std::string method;  ///< "full-ilp", "reduced-ilp", "greedy", "tor"
};

/// R matrix entry (Eq. 4 eligibility).
[[nodiscard]] bool eligible(const GroupDemand& g, const OperatorSpec& op);

/// Eq. (7) extra-hop cost of serving group `g` at an operator of `op_tier`
/// (for eligible pairings; groups sit at tier 2).
[[nodiscard]] double extra_hop_cost(const GroupDemand& g, net::Tier op_tier);

/// Solves the placement instance, degrading groups to DRS on
/// infeasibility (see the file comment for the method choices).
PlacementResult solve_placement(const PlacementProblem& problem,
                                const PlacementOptions& opts = {});

/// The NetRS-ToR plan: every group served by its own ToR operator.
PlacementResult tor_placement(const PlacementProblem& problem);

/// Validates a result against Eqs. (5)-(7); used by tests and by the
/// reduced-model concretization.
[[nodiscard]] bool validate_placement(const PlacementProblem& problem,
                                      const PlacementResult& result,
                                      double tol = 1e-6);

}  // namespace netrs::core
