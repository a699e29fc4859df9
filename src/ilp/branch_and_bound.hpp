// Branch-and-bound integer programming on top of the bounded simplex.
//
// Best-first search on the LP-relaxation bound with most-fractional
// branching and a rounding heuristic for early incumbents. Node limits make
// the paper's "terminate the solving process early for a suboptimal RSP"
// trade-off (§III-B) explicit: hitting the limit returns the best incumbent
// with status kFeasible. The node budget is the only cutoff: a wall-clock
// one would make plans depend on host speed.
#pragma once

#include <vector>

#include "ilp/model.hpp"

namespace netrs::ilp {

/// Search limits.
struct BnbOptions {
  int max_nodes = 20000;  ///< Node budget; hitting it returns kFeasible.
  /// Optional warm-start point. If feasible, it becomes the first
  /// incumbent, which lets the integral-objective pruning close symmetric
  /// search trees (like RSNode placement) almost immediately.
  std::vector<double> initial_incumbent;
};

/// Solves the integer program (see the file comment for the search) and
/// returns the best incumbent, or the infeasible/limit status.
Solution solve_ilp(const Model& model, const BnbOptions& opts = {});

}  // namespace netrs::ilp
