#include "ilp/branch_and_bound.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <queue>
#include <vector>

#include "ilp/simplex.hpp"

namespace netrs::ilp {
namespace {

constexpr double kIntTol = 1e-6;  ///< |x - round(x)| below this is integral.
/// Prune nodes whose LP bound is within this of the incumbent.
constexpr double kGapAbs = 1e-9;

struct Node {
  // Bound overrides for integer variables, applied on top of the root model.
  std::vector<double> lb;
  std::vector<double> ub;
  double bound;  // parent LP objective, used for best-first ordering
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a,
                  const std::shared_ptr<Node>& b) const {
    return a->bound > b->bound;  // min-heap on bound
  }
};

/// Index of the most fractional integer variable, or -1 if all integral.
int most_fractional(const Model& m, const std::vector<double>& x,
                    double tol) {
  int best = -1;
  int best_priority = 0;
  double best_dist = tol;  // distance from the nearest integer, in (0, 0.5]
  for (int j = 0; j < m.num_vars(); ++j) {
    const VariableDef& v = m.vars()[static_cast<std::size_t>(j)];
    if (!v.integral) continue;
    const double dist =
        std::abs(x[static_cast<std::size_t>(j)] -
                 std::round(x[static_cast<std::size_t>(j)]));
    if (dist <= tol) continue;
    if (best < 0 || v.branch_priority > best_priority ||
        (v.branch_priority == best_priority && dist > best_dist)) {
      best = j;
      best_priority = v.branch_priority;
      best_dist = dist;
    }
  }
  return best;
}

/// Tries rounding the LP point to the nearest integers; returns true and
/// fills `out` when the rounded point is feasible.
bool try_rounding(const Model& m, const std::vector<double>& x,
                  std::vector<double>& out) {
  out = x;
  for (int j = 0; j < m.num_vars(); ++j) {
    if (m.vars()[static_cast<std::size_t>(j)].integral) {
      out[static_cast<std::size_t>(j)] =
          std::round(out[static_cast<std::size_t>(j)]);
    }
  }
  return m.is_feasible(out);
}

/// True when the objective can only take integral values at integral
/// points: every nonzero coefficient is an integer on an integer variable.
bool objective_is_integral(const Model& m) {
  for (const VariableDef& v : m.vars()) {
    if (v.obj == 0.0) continue;
    if (!v.integral) return false;
    if (std::abs(v.obj - std::round(v.obj)) > 1e-12) return false;
  }
  return true;
}

}  // namespace

Solution solve_ilp(const Model& model, const BnbOptions& opts) {
  Model work = model;  // bounds are mutated per node

  // With an integral objective, any solution strictly better than the
  // incumbent improves it by >= 1, so nodes with bound > incumbent - 1 can
  // be pruned.
  const double prune_gap = objective_is_integral(model) ? 1.0 - 1e-6 : kGapAbs;

  const int nv = model.num_vars();
  std::vector<double> root_lb(static_cast<std::size_t>(nv));
  std::vector<double> root_ub(static_cast<std::size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    root_lb[static_cast<std::size_t>(j)] =
        model.vars()[static_cast<std::size_t>(j)].lb;
    root_ub[static_cast<std::size_t>(j)] =
        model.vars()[static_cast<std::size_t>(j)].ub;
  }

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      NodeOrder>
      open;
  open.push(std::make_shared<Node>(Node{root_lb, root_ub, -kInf}));

  Solution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  double incumbent_obj = kInf;
  int nodes_explored = 0;
  bool limit_hit = false;
  bool root_unbounded = false;

  if (!opts.initial_incumbent.empty() &&
      model.is_feasible(opts.initial_incumbent)) {
    incumbent.status = SolveStatus::kOptimal;  // provisional
    incumbent.values = opts.initial_incumbent;
    incumbent.objective = model.objective_value(opts.initial_incumbent);
    incumbent_obj = incumbent.objective;
  }

  while (!open.empty()) {
    if (nodes_explored >= opts.max_nodes) {
      limit_hit = true;
      break;
    }
    auto node = open.top();
    open.pop();
    if (node->bound >= incumbent_obj - prune_gap) continue;  // pruned
    ++nodes_explored;

    for (int j = 0; j < nv; ++j) {
      work.set_bounds(j, node->lb[static_cast<std::size_t>(j)],
                      node->ub[static_cast<std::size_t>(j)]);
    }
    const Solution lp = solve_lp(work);
    if (lp.status == SolveStatus::kInfeasible) continue;
    if (lp.status == SolveStatus::kUnbounded) {
      if (nodes_explored == 1) root_unbounded = true;
      // An unbounded relaxation of a bounded-variable IP only happens with
      // unbounded integer vars; we cannot bound it, so give up on this node.
      continue;
    }
    if (lp.status != SolveStatus::kOptimal) {
      limit_hit = true;
      continue;
    }
    if (lp.objective >= incumbent_obj - prune_gap) continue;

    const int frac = most_fractional(model, lp.values, kIntTol);
    if (frac < 0) {
      // Integral LP optimum: new incumbent.
      incumbent.status = SolveStatus::kOptimal;
      incumbent.values = lp.values;
      for (int j = 0; j < nv; ++j) {
        if (model.vars()[static_cast<std::size_t>(j)].integral) {
          incumbent.values[static_cast<std::size_t>(j)] =
              std::round(incumbent.values[static_cast<std::size_t>(j)]);
        }
      }
      incumbent.objective = model.objective_value(incumbent.values);
      incumbent_obj = incumbent.objective;
      continue;
    }

    // Rounding heuristic for an early incumbent.
    std::vector<double> rounded;
    if (try_rounding(work, lp.values, rounded)) {
      const double obj = model.objective_value(rounded);
      if (obj < incumbent_obj - kGapAbs) {
        incumbent.status = SolveStatus::kOptimal;  // provisional
        incumbent.values = rounded;
        incumbent.objective = obj;
        incumbent_obj = obj;
      }
    }

    const double v = lp.values[static_cast<std::size_t>(frac)];
    auto down = std::make_shared<Node>(*node);
    down->bound = lp.objective;
    down->ub[static_cast<std::size_t>(frac)] = std::floor(v);
    if (down->lb[static_cast<std::size_t>(frac)] <=
        down->ub[static_cast<std::size_t>(frac)]) {
      open.push(down);
    }
    auto up = std::make_shared<Node>(*node);
    up->bound = lp.objective;
    up->lb[static_cast<std::size_t>(frac)] = std::ceil(v);
    if (up->lb[static_cast<std::size_t>(frac)] <=
        up->ub[static_cast<std::size_t>(frac)]) {
      open.push(up);
    }
  }

  if (incumbent.has_point()) {
    incumbent.status =
        limit_hit ? SolveStatus::kFeasible : SolveStatus::kOptimal;
  } else if (limit_hit) {
    incumbent.status = SolveStatus::kLimit;
  } else if (root_unbounded) {
    incumbent.status = SolveStatus::kUnbounded;
  } else {
    incumbent.status = SolveStatus::kInfeasible;
  }
  return incumbent;
}

}  // namespace netrs::ilp
