// Small linear/integer programming modeling API.
//
// The paper assumes an off-the-shelf optimizer (Gurobi / CPLEX) for the
// RSNodes-placement ILP of §III-B; this module plus `simplex` and
// `branch_and_bound` is the from-scratch substitute. Minimization only.
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace netrs::ilp {

/// Unbounded-variable sentinel (+infinity).
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Index of a variable within its Model.
using VarId = int;

/// Constraint direction.
enum class Sense {
  kLe,  ///< expr <= rhs
  kGe,  ///< expr >= rhs
  kEq,  ///< expr == rhs
};

/// One coefficient of a sparse linear expression.
struct Term {
  VarId var;    ///< Variable index.
  double coef;  ///< Its coefficient.
};

/// Sparse linear expression sum(coef * var). Constants belong on the RHS.
struct LinExpr {
  std::vector<Term> terms;  ///< The summands (unsorted, may repeat vars).

  /// Appends `c * v` (dropping exact zeros); returns *this for chaining.
  LinExpr& add(VarId v, double c) {
    if (c != 0.0) terms.push_back({v, c});
    return *this;
  }
};

/// One decision variable: bounds, objective coefficient, integrality.
struct VariableDef {
  double lb = 0.0;        ///< Lower bound.
  double ub = kInf;       ///< Upper bound.
  double obj = 0.0;       ///< Objective coefficient.
  bool integral = false;  ///< Integer-constrained when true.
  /// Branch-and-bound picks fractional variables with the highest priority
  /// first (coupling variables like operator counts close trees faster).
  int branch_priority = 0;
  std::string name;  ///< Diagnostic label.
};

/// One row: expr `sense` rhs.
struct ConstraintDef {
  LinExpr expr;              ///< Left-hand side.
  Sense sense = Sense::kLe;  ///< Direction.
  double rhs = 0.0;          ///< Right-hand side.
  std::string name;          ///< Diagnostic label.
};

/// Outcome classification of a solve.
enum class SolveStatus {
  kOptimal,     ///< proven optimal
  kFeasible,    ///< feasible incumbent, optimality not proven (limit hit)
  kInfeasible,  ///< no feasible point exists
  kUnbounded,   ///< objective unbounded below
  kLimit,       ///< iteration/node limit hit with no incumbent
};

/// Solver output: status, objective, and (when found) a point.
struct Solution {
  SolveStatus status = SolveStatus::kLimit;  ///< How the solve ended.
  double objective = kInf;                   ///< Objective at `values`.
  std::vector<double> values;  ///< per-variable values; empty if no point

  /// True when `values` holds a feasible point.
  [[nodiscard]] bool has_point() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kFeasible;
  }
};

/// A minimization LP/ILP under construction (see the file comment).
class Model {
 public:
  /// Adds a variable; returns its id. Bounds must satisfy lb <= ub.
  VarId add_var(double lb, double ub, double obj, bool integral = false,
                std::string name = {});

  /// Convenience: binary variable in {0, 1}.
  VarId add_binary(double obj, std::string name = {}) {
    return add_var(0.0, 1.0, obj, true, std::move(name));
  }

  /// Convenience: integer variable in [lb, ub].
  VarId add_integer(double lb, double ub, double obj, std::string name = {}) {
    return add_var(lb, ub, obj, true, std::move(name));
  }

  /// Adds the row `expr sense rhs`.
  void add_constraint(LinExpr expr, Sense sense, double rhs,
                      std::string name = {});

  /// Number of variables added so far.
  [[nodiscard]] int num_vars() const {
    return static_cast<int>(vars_.size());
  }
  /// Number of constraints added so far.
  [[nodiscard]] int num_constraints() const {
    return static_cast<int>(cons_.size());
  }
  /// All variable definitions, indexed by VarId.
  [[nodiscard]] const std::vector<VariableDef>& vars() const { return vars_; }
  /// All constraint rows, in insertion order.
  [[nodiscard]] const std::vector<ConstraintDef>& constraints() const {
    return cons_;
  }

  /// Evaluates the objective at a point (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// True if `x` satisfies all constraints, bounds and integrality within
  /// tolerance `tol`. Used by tests and by B&B incumbent checks.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x,
                                 double tol = 1e-6) const;

  /// Tightens a variable's bounds in place (used by branch-and-bound).
  void set_bounds(VarId v, double lb, double ub);

  /// Sets the branch priority of a variable (default 0).
  void set_branch_priority(VarId v, int priority);

 private:
  std::vector<VariableDef> vars_;
  std::vector<ConstraintDef> cons_;
};

}  // namespace netrs::ilp
