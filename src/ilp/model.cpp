#include "ilp/model.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace netrs::ilp {

VarId Model::add_var(double lb, double ub, double obj, bool integral,
                     std::string name) {
  assert(lb <= ub);
  vars_.push_back(VariableDef{lb, ub, obj, integral, 0, std::move(name)});
  return static_cast<VarId>(vars_.size()) - 1;
}

void Model::add_constraint(LinExpr expr, Sense sense, double rhs,
                           std::string name) {
#ifndef NDEBUG
  for (const Term& t : expr.terms) {
    assert(t.var >= 0 && t.var < num_vars());
  }
#endif
  cons_.push_back(ConstraintDef{std::move(expr), sense, rhs, std::move(name)});
}

double Model::objective_value(const std::vector<double>& x) const {
  assert(x.size() == vars_.size());
  double v = 0.0;
  for (std::size_t i = 0; i < vars_.size(); ++i) v += vars_[i].obj * x[i];
  return v;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != vars_.size()) return false;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const VariableDef& v = vars_[i];
    if (x[i] < v.lb - tol || x[i] > v.ub + tol) return false;
    if (v.integral && std::abs(x[i] - std::round(x[i])) > tol) return false;
  }
  for (const ConstraintDef& c : cons_) {
    double lhs = 0.0;
    for (const Term& t : c.expr.terms) lhs += t.coef * x[t.var];
    switch (c.sense) {
      case Sense::kLe:
        if (lhs > c.rhs + tol) return false;
        break;
      case Sense::kGe:
        if (lhs < c.rhs - tol) return false;
        break;
      case Sense::kEq:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

void Model::set_bounds(VarId v, double lb, double ub) {
  assert(v >= 0 && v < num_vars());
  assert(lb <= ub);
  vars_[static_cast<std::size_t>(v)].lb = lb;
  vars_[static_cast<std::size_t>(v)].ub = ub;
}

void Model::set_branch_priority(VarId v, int priority) {
  assert(v >= 0 && v < num_vars());
  vars_[static_cast<std::size_t>(v)].branch_priority = priority;
}

}  // namespace netrs::ilp
