#include "ilp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace netrs::ilp {
namespace {

/// Pivot budget of one phase before giving up (kLimit).
constexpr int kMaxIterations = 200000;
/// After this many consecutive non-improving pivots, switch to Bland.
constexpr int kStallBeforeBland = 2000;
constexpr double kEps = 1e-9;  ///< Numerical zero tolerance.

enum class VarState : std::uint8_t { kAtLower, kAtUpper, kBasic };

class Tableau {
 public:
  explicit Tableau(const Model& model) : model_(model) { build(); }

  Solution solve() {
    if (!phase(/*phase1=*/true)) return finish(SolveStatus::kLimit);
    if (artificial_infeasibility() > 1e-7) {
      return finish(SolveStatus::kInfeasible);
    }
    pin_basic_artificials();
    load_phase2_costs();
    if (!phase(/*phase1=*/false)) return finish(SolveStatus::kLimit);
    if (unbounded_) return finish(SolveStatus::kUnbounded);
    return finish(SolveStatus::kOptimal);
  }

 private:
  // Column layout: [structural][slack][artificial].
  void build() {
    const auto& vars = model_.vars();
    const auto& cons = model_.constraints();
    m_ = static_cast<int>(cons.size());
    n_struct_ = static_cast<int>(vars.size());

    // Count slacks: one per inequality row.
    int slacks = 0;
    for (const auto& c : cons) {
      if (c.sense != Sense::kEq) ++slacks;
    }
    n_ = n_struct_ + slacks;
    n_total_ = n_ + m_;  // one artificial per row

    lb_.assign(n_total_, 0.0);
    ub_.assign(n_total_, kInf);
    cost_.assign(n_total_, 0.0);
    for (int j = 0; j < n_struct_; ++j) {
      lb_[j] = vars[static_cast<std::size_t>(j)].lb;
      ub_[j] = vars[static_cast<std::size_t>(j)].ub;
    }

    // First pass: fill structural+slack part of A, and decide per row
    // whether its slack can serve as the initial basic variable — true for
    // "<=" rows with non-negative start residual and ">=" rows with
    // non-positive start residual. Only the remaining rows get artificial
    // columns, which keeps the tableau narrow (placement models are mostly
    // capacity rows whose slack basis is free).
    std::vector<double> a_ns(static_cast<std::size_t>(m_) * n_, 0.0);
    auto at_ns = [&](int i, int j) -> double& {
      return a_ns[static_cast<std::size_t>(i) * n_ + j];
    };
    b_.assign(static_cast<std::size_t>(m_), 0.0);
    std::vector<int> slack_col(static_cast<std::size_t>(m_), -1);
    {
      int slack = n_struct_;
      for (int i = 0; i < m_; ++i) {
        const auto& c = cons[static_cast<std::size_t>(i)];
        for (const Term& t : c.expr.terms) at_ns(i, t.var) += t.coef;
        b_[static_cast<std::size_t>(i)] = c.rhs;
        if (c.sense == Sense::kLe) {
          at_ns(i, slack) = 1.0;
          slack_col[static_cast<std::size_t>(i)] = slack++;
        } else if (c.sense == Sense::kGe) {
          at_ns(i, slack) = -1.0;
          slack_col[static_cast<std::size_t>(i)] = slack++;
        }
      }
      assert(slack == n_);
    }

    // Nonbasic start for structural variables: a finite bound.
    state_.assign(static_cast<std::size_t>(n_), VarState::kAtLower);
    for (int j = 0; j < n_; ++j) {
      if (!std::isfinite(lb_[j])) {
        state_[static_cast<std::size_t>(j)] =
            std::isfinite(ub_[j]) ? VarState::kAtUpper : VarState::kAtLower;
      }
    }

    // Start residual with all structural vars at their bound and slacks 0.
    std::vector<double> resid = b_;
    for (int j = 0; j < n_struct_; ++j) {
      const double xj = nonbasic_value(j);
      if (xj == 0.0) continue;
      for (int i = 0; i < m_; ++i) {
        resid[static_cast<std::size_t>(i)] -= at_ns(i, j) * xj;
      }
    }

    // Decide basis per row.
    std::vector<bool> needs_artificial(static_cast<std::size_t>(m_), true);
    int n_art = 0;
    for (int i = 0; i < m_; ++i) {
      const auto& c = cons[static_cast<std::size_t>(i)];
      const double r = resid[static_cast<std::size_t>(i)];
      if (c.sense == Sense::kLe && r >= 0.0) {
        needs_artificial[static_cast<std::size_t>(i)] = false;
      } else if (c.sense == Sense::kGe && r <= 0.0) {
        needs_artificial[static_cast<std::size_t>(i)] = false;
      } else {
        ++n_art;
      }
    }
    n_total_ = n_ + n_art;

    // Assemble the full tableau.
    a_.assign(static_cast<std::size_t>(m_) * n_total_, 0.0);
    for (int i = 0; i < m_; ++i) {
      for (int j = 0; j < n_; ++j) at(i, j) = at_ns(i, j);
    }
    lb_.resize(static_cast<std::size_t>(n_total_), 0.0);
    ub_.resize(static_cast<std::size_t>(n_total_), kInf);
    cost_.assign(static_cast<std::size_t>(n_total_), 0.0);
    state_.resize(static_cast<std::size_t>(n_total_), VarState::kAtLower);

    basis_.assign(static_cast<std::size_t>(m_), 0);
    xb_.assign(static_cast<std::size_t>(m_), 0.0);
    int art = n_;
    for (int i = 0; i < m_; ++i) {
      const double r = resid[static_cast<std::size_t>(i)];
      if (!needs_artificial[static_cast<std::size_t>(i)]) {
        // Slack basis: basic value is the slack magnitude (|r| because a
        // ">=" surplus with coefficient -1 takes value -r when r <= 0).
        const int sc = slack_col[static_cast<std::size_t>(i)];
        assert(sc >= 0);
        const bool ge = cons[static_cast<std::size_t>(i)].sense == Sense::kGe;
        if (ge) {
          // Rescale the row so the basic column has +1 (B = I).
          for (int j = 0; j < n_total_; ++j) at(i, j) = -at(i, j);
          b_[static_cast<std::size_t>(i)] = -b_[static_cast<std::size_t>(i)];
        }
        basis_[static_cast<std::size_t>(i)] = sc;
        state_[static_cast<std::size_t>(sc)] = VarState::kBasic;
        xb_[static_cast<std::size_t>(i)] = std::abs(r);
        continue;
      }
      const double sign = r < 0.0 ? -1.0 : 1.0;
      at(i, art) = sign;
      if (sign < 0.0) {
        for (int j = 0; j < n_total_; ++j) at(i, j) = -at(i, j);
        b_[static_cast<std::size_t>(i)] = -b_[static_cast<std::size_t>(i)];
      }
      basis_[static_cast<std::size_t>(i)] = art;
      state_[static_cast<std::size_t>(art)] = VarState::kBasic;
      xb_[static_cast<std::size_t>(i)] = std::abs(r);
      ++art;
    }
    assert(art == n_total_);

    // Phase-1 reduced costs: c1 = e on artificials => d_j = -sum over
    // artificial rows of T_ij; 0 on basic columns.
    d_.assign(static_cast<std::size_t>(n_total_), 0.0);
    for (int j = 0; j < n_; ++j) {
      if (state_[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
      double s = 0.0;
      for (int i = 0; i < m_; ++i) {
        if (basis_[static_cast<std::size_t>(i)] >= n_) s += at(i, j);
      }
      d_[static_cast<std::size_t>(j)] = -s;
    }
  }

  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i) * n_total_ + j];
  }
  [[nodiscard]] double at(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * n_total_ + j];
  }

  [[nodiscard]] double nonbasic_value(int j) const {
    const auto s = state_[static_cast<std::size_t>(j)];
    assert(s != VarState::kBasic);
    if (s == VarState::kAtLower) {
      return std::isfinite(lb_[static_cast<std::size_t>(j)])
                 ? lb_[static_cast<std::size_t>(j)]
                 : 0.0;
    }
    return ub_[static_cast<std::size_t>(j)];
  }

  [[nodiscard]] double artificial_infeasibility() const {
    double s = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] >= n_) {
        s += std::abs(xb_[static_cast<std::size_t>(i)]);
      }
    }
    return s;
  }

  // Removes artificials from the basis where possible; pins the rest (their
  // rows are redundant) to [0, 0] so they can never grow.
  void pin_basic_artificials() {
    for (int i = 0; i < m_; ++i) {
      const int bi = basis_[static_cast<std::size_t>(i)];
      if (bi < n_) continue;
      int enter = -1;
      for (int j = 0; j < n_; ++j) {
        if (state_[static_cast<std::size_t>(j)] != VarState::kBasic &&
            std::abs(at(i, j)) > 1e-7) {
          enter = j;
          break;
        }
      }
      if (enter >= 0) {
        // Degenerate swap: the artificial leaves at value zero and the
        // entering variable stays at its bound.
        state_[static_cast<std::size_t>(bi)] = VarState::kAtLower;
        pivot(i, enter, nonbasic_value(enter));
      } else {
        lb_[static_cast<std::size_t>(bi)] = 0.0;
        ub_[static_cast<std::size_t>(bi)] = 0.0;
      }
    }
    // All artificials are now fixed at zero if nonbasic.
    for (int j = n_; j < n_total_; ++j) {
      lb_[static_cast<std::size_t>(j)] = 0.0;
      ub_[static_cast<std::size_t>(j)] = 0.0;
    }
  }

  void load_phase2_costs() {
    for (int j = 0; j < n_struct_; ++j) {
      cost_[static_cast<std::size_t>(j)] =
          model_.vars()[static_cast<std::size_t>(j)].obj;
    }
    for (int j = n_struct_; j < n_total_; ++j) {
      cost_[static_cast<std::size_t>(j)] = 0.0;
    }
    // d = c - c_B' * T
    for (int j = 0; j < n_total_; ++j) {
      double s = cost_[static_cast<std::size_t>(j)];
      for (int i = 0; i < m_; ++i) {
        const double cb = cost_[static_cast<std::size_t>(
            basis_[static_cast<std::size_t>(i)])];
        if (cb != 0.0) s -= cb * at(i, j);
      }
      d_[static_cast<std::size_t>(j)] = s;
    }
  }

  // One simplex phase. Returns false on iteration limit.
  bool phase(bool phase1) {
    int stall = 0;
    double last_obj = current_objective(phase1);
    for (int iter = 0; iter < kMaxIterations; ++iter) {
      const bool bland = stall >= kStallBeforeBland;
      const int enter = pick_entering(bland);
      if (enter < 0) return true;  // optimal for this phase
      if (!step(enter)) {
        if (phase1) {
          // Phase 1 is bounded below by zero; an "unbounded" signal here
          // means numerics went sideways. Treat as stalled optimum.
          return true;
        }
        unbounded_ = true;
        return true;
      }
      const double obj = current_objective(phase1);
      if (obj < last_obj - kEps) {
        stall = 0;
        last_obj = obj;
      } else {
        ++stall;
      }
    }
    return false;
  }

  [[nodiscard]] double current_objective(bool phase1) const {
    double s = 0.0;
    if (phase1) {
      return artificial_infeasibility();
    }
    for (int i = 0; i < m_; ++i) {
      s += cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] *
           xb_[static_cast<std::size_t>(i)];
    }
    for (int j = 0; j < n_total_; ++j) {
      if (state_[static_cast<std::size_t>(j)] != VarState::kBasic &&
          cost_[static_cast<std::size_t>(j)] != 0.0) {
        s += cost_[static_cast<std::size_t>(j)] * nonbasic_value(j);
      }
    }
    return s;
  }

  [[nodiscard]] int pick_entering(bool bland) const {
    int best = -1;
    double best_score = kEps;
    for (int j = 0; j < n_total_; ++j) {
      const auto st = state_[static_cast<std::size_t>(j)];
      if (st == VarState::kBasic) continue;
      if (lb_[static_cast<std::size_t>(j)] ==
          ub_[static_cast<std::size_t>(j)]) {
        continue;  // fixed (pinned artificial or fixed var)
      }
      const double dj = d_[static_cast<std::size_t>(j)];
      double score = 0.0;
      if (st == VarState::kAtLower && dj < -kEps) score = -dj;
      if (st == VarState::kAtUpper && dj > kEps) score = dj;
      if (score <= 0.0) continue;
      if (bland) return j;  // lowest eligible index
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    return best;
  }

  // Performs one pivot / bound flip with entering column `q`.
  // Returns false when the step is unbounded.
  bool step(int q) {
    const bool from_lower =
        state_[static_cast<std::size_t>(q)] == VarState::kAtLower;
    const double sigma = from_lower ? 1.0 : -1.0;

    double t_best = kInf;
    // Bound-flip distance of the entering variable itself.
    if (std::isfinite(lb_[static_cast<std::size_t>(q)]) &&
        std::isfinite(ub_[static_cast<std::size_t>(q)])) {
      t_best =
          ub_[static_cast<std::size_t>(q)] - lb_[static_cast<std::size_t>(q)];
    }
    int leave_row = -1;
    bool leave_at_lower = true;
    double leave_pivot = 0.0;

    for (int i = 0; i < m_; ++i) {
      const double delta = sigma * at(i, q);  // xB_i changes by -delta * t
      const int bi = basis_[static_cast<std::size_t>(i)];
      const double xbi = xb_[static_cast<std::size_t>(i)];
      if (delta > kEps) {
        const double lo = lb_[static_cast<std::size_t>(bi)];
        if (!std::isfinite(lo)) continue;
        const double limit = (xbi - lo) / delta;
        if (limit < t_best - kEps ||
            (limit < t_best + kEps &&
             (leave_row < 0 || std::abs(at(i, q)) > std::abs(leave_pivot)))) {
          t_best = std::max(limit, 0.0);
          leave_row = i;
          leave_at_lower = true;
          leave_pivot = at(i, q);
        }
      } else if (delta < -kEps) {
        const double hi = ub_[static_cast<std::size_t>(bi)];
        if (!std::isfinite(hi)) continue;
        const double limit = (hi - xbi) / (-delta);
        if (limit < t_best - kEps ||
            (limit < t_best + kEps &&
             (leave_row < 0 || std::abs(at(i, q)) > std::abs(leave_pivot)))) {
          t_best = std::max(limit, 0.0);
          leave_row = i;
          leave_at_lower = false;
          leave_pivot = at(i, q);
        }
      }
    }

    if (!std::isfinite(t_best)) return false;  // unbounded ray

    // Move basic variables along the ray.
    for (int i = 0; i < m_; ++i) {
      xb_[static_cast<std::size_t>(i)] -= sigma * at(i, q) * t_best;
    }

    if (leave_row < 0) {
      // Pure bound flip of the entering variable.
      state_[static_cast<std::size_t>(q)] =
          from_lower ? VarState::kAtUpper : VarState::kAtLower;
      return true;
    }

    const double enter_value = nonbasic_value(q) + sigma * t_best;
    const int leaving = basis_[static_cast<std::size_t>(leave_row)];
    state_[static_cast<std::size_t>(leaving)] =
        leave_at_lower ? VarState::kAtLower : VarState::kAtUpper;
    pivot(leave_row, q, enter_value);
    return true;
  }

  // Gaussian pivot bringing column q into the basis at row r; the entering
  // variable's current value is `enter_value`.
  void pivot(int r, int q, double enter_value) {
    const double piv = at(r, q);
    assert(std::abs(piv) > 1e-12);
    const double inv = 1.0 / piv;
    for (int j = 0; j < n_total_; ++j) at(r, j) *= inv;
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double f = at(i, q);
      if (f == 0.0) continue;
      for (int j = 0; j < n_total_; ++j) at(i, j) -= f * at(r, j);
      at(i, q) = 0.0;
    }
    const double dq = d_[static_cast<std::size_t>(q)];
    if (dq != 0.0) {
      for (int j = 0; j < n_total_; ++j) {
        d_[static_cast<std::size_t>(j)] -= dq * at(r, j);
      }
      d_[static_cast<std::size_t>(q)] = 0.0;
    }
    basis_[static_cast<std::size_t>(r)] = q;
    state_[static_cast<std::size_t>(q)] = VarState::kBasic;
    xb_[static_cast<std::size_t>(r)] = enter_value;
  }

  Solution finish(SolveStatus status) {
    Solution sol;
    sol.status = status;
    if (status != SolveStatus::kOptimal) return sol;
    sol.values.assign(static_cast<std::size_t>(n_struct_), 0.0);
    for (int j = 0; j < n_struct_; ++j) {
      if (state_[static_cast<std::size_t>(j)] != VarState::kBasic) {
        sol.values[static_cast<std::size_t>(j)] = nonbasic_value(j);
      }
    }
    for (int i = 0; i < m_; ++i) {
      const int bi = basis_[static_cast<std::size_t>(i)];
      if (bi < n_struct_) {
        sol.values[static_cast<std::size_t>(bi)] =
            xb_[static_cast<std::size_t>(i)];
      }
    }
    sol.objective = model_.objective_value(sol.values);
    return sol;
  }

  const Model& model_;
  int m_ = 0;        // rows
  int n_struct_ = 0; // structural variables
  int n_ = 0;        // structural + slack
  int n_total_ = 0;  // + artificials
  std::vector<double> a_;  // T = B^-1 * A, dense row-major
  std::vector<double> b_;
  std::vector<double> lb_, ub_, cost_, d_, xb_;
  std::vector<int> basis_;
  std::vector<VarState> state_;
  bool unbounded_ = false;
};

}  // namespace

Solution solve_lp(const Model& m) {
  // Trivial no-constraint case: each variable sits at its best bound.
  if (m.num_constraints() == 0) {
    Solution sol;
    sol.values.assign(static_cast<std::size_t>(m.num_vars()), 0.0);
    for (int j = 0; j < m.num_vars(); ++j) {
      const auto& v = m.vars()[static_cast<std::size_t>(j)];
      double x;
      if (v.obj > 0.0) {
        x = v.lb;
      } else if (v.obj < 0.0) {
        x = v.ub;
      } else {
        x = std::isfinite(v.lb) ? v.lb : 0.0;
      }
      if (!std::isfinite(x)) {
        sol.status = SolveStatus::kUnbounded;
        sol.values.clear();
        return sol;
      }
      sol.values[static_cast<std::size_t>(j)] = x;
    }
    sol.status = SolveStatus::kOptimal;
    sol.objective = m.objective_value(sol.values);
    return sol;
  }
  Tableau t(m);
  return t.solve();
}

}  // namespace netrs::ilp
