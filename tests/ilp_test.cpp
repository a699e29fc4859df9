#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "sim/rng.hpp"

namespace netrs::ilp {
namespace {

TEST(SimplexTest, UnconstrainedSitsAtBestBounds) {
  Model m;
  const VarId x = m.add_var(1.0, 5.0, 2.0);   // min 2x -> x = 1
  const VarId y = m.add_var(-3.0, 4.0, -1.0); // min -y -> y = 4
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.values[static_cast<std::size_t>(x)], 1.0);
  EXPECT_DOUBLE_EQ(s.values[static_cast<std::size_t>(y)], 4.0);
  EXPECT_DOUBLE_EQ(s.objective, 2.0 - 4.0);
}

TEST(SimplexTest, ClassicTwoVariableLp) {
  // max 3x + 2y s.t. x + y <= 4, x <= 2  ->  x=2, y=2, obj 10.
  Model m;
  const VarId x = m.add_var(0.0, kInf, -3.0);
  const VarId y = m.add_var(0.0, kInf, -2.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLe, 4.0);
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 2.0);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -10.0, 1e-9);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 2.0, 1e-9);
}

TEST(SimplexTest, EqualityAndGeConstraints) {
  // min x + y s.t. x + y >= 2, x - y = 0 -> x = y = 1.
  Model m;
  const VarId x = m.add_var(0.0, kInf, 1.0);
  const VarId y = m.add_var(0.0, kInf, 1.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kGe, 2.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, -1), Sense::kEq, 0.0);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(SimplexTest, BoundedVariablesViaBoundFlips) {
  // min -x - y s.t. x + 2y <= 3, x,y in [0,1] -> both at upper bound.
  Model m;
  const VarId x = m.add_var(0.0, 1.0, -1.0);
  const VarId y = m.add_var(0.0, 1.0, -1.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, 2), Sense::kLe, 3.0);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);
}

TEST(SimplexTest, DetectsInfeasible) {
  Model m;
  const VarId x = m.add_var(0.0, 1.0, 1.0);
  m.add_constraint(LinExpr().add(x, 1), Sense::kGe, 2.0);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleSystem) {
  Model m;
  const VarId x = m.add_var(0.0, kInf, 0.0);
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 1.0);
  m.add_constraint(LinExpr().add(x, 1), Sense::kGe, 3.0);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Model m;
  const VarId x = m.add_var(0.0, kInf, -1.0);
  const VarId y = m.add_var(0.0, kInf, 0.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, -1), Sense::kLe, 1.0);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, NegativeRhsRows) {
  // min x s.t. -x <= -3 (i.e. x >= 3).
  Model m;
  const VarId x = m.add_var(0.0, kInf, 1.0);
  m.add_constraint(LinExpr().add(x, -1), Sense::kLe, -3.0);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 3.0, 1e-9);
}

TEST(SimplexTest, RedundantConstraintsHandled) {
  Model m;
  const VarId x = m.add_var(0.0, 10.0, -1.0);
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 5.0);
  m.add_constraint(LinExpr().add(x, 2), Sense::kLe, 10.0);  // same thing
  m.add_constraint(LinExpr().add(x, 1), Sense::kEq, 5.0);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 5.0, 1e-9);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // Many redundant constraints through the same vertex (degeneracy).
  Model m;
  const VarId x = m.add_var(0.0, kInf, -1.0);
  const VarId y = m.add_var(0.0, kInf, -1.0);
  for (int i = 1; i <= 10; ++i) {
    m.add_constraint(LinExpr().add(x, static_cast<double>(i))
                         .add(y, static_cast<double>(i)),
                     Sense::kLe, static_cast<double>(2 * i));
  }
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);
}

// Property: on random feasible LPs (constraints built around a known
// interior point), the solver never reports infeasible, and its optimum is
// at least as good as the known point.
TEST(SimplexTest, RandomFeasibleLpsSolveAtLeastAsWellAsWitness) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int nv = 2 + static_cast<int>(rng.uniform(6));
    const int nc = 1 + static_cast<int>(rng.uniform(8));
    Model m;
    std::vector<double> witness;
    for (int j = 0; j < nv; ++j) {
      witness.push_back(rng.next_double() * 5.0);
      m.add_var(0.0, 10.0, rng.next_double() * 4.0 - 2.0);
    }
    for (int i = 0; i < nc; ++i) {
      LinExpr e;
      double lhs = 0.0;
      for (int j = 0; j < nv; ++j) {
        const double c = rng.next_double() * 4.0 - 2.0;
        e.add(j, c);
        lhs += c * witness[static_cast<std::size_t>(j)];
      }
      m.add_constraint(std::move(e), Sense::kLe, lhs + rng.next_double());
    }
    const Solution s = solve_lp(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;
    EXPECT_LE(s.objective, m.objective_value(witness) + 1e-6);
    EXPECT_TRUE(m.is_feasible(s.values, 1e-6));
  }
}

// --- Branch and bound -------------------------------------------------------

TEST(BnbTest, KnapsackOptimal) {
  // max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, binary -> a=b=1 (weight 5).
  Model m;
  const VarId a = m.add_binary(-5.0);
  const VarId b = m.add_binary(-4.0);
  const VarId c = m.add_binary(-3.0);
  m.add_constraint(LinExpr().add(a, 2).add(b, 3).add(c, 1), Sense::kLe, 5.0);
  const Solution r = solve_ilp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -9.0, 1e-9);
}

TEST(BnbTest, SetCover) {
  Model m;
  const VarId s1 = m.add_binary(1.0);
  const VarId s2 = m.add_binary(1.0);
  const VarId s3 = m.add_binary(1.0);
  m.add_constraint(LinExpr().add(s1, 1).add(s3, 1), Sense::kGe, 1.0);
  m.add_constraint(LinExpr().add(s1, 1).add(s2, 1), Sense::kGe, 1.0);
  m.add_constraint(LinExpr().add(s2, 1).add(s3, 1), Sense::kGe, 1.0);
  const Solution r = solve_ilp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(BnbTest, GeneralIntegerRoundsUp) {
  Model m;
  const VarId y = m.add_integer(0.0, 10.0, 1.0);
  m.add_constraint(LinExpr().add(y, 1), Sense::kGe, 2.3);
  const Solution r = solve_ilp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(BnbTest, InfeasibleIntegerProgram) {
  Model m;
  const VarId a = m.add_binary(1.0);
  const VarId b = m.add_binary(1.0);
  // a + b = 1 and a + b = 2 cannot both hold.
  m.add_constraint(LinExpr().add(a, 1).add(b, 1), Sense::kEq, 1.0);
  m.add_constraint(LinExpr().add(a, 1).add(b, 1), Sense::kEq, 2.0);
  EXPECT_EQ(solve_ilp(m).status, SolveStatus::kInfeasible);
}

TEST(BnbTest, FractionalLpNeedsBranching) {
  // LP relaxation gives x = y = 0.5 with objective 1, but |x - y| <= 0.5
  // kills both single-variable integer points, so the integer optimum is
  // (1, 1) with objective 2 — reachable only by branching.
  Model m;
  const VarId x = m.add_binary(1.0);
  const VarId y = m.add_binary(1.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kGe, 1.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, -1), Sense::kLe, 0.5);
  m.add_constraint(LinExpr().add(y, 1).add(x, -1), Sense::kLe, 0.5);
  const Solution r = solve_ilp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(BnbTest, WarmStartAcceptedWhenFeasible) {
  Model m;
  const VarId a = m.add_binary(1.0);
  const VarId b = m.add_binary(1.0);
  m.add_constraint(LinExpr().add(a, 1).add(b, 1), Sense::kGe, 1.0);
  BnbOptions opts;
  opts.initial_incumbent = {1.0, 1.0};  // feasible but suboptimal
  const Solution r = solve_ilp(m, opts);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);  // improved past warm start
}

TEST(BnbTest, NodeLimitReturnsIncumbentAsFeasible) {
  sim::Rng rng(123);
  Model m;
  // A 20-item knapsack with a tight budget; 1 node is not enough to prove
  // optimality, but the warm start provides an incumbent.
  LinExpr weight;
  std::vector<double> warm;
  for (int i = 0; i < 20; ++i) {
    const VarId v = m.add_binary(-(1.0 + rng.next_double()));
    weight.add(v, 1.0 + 3.0 * rng.next_double());
    warm.push_back(0.0);
  }
  m.add_constraint(std::move(weight), Sense::kLe, 10.0);
  BnbOptions opts;
  opts.max_nodes = 1;
  opts.initial_incumbent = warm;  // all-zero is feasible
  const Solution r = solve_ilp(m, opts);
  EXPECT_EQ(r.status, SolveStatus::kFeasible);
  EXPECT_TRUE(r.has_point());
}

// Property test: random binary programs, exact solution vs brute force.
TEST(BnbTest, MatchesBruteForceOnRandomBinaryPrograms) {
  sim::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const int nv = 2 + static_cast<int>(rng.uniform(7));  // up to 8 vars
    const int nc = 1 + static_cast<int>(rng.uniform(4));
    Model m;
    std::vector<double> obj;
    for (int j = 0; j < nv; ++j) {
      obj.push_back(std::floor(rng.next_double() * 11.0) - 5.0);
      m.add_var(0.0, 1.0, obj.back(), /*integral=*/true);
    }
    struct Row {
      std::vector<double> coef;
      double rhs;
      Sense sense;
    };
    std::vector<Row> rows;
    for (int i = 0; i < nc; ++i) {
      Row row;
      LinExpr e;
      for (int j = 0; j < nv; ++j) {
        row.coef.push_back(std::floor(rng.next_double() * 7.0) - 3.0);
        e.add(j, row.coef.back());
      }
      row.rhs = std::floor(rng.next_double() * 9.0) - 2.0;
      row.sense = rng.bernoulli(0.5) ? Sense::kLe : Sense::kGe;
      rows.push_back(row);
      m.add_constraint(std::move(e), row.sense, row.rhs);
    }

    // Brute force over all 2^nv assignments.
    double best = kInf;
    for (int mask = 0; mask < (1 << nv); ++mask) {
      double val = 0.0;
      bool ok = true;
      for (const Row& row : rows) {
        double lhs = 0.0;
        for (int j = 0; j < nv; ++j) {
          if (mask & (1 << j)) lhs += row.coef[static_cast<std::size_t>(j)];
        }
        if (row.sense == Sense::kLe ? lhs > row.rhs + 1e-9
                                    : lhs < row.rhs - 1e-9) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (int j = 0; j < nv; ++j) {
        if (mask & (1 << j)) val += obj[static_cast<std::size_t>(j)];
      }
      best = std::min(best, val);
    }

    const Solution r = solve_ilp(m);
    if (best == kInf) {
      EXPECT_EQ(r.status, SolveStatus::kInfeasible)
          << "trial " << trial;
    } else {
      ASSERT_EQ(r.status, SolveStatus::kOptimal)
          << "trial " << trial;
      EXPECT_NEAR(r.objective, best, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.is_feasible(r.values, 1e-6));
    }
  }
}

TEST(ModelTest, FeasibilityChecker) {
  Model m;
  const VarId x = m.add_binary(1.0);
  const VarId y = m.add_var(0.0, 2.0, 0.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLe, 2.0);
  EXPECT_TRUE(m.is_feasible({1.0, 1.0}));
  EXPECT_FALSE(m.is_feasible({1.0, 1.5}));   // violates the row
  EXPECT_FALSE(m.is_feasible({0.5, 0.5}));   // x not integral
  EXPECT_FALSE(m.is_feasible({0.0, 3.0}));   // y above bound
  EXPECT_FALSE(m.is_feasible({1.0}));        // wrong arity
  (void)x;
  (void)y;
}

}  // namespace
}  // namespace netrs::ilp
