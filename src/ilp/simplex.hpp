// Dense two-phase primal simplex with bounded variables.
//
// Handles `min c'x  s.t.  Ax {<=,=,>=} b,  l <= x <= u` directly: variable
// bounds are enforced in the ratio test (including bound flips) rather than
// as extra rows, which keeps the tableau small enough for the
// branch-and-bound driver to re-solve it hundreds of times.
//
// Pivoting uses Dantzig's rule with an automatic switch to Bland's rule
// (guaranteed termination) after a stall, so degenerate placement instances
// cannot cycle.
#pragma once

#include "ilp/model.hpp"

namespace netrs::ilp {

/// Solves the LP relaxation of `m` (integrality ignored). Returns kLimit
/// when a phase exceeds its pivot budget.
Solution solve_lp(const Model& m);

}  // namespace netrs::ilp
