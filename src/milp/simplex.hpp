// Bounded-variable two-phase primal simplex (dense tableau).
//
// Scope: the LP sizes this project needs are small-to-medium (the continuous
// completion problems of the branch & bound are tiny; LP-relaxation bounding
// is only enabled for models below a size threshold), so a dense full-tableau
// method with Dantzig pricing, a Bland anti-cycling fallback and explicit
// artificial variables is the robust, simple choice. Rows are converted to
// equalities with a bounded slack.
//
// Start basis: every structural column starts nonbasic at its finite bound
// nearest zero (free columns at zero). A row whose residual b_i - a_i x at
// that point fits its slack's bounds starts with the slack basic; only the
// rows the start point violates get an artificial, and Phase 1 minimizes the
// sum of those. An LP whose start point satisfies every row skips Phase 1
// without a pivot. Pricing never enters a fixed column (lb == ub).
#pragma once

#include <functional>
#include <vector>

#include "milp/expr.hpp"
#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// A linear program in computational form: min obj'x subject to the rows and
/// the variable bounds (use +-kInfinity for free directions).
struct LpProblem {
  std::vector<double> obj;
  std::vector<double> lb;
  std::vector<double> ub;

  struct Row {
    std::vector<LinTerm> terms;
    Sense sense = Sense::kLessEqual;
    double rhs = 0.0;
  };
  std::vector<Row> rows;

  [[nodiscard]] int num_vars() const { return static_cast<int>(obj.size()); }
  [[nodiscard]] int num_rows() const { return static_cast<int>(rows.size()); }

  /// Appends a variable, returning its index.
  int add_var(double objective, double lower, double upper);
  /// Appends a row.
  void add_row(std::vector<LinTerm> terms, Sense sense, double rhs);
};

struct LpParams {
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  /// Switch to Bland's rule after this many iterations without improvement.
  int stall_threshold = 500;

  /// Polled roughly every 128 iterations; returning true aborts the solve
  /// with kIterationLimit. Lets a deadline or cancellation unwind from
  /// inside a long LP run instead of waiting for the next node boundary.
  std::function<bool()> should_abort;

  /// On an infeasible verdict, extract a Farkas dual ray from the phase-1
  /// tableau into LpResult::certificate (best-effort: extraction can fail,
  /// leaving Kind::kNone). Costs one reduced-cost refresh per infeasible
  /// solve and nothing on any other path.
  bool want_certificate = false;
};

/// Solves the LP with the two-phase bounded-variable simplex.
LpResult solve_lp(const LpProblem& problem, const LpParams& params = {});

/// Builds the LP relaxation of a MILP model (integrality dropped). A
/// maximization objective is negated so the LP is always a minimization;
/// `flip_objective` reports whether the sign was flipped.
LpProblem relaxation_of(const Model& model, bool* flip_objective = nullptr);

}  // namespace sparcs::milp
