#include "milp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/logging.hpp"
#include "support/span.hpp"

namespace sparcs::milp {

int LpProblem::add_var(double objective, double lower, double upper) {
  obj.push_back(objective);
  lb.push_back(lower);
  ub.push_back(upper);
  return num_vars() - 1;
}

void LpProblem::add_row(std::vector<LinTerm> terms, Sense sense, double rhs) {
  rows.push_back(Row{std::move(terms), sense, rhs});
}

namespace {

constexpr int kMaxIterations = 200000;
constexpr double kPivotTol = 1e-9;
/// Hard cap on tableau entries (rows * columns) to avoid runaway memory;
/// exceeding it throws InvalidArgumentError.
constexpr std::int64_t kMaxTableauEntries = 60'000'000;

/// Give up on anti-cycling once Bland's rule has run this many iterations
/// without terminating; the solve returns kNumericalFailure instead of
/// spinning until kMaxIterations.
constexpr int kCycleLimit = 20000;

/// Numerical-failure recovery attempts in solve_lp: each retry restarts
/// with Bland's rule from iteration 0, and retries past the first also
/// perturb the finite variable bounds outward (keeping the original
/// feasible region a subset, so bounding stays conservative).
constexpr int kMaxRecoveries = 2;
/// Relative magnitude of the outward bound perturbation per retry.
constexpr double kPerturbation = 1e-9;

/// True when x meets every row of `problem` to within 5e-4 of the row's
/// largest term |a_j x_j| or |rhs| (at least 1). Roundoff in the updated
/// tableau can leave the basic values off B^-1 b while the reduced costs
/// read optimal; correct optima stay within about 1e-4 (DESIGN §9).
bool rows_hold(const LpProblem& problem, const std::vector<double>& x) {
  for (const LpProblem::Row& row : problem.rows) {
    double activity = 0.0;
    double scale = std::max(1.0, std::abs(row.rhs));
    for (const LinTerm& term : row.terms) {
      const double ax = term.coef * x[static_cast<std::size_t>(term.var)];
      activity += ax;
      scale = std::max(scale, std::abs(ax));
    }
    const double excess = row.sense == Sense::kLessEqual ? activity - row.rhs
                          : row.sense == Sense::kGreaterEqual
                              ? row.rhs - activity
                              : std::abs(activity - row.rhs);
    if (excess > 5e-4 * scale) return false;
  }
  return true;
}

enum class ColStatus : std::uint8_t {
  kBasic,
  kAtLower,
  kAtUpper,
  kFreeZero,  ///< nonbasic free variable pinned at 0
};

/// Dense bounded-variable simplex working state.
class SimplexTableau {
 public:
  SimplexTableau(const LpProblem& problem, const LpParams& params)
      : params_(params),
        problem_(problem),
        m_(problem.num_rows()),
        n_struct_(problem.num_vars()) {
    build(problem);
  }

  LpResult run();

 private:
  LpResult run_phases();
  void build(const LpProblem& problem);
  void compute_reduced_costs();
  /// Recomputes the basic values from the tableau: x_B = B^-1 (D b) minus
  /// the nonbasic columns at their values (see start_rhs_).
  void compute_basic_values();
  /// Refreshes the reduced costs and the basic values, which the iterations
  /// update incrementally and so let drift.
  void refresh();
  /// Returns entering column or -1 when the current phase is optimal.
  int choose_entering(bool bland) const;
  /// Performs one simplex iteration; returns false on unboundedness.
  bool iterate(int entering, bool* made_progress);
  double& tab(int row, int col) { return tab_[static_cast<std::size_t>(row) * ncols_ + col]; }
  double tab(int row, int col) const { return tab_[static_cast<std::size_t>(row) * ncols_ + col]; }
  double nonbasic_value(int col) const;
  void set_phase(int phase);
  double infeasibility_sum() const;
  void extract(LpResult& result) const;
  /// False once roundoff has blown up: any non-finite basic value or reduced
  /// cost. Declaring optimality/infeasibility from such a state would be
  /// wrong (NaN comparisons silently read as "optimal"), so callers bail out
  /// with kNumericalFailure instead.
  bool state_is_finite() const;
  /// Reads the phase-1 dual ray off the slack reduced costs and attaches it
  /// as a Farkas certificate when a float pre-check orients it successfully.
  void attach_farkas(LpResult& result);

  const LpParams& params_;
  const LpProblem& problem_;
  int m_ = 0;         ///< number of rows
  int n_struct_ = 0;  ///< structural variables
  int ncols_ = 0;     ///< structural + slack + artificial columns
  int first_artificial_ = 0;

  std::vector<double> tab_;     ///< m x ncols dense tableau (B^-1 A)
  std::vector<int> pivot_nonzeros_;  ///< iterate() scratch
  std::vector<double> xb_;      ///< value of the basic variable of each row
  std::vector<int> basis_;      ///< column basic in each row
  /// Row i's basic column in build(), a unit column there, and its
  /// right-hand side D_i b_i (D the row flips of build()). Those columns of
  /// the tableau hold B^-1 D, so x_B can be recomputed from them.
  std::vector<int> start_basis_;
  std::vector<double> start_rhs_;
  std::vector<ColStatus> stat_;
  std::vector<double> lb_, ub_;
  std::vector<double> cost_;        ///< current phase objective
  std::vector<double> real_cost_;   ///< phase-2 objective
  std::vector<double> d_;           ///< reduced costs for current phase
  int phase_ = 1;
  int iterations_ = 0;
  int pivots_ = 0;
  int refactorizations_ = 0;
};

void SimplexTableau::build(const LpProblem& problem) {
  first_artificial_ = n_struct_ + m_;
  lb_.assign(static_cast<std::size_t>(first_artificial_), 0.0);
  ub_.assign(static_cast<std::size_t>(first_artificial_), kInfinity);
  real_cost_.assign(static_cast<std::size_t>(first_artificial_), 0.0);
  for (int j = 0; j < n_struct_; ++j) {
    lb_[j] = problem.lb[static_cast<std::size_t>(j)];
    ub_[j] = problem.ub[static_cast<std::size_t>(j)];
    real_cost_[j] = problem.obj[static_cast<std::size_t>(j)];
  }
  // Slack bounds encode the row sense: Ax + s = b.
  for (int i = 0; i < m_; ++i) {
    const int j = n_struct_ + i;
    switch (problem.rows[static_cast<std::size_t>(i)].sense) {
      case Sense::kLessEqual:
        lb_[j] = 0.0;
        ub_[j] = kInfinity;
        break;
      case Sense::kGreaterEqual:
        lb_[j] = -kInfinity;
        ub_[j] = 0.0;
        break;
      case Sense::kEqual:
        lb_[j] = 0.0;
        ub_[j] = 0.0;
        break;
    }
  }

  // Start point: every structural/slack column at its finite bound nearest
  // zero (free columns pinned at zero).
  stat_.assign(static_cast<std::size_t>(first_artificial_),
               ColStatus::kAtLower);
  for (int j = 0; j < first_artificial_; ++j) {
    const double lo = lb_[j], hi = ub_[j];
    if (std::isfinite(lo) && std::isfinite(hi)) {
      stat_[j] = std::abs(lo) <= std::abs(hi) ? ColStatus::kAtLower
                                              : ColStatus::kAtUpper;
    } else if (std::isfinite(lo)) {
      stat_[j] = ColStatus::kAtLower;
    } else if (std::isfinite(hi)) {
      stat_[j] = ColStatus::kAtUpper;
    } else {
      stat_[j] = ColStatus::kFreeZero;
    }
  }

  // Start basis: a row whose residual b_i - a_i x at the start point fits
  // its slack's bounds starts with the slack basic at that residual; only
  // the rows the start point violates get an artificial.
  std::vector<double> residual(static_cast<std::size_t>(m_), 0.0);
  const auto violated = [&](int i) {
    const double r = residual[static_cast<std::size_t>(i)];
    return !(r >= lb_[n_struct_ + i] && r <= ub_[n_struct_ + i]);
  };
  int n_art = 0;
  for (int i = 0; i < m_; ++i) {
    const auto& row = problem.rows[static_cast<std::size_t>(i)];
    double lhs = 0.0;
    for (const LinTerm& term : row.terms) {
      SPARCS_REQUIRE(term.var >= 0 && term.var < n_struct_,
                     "LP row references unknown variable");
      lhs += term.coef * nonbasic_value(term.var);
    }
    residual[static_cast<std::size_t>(i)] = row.rhs - lhs;
    if (violated(i)) ++n_art;
  }
  ncols_ = first_artificial_ + n_art;
  SPARCS_REQUIRE(static_cast<std::int64_t>(m_) * ncols_ <=
                     kMaxTableauEntries,
                 "LP too large for the dense simplex tableau");
  lb_.resize(static_cast<std::size_t>(ncols_), 0.0);
  ub_.resize(static_cast<std::size_t>(ncols_), kInfinity);
  real_cost_.resize(static_cast<std::size_t>(ncols_), 0.0);
  stat_.resize(static_cast<std::size_t>(ncols_), ColStatus::kAtLower);

  // Tableau = [A | I_slack | I_art] over the basic columns: a row whose
  // artificial enters with coefficient -1 (negative residual) is scaled by
  // -1, so every basic column is a unit column (tableau rows are B^-1 A) and
  // every artificial starts non-negative.
  tab_.assign(static_cast<std::size_t>(m_) * ncols_, 0.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  xb_.assign(static_cast<std::size_t>(m_), 0.0);
  start_rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  int next_art = first_artificial_;
  for (int i = 0; i < m_; ++i) {
    for (const LinTerm& term : problem.rows[static_cast<std::size_t>(i)].terms) {
      tab(i, term.var) += term.coef;
    }
    const int slack = n_struct_ + i;
    tab(i, slack) = 1.0;
    const double r = residual[static_cast<std::size_t>(i)];
    const double rhs = problem.rows[static_cast<std::size_t>(i)].rhs;
    start_rhs_[static_cast<std::size_t>(i)] = rhs;
    int basic = slack;
    if (violated(i)) {
      if (r < 0.0) {
        double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
        for (int j = 0; j < first_artificial_; ++j) row[j] = -row[j];
        start_rhs_[static_cast<std::size_t>(i)] = -rhs;
      }
      basic = next_art++;
      tab(i, basic) = 1.0;
    }
    basis_[static_cast<std::size_t>(i)] = basic;
    stat_[static_cast<std::size_t>(basic)] = ColStatus::kBasic;
    xb_[static_cast<std::size_t>(i)] = basic == slack ? r : std::abs(r);
  }
  start_basis_ = basis_;

  set_phase(1);
}

double SimplexTableau::nonbasic_value(int col) const {
  switch (stat_[static_cast<std::size_t>(col)]) {
    case ColStatus::kAtLower:
      return lb_[static_cast<std::size_t>(col)];
    case ColStatus::kAtUpper:
      return ub_[static_cast<std::size_t>(col)];
    case ColStatus::kFreeZero:
      return 0.0;
    case ColStatus::kBasic:
      break;
  }
  for (int i = 0; i < m_; ++i) {
    if (basis_[static_cast<std::size_t>(i)] == col) {
      return xb_[static_cast<std::size_t>(i)];
    }
  }
  return 0.0;
}

void SimplexTableau::set_phase(int phase) {
  phase_ = phase;
  cost_.assign(static_cast<std::size_t>(ncols_), 0.0);
  if (phase == 1) {
    for (int j = first_artificial_; j < ncols_; ++j) cost_[j] = 1.0;
  } else {
    for (int j = 0; j < first_artificial_; ++j) cost_[j] = real_cost_[j];
    // Artificials are pinned at zero for phase 2.
    for (int j = first_artificial_; j < ncols_; ++j) {
      lb_[j] = 0.0;
      ub_[j] = 0.0;
      if (stat_[static_cast<std::size_t>(j)] != ColStatus::kBasic) {
        stat_[static_cast<std::size_t>(j)] = ColStatus::kAtLower;
      }
    }
  }
  compute_reduced_costs();
}

void SimplexTableau::compute_reduced_costs() {
  d_ = cost_;
  for (int i = 0; i < m_; ++i) {
    const double cb = cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    if (cb == 0.0) continue;
    const double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
    for (int j = 0; j < ncols_; ++j) d_[static_cast<std::size_t>(j)] -= cb * row[j];
  }
  // Basic columns have zero reduced cost by definition; enforce exactly.
  for (int i = 0; i < m_; ++i) {
    d_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] = 0.0;
  }
}

void SimplexTableau::compute_basic_values() {
  std::vector<double> x(static_cast<std::size_t>(ncols_), 0.0);
  for (int j = 0; j < ncols_; ++j) {
    if (stat_[static_cast<std::size_t>(j)] != ColStatus::kBasic) {
      x[static_cast<std::size_t>(j)] = nonbasic_value(j);
    }
  }
  for (int i = 0; i < m_; ++i) {
    const double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
    double v = 0.0;
    for (int k = 0; k < m_; ++k) {
      v += row[start_basis_[static_cast<std::size_t>(k)]] *
           start_rhs_[static_cast<std::size_t>(k)];
    }
    for (int j = 0; j < ncols_; ++j) {
      const double xj = x[static_cast<std::size_t>(j)];
      if (xj != 0.0) v -= row[j] * xj;
    }
    xb_[static_cast<std::size_t>(i)] = v;
  }
}

void SimplexTableau::refresh() {
  compute_reduced_costs();
  compute_basic_values();
  ++refactorizations_;
}

int SimplexTableau::choose_entering(bool bland) const {
  int best = -1;
  double best_score = params_.optimality_tol;
  for (int j = 0; j < ncols_; ++j) {
    const ColStatus s = stat_[static_cast<std::size_t>(j)];
    // A fixed column cannot move: entering it is a zero-length bound flip.
    if (s == ColStatus::kBasic || lb_[j] == ub_[j]) continue;
    const double dj = d_[static_cast<std::size_t>(j)];
    double score = 0.0;
    if ((s == ColStatus::kAtLower || s == ColStatus::kFreeZero) && dj < -params_.optimality_tol) {
      score = -dj;
    } else if ((s == ColStatus::kAtUpper || s == ColStatus::kFreeZero) && dj > params_.optimality_tol) {
      score = dj;
    } else {
      continue;
    }
    if (bland) return j;  // first eligible index
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

bool SimplexTableau::iterate(int entering, bool* made_progress) {
  const std::size_t q = static_cast<std::size_t>(entering);
  const double dq = d_[q];
  // Direction of movement of the entering variable.
  const ColStatus s = stat_[q];
  int dir;
  if (s == ColStatus::kAtLower) {
    dir = +1;
  } else if (s == ColStatus::kAtUpper) {
    dir = -1;
  } else {  // free at zero: move against the gradient
    dir = dq < 0.0 ? +1 : -1;
  }

  // Ratio test.
  double t_max = ub_[q] - lb_[q];  // bound-flip distance (may be inf/NaN)
  if (!std::isfinite(t_max)) t_max = kInfinity;
  int leave_row = -1;
  double leave_pivot = 0.0;
  bool leave_at_upper = false;
  for (int i = 0; i < m_; ++i) {
    const double y = tab(i, entering);
    if (std::abs(y) < kPivotTol) continue;
    const int b = basis_[static_cast<std::size_t>(i)];
    const double v = xb_[static_cast<std::size_t>(i)];
    const double delta = -static_cast<double>(dir) * y;  // d(xB_i)/dt
    double limit;
    bool hits_upper;
    if (delta < 0.0) {
      limit = lb_[static_cast<std::size_t>(b)];
      if (!std::isfinite(limit)) continue;
      hits_upper = false;
    } else {
      limit = ub_[static_cast<std::size_t>(b)];
      if (!std::isfinite(limit)) continue;
      hits_upper = true;
    }
    double t_i = (limit - v) / delta;
    if (t_i < 0.0) t_i = 0.0;  // degenerate step
    if (t_i < t_max - kPivotTol ||
        (t_i < t_max + kPivotTol &&
         std::abs(y) > std::abs(leave_pivot))) {
      if (t_i <= t_max) {
        t_max = t_i;
        leave_row = i;
        leave_pivot = y;
        leave_at_upper = hits_upper;
      }
    }
  }

  if (!std::isfinite(t_max)) {
    return false;  // unbounded direction
  }

  const double step = t_max;
  *made_progress = std::abs(step * dq) > 1e-12;

  // Apply the step to the basic values.
  if (step != 0.0) {
    for (int i = 0; i < m_; ++i) {
      const double y = tab(i, entering);
      if (y != 0.0) {
        xb_[static_cast<std::size_t>(i)] -= static_cast<double>(dir) * step * y;
      }
    }
  }

  if (leave_row < 0) {
    // Pure bound flip: the entering variable traverses to its other bound.
    stat_[q] = (dir > 0) ? ColStatus::kAtUpper : ColStatus::kAtLower;
    return true;
  }

  // Basis change: entering becomes basic at its new value; the leaving
  // variable exits at the bound it hit.
  ++pivots_;
  const std::size_t r = static_cast<std::size_t>(leave_row);
  const int leaving = basis_[r];
  const double entering_value =
      (s == ColStatus::kAtUpper ? ub_[q]
       : s == ColStatus::kAtLower ? lb_[q]
                                  : 0.0) +
      static_cast<double>(dir) * step;

  stat_[static_cast<std::size_t>(leaving)] =
      leave_at_upper ? ColStatus::kAtUpper : ColStatus::kAtLower;
  basis_[r] = entering;
  stat_[q] = ColStatus::kBasic;
  xb_[r] = entering_value;

  // Gauss-Jordan elimination on the pivot column. A zero entry of the pivot
  // row leaves its column unchanged in every other row, so the updates run
  // over the pivot row's nonzeros only.
  double* prow = &tab_[r * ncols_];
  const double pivot = prow[entering];
  const double inv = 1.0 / pivot;
  for (int j = 0; j < ncols_; ++j) prow[j] *= inv;
  prow[entering] = 1.0;
  pivot_nonzeros_.clear();
  for (int j = 0; j < ncols_; ++j) {
    if (prow[j] != 0.0) pivot_nonzeros_.push_back(j);
  }
  for (int i = 0; i < m_; ++i) {
    if (i == leave_row) continue;
    double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
    const double factor = row[entering];
    if (factor == 0.0) continue;
    for (const int j : pivot_nonzeros_) row[j] -= factor * prow[j];
    row[entering] = 0.0;
  }
  const double dfac = d_[q];
  if (dfac != 0.0) {
    for (const int j : pivot_nonzeros_) {
      d_[static_cast<std::size_t>(j)] -= dfac * prow[j];
    }
  }
  d_[q] = 0.0;
  return true;
}

bool SimplexTableau::state_is_finite() const {
  for (const double v : xb_) {
    if (!std::isfinite(v)) return false;
  }
  for (const double v : d_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double SimplexTableau::infeasibility_sum() const {
  double total = 0.0;
  for (int i = 0; i < m_; ++i) {
    if (basis_[static_cast<std::size_t>(i)] >= first_artificial_) {
      total += std::abs(xb_[static_cast<std::size_t>(i)]);
    }
  }
  return total;
}

void SimplexTableau::extract(LpResult& result) const {
  result.x.assign(static_cast<std::size_t>(n_struct_), 0.0);
  for (int j = 0; j < n_struct_; ++j) {
    if (stat_[static_cast<std::size_t>(j)] != ColStatus::kBasic) {
      result.x[static_cast<std::size_t>(j)] = nonbasic_value(j);
    }
  }
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (b < n_struct_) {
      result.x[static_cast<std::size_t>(b)] = xb_[static_cast<std::size_t>(i)];
    }
  }
  double obj = 0.0;
  for (int j = 0; j < n_struct_; ++j) {
    obj += real_cost_[static_cast<std::size_t>(j)] * result.x[static_cast<std::size_t>(j)];
  }
  result.objective = obj;
}

void SimplexTableau::attach_farkas(LpResult& result) {
  // Phase-1 duals live in the slack reduced costs: slack k's column is
  // D_k e_k (D the row-flip signs applied in build()), so with y = c_B B^-1,
  // d_slack_k = 0 - y_k D_k, i.e. the multiplier of original row k is
  // +-d_slack_k. Refresh first — the incrementally-updated cost row drifts.
  compute_reduced_costs();
  ++refactorizations_;
  if (!state_is_finite()) return;
  std::vector<double> ray(static_cast<std::size_t>(m_));
  double scale = 0.0;
  for (int k = 0; k < m_; ++k) {
    ray[static_cast<std::size_t>(k)] = d_[static_cast<std::size_t>(n_struct_ + k)];
    scale = std::max(scale, std::abs(ray[static_cast<std::size_t>(k)]));
  }
  if (scale == 0.0) return;
  // The overall sign of the ray depends on conventions that are easy to get
  // wrong and on which phase-1 exit we came through; try both orientations
  // against a float evaluation of the Farkas condition and keep the one that
  // works. The exact checker (milp/certify) is authoritative either way.
  for (const double orient : {1.0, -1.0}) {
    std::vector<double> y(static_cast<std::size_t>(m_));
    bool signs_ok = true;
    for (int k = 0; k < m_ && signs_ok; ++k) {
      double v = orient * ray[static_cast<std::size_t>(k)];
      const Sense sense = problem_.rows[static_cast<std::size_t>(k)].sense;
      if ((sense == Sense::kLessEqual && v < 0.0) ||
          (sense == Sense::kGreaterEqual && v > 0.0)) {
        // Clamp roundoff-level sign violations; reject real ones.
        if (std::abs(v) <= 1e-7 * scale) {
          v = 0.0;
        } else {
          signs_ok = false;
        }
      }
      y[static_cast<std::size_t>(k)] = v;
    }
    if (!signs_ok) continue;
    // Aggregate w = sum y_k a_k and its box-minimum over the variable
    // bounds; infeasibility needs min > y.b strictly.
    std::vector<double> w(static_cast<std::size_t>(n_struct_), 0.0);
    double yb = 0.0;
    for (int k = 0; k < m_; ++k) {
      const double yk = y[static_cast<std::size_t>(k)];
      if (yk == 0.0) continue;
      const auto& row = problem_.rows[static_cast<std::size_t>(k)];
      for (const LinTerm& term : row.terms) {
        w[static_cast<std::size_t>(term.var)] += yk * term.coef;
      }
      yb += yk * row.rhs;
    }
    double box_min = 0.0;
    bool finite = true;
    for (int j = 0; j < n_struct_ && finite; ++j) {
      const double wj = w[static_cast<std::size_t>(j)];
      if (wj == 0.0) continue;
      const double bound = wj > 0.0 ? problem_.lb[static_cast<std::size_t>(j)]
                                    : problem_.ub[static_cast<std::size_t>(j)];
      if (!std::isfinite(bound)) {
        finite = false;
      } else {
        box_min += wj * bound;
      }
    }
    if (finite && box_min > yb) {
      result.certificate.kind = LpCertificate::Kind::kFarkas;
      result.certificate.y = std::move(y);
      return;
    }
  }
}

LpResult SimplexTableau::run() {
  LpResult result = run_phases();
  result.iterations = iterations_;
  result.pivots = pivots_;
  result.refactorizations = refactorizations_;
  return result;
}

LpResult SimplexTableau::run_phases() {
  LpResult result;
  if (SPARCS_FAILPOINT("milp.simplex.blowup")) {
    // Poison the state the way a real blow-up would (instead of returning the
    // failure status directly) so the detection path itself is exercised.
    if (!xb_.empty()) {
      xb_[0] = std::numeric_limits<double>::quiet_NaN();
    } else {
      result.status = LpStatus::kNumericalFailure;
      return result;
    }
  }
  if (SPARCS_FAILPOINT("milp.simplex.cycle")) {
    // Emulates the degenerate-cycling detector giving up (Bland's rule ran
    // kCycleLimit iterations without terminating).
    result.status = LpStatus::kNumericalFailure;
    return result;
  }
  int stall = 0;
  int bland_run = 0;  ///< consecutive iterations under Bland's rule
  for (phase_ = 1; phase_ <= 2;) {
    const bool bland = stall > params_.stall_threshold;
    if (bland) {
      // Bland's rule terminates in exact arithmetic; if it spins this long we
      // are cycling on roundoff and no pivoting rule will save us.
      if (++bland_run > kCycleLimit) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iterations_;
        return result;
      }
    } else {
      bland_run = 0;
    }
    int entering = choose_entering(bland);
    if (entering < 0 && phase_ == 1 &&
        infeasibility_sum() > 1e3 * params_.feasibility_tol) {
      // The incrementally updated cost row and basic values drift, most on
      // rows with wide coefficient ranges: conclude infeasibility only if
      // fresh ones admit no entering column either. A refresh that finds
      // one is followed by an iteration, so kMaxIterations still bounds the
      // loop.
      refresh();
      entering = choose_entering(bland);
    }
    if (entering < 0) {
      // Current phase optimal.
      if (!state_is_finite()) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iterations_;
        return result;
      }
      if (phase_ == 1) {
        if (infeasibility_sum() > 1e3 * params_.feasibility_tol) {
          result.status = LpStatus::kInfeasible;
          result.iterations = iterations_;
          if (params_.want_certificate) attach_farkas(result);
          return result;
        }
        set_phase(2);
        stall = 0;
        bland_run = 0;
        continue;
      }
      result.iterations = iterations_;
      extract(result);
      result.status = rows_hold(problem_, result.x)
                          ? LpStatus::kOptimal
                          : LpStatus::kNumericalFailure;
      return result;
    }
    bool progress = false;
    if (!iterate(entering, &progress)) {
      if (!state_is_finite()) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iterations_;
        return result;
      }
      result.status =
          phase_ == 1 ? LpStatus::kInfeasible : LpStatus::kUnbounded;
      result.iterations = iterations_;
      if (phase_ == 1 && params_.want_certificate) attach_farkas(result);
      return result;
    }
    stall = progress ? 0 : stall + 1;
    if (++iterations_ >= kMaxIterations) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = iterations_;
      return result;
    }
    if (params_.should_abort && iterations_ % 128 == 0 &&
        params_.should_abort()) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = iterations_;
      return result;
    }
    // Periodic refresh guards against accumulated roundoff in the cost row
    // and the basic values.
    if (iterations_ % 512 == 0) {
      refresh();
      if (!state_is_finite()) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iterations_;
        return result;
      }
    }
  }
  result.status = LpStatus::kIterationLimit;
  result.iterations = iterations_;
  return result;
}

}  // namespace

namespace {

/// Relaxes every finite bound outward by a relative epsilon. The perturbed
/// feasible region is a superset of the original, so an LP bound computed on
/// it is still a valid (conservative) bound for branch & bound pruning.
LpProblem perturb_bounds_outward(const LpProblem& problem, double eps) {
  LpProblem out = problem;
  for (int j = 0; j < out.num_vars(); ++j) {
    const std::size_t i = static_cast<std::size_t>(j);
    if (std::isfinite(out.lb[i])) out.lb[i] -= eps * (1.0 + std::abs(out.lb[i]));
    if (std::isfinite(out.ub[i])) out.ub[i] += eps * (1.0 + std::abs(out.ub[i]));
  }
  return out;
}

}  // namespace

LpResult solve_lp(const LpProblem& problem, const LpParams& params) {
  trace::Span span("simplex");
  span.arg("rows", static_cast<std::int64_t>(problem.num_rows()));
  span.arg("cols", static_cast<std::int64_t>(problem.num_vars()));
  for (int j = 0; j < problem.num_vars(); ++j) {
    if (problem.lb[static_cast<std::size_t>(j)] >
        problem.ub[static_cast<std::size_t>(j)] + params.feasibility_tol) {
      LpResult result;
      result.status = LpStatus::kInfeasible;
      if (params.want_certificate) {
        result.certificate.kind = LpCertificate::Kind::kEmptyBound;
        result.certificate.var = j;
      }
      return result;
    }
  }
  LpResult result = SimplexTableau(problem, params).run();
  // Numerical-failure recovery: retry with Bland's rule from iteration 0
  // (attempt 1) and additionally with outward bound perturbation (later
  // attempts). Iteration/pivot counts accumulate across attempts.
  for (int attempt = 1;
       result.status == LpStatus::kNumericalFailure &&
       attempt <= kMaxRecoveries;
       ++attempt) {
    SPARCS_LOG(kDebug) << "simplex recovery attempt " << attempt
                       << " (Bland" << (attempt > 1 ? " + perturbation" : "")
                       << ")";
    LpParams retry = params;
    retry.stall_threshold = 0;  // Bland's rule from the first iteration
    LpResult prior = result;
    if (attempt > 1) {
      const LpProblem perturbed = perturb_bounds_outward(
          problem, kPerturbation * static_cast<double>(attempt));
      result = SimplexTableau(perturbed, retry).run();
    } else {
      result = SimplexTableau(problem, retry).run();
    }
    result.iterations += prior.iterations;
    result.pivots += prior.pivots;
    result.refactorizations += prior.refactorizations;
    result.recoveries = attempt;
  }
  if (result.certificate.kind == LpCertificate::Kind::kFarkas &&
      SPARCS_FAILPOINT("milp.certify.corrupt_ray")) {
    // Zero the dual ray: the aggregated Farkas product degenerates to
    // 0 > 0, so the exact checker must reject it — exercising the
    // distrust-and-retry demotion path end-to-end.
    std::fill(result.certificate.y.begin(), result.certificate.y.end(), 0.0);
  }
  return result;
}

LpProblem relaxation_of(const Model& model, bool* flip_objective) {
  LpProblem lp;
  const double sign = model.minimize() ? 1.0 : -1.0;
  if (flip_objective != nullptr) *flip_objective = !model.minimize();
  lp.obj.assign(static_cast<std::size_t>(model.num_vars()), 0.0);
  lp.lb.reserve(static_cast<std::size_t>(model.num_vars()));
  lp.ub.reserve(static_cast<std::size_t>(model.num_vars()));
  for (const VarInfo& v : model.vars()) {
    lp.lb.push_back(v.lb);
    lp.ub.push_back(v.ub);
  }
  for (const LinTerm& term : model.objective().terms()) {
    lp.obj[static_cast<std::size_t>(term.var)] += sign * term.coef;
  }
  for (const ConstraintInfo& c : model.constraints()) {
    lp.rows.push_back(LpProblem::Row{c.terms, c.sense, c.rhs});
  }
  return lp;
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kFeasible:
      return "feasible";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kLimitReached:
      return "limit-reached";
    case SolveStatus::kNumericalFailure:
      return "numerical-failure";
  }
  return "unknown";
}

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
    case LpStatus::kNumericalFailure:
      return "numerical-failure";
  }
  return "unknown";
}

}  // namespace sparcs::milp
