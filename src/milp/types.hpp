// Common types of the MILP subsystem.
//
// This subsystem is the repository's stand-in for the commercial ILP solver
// (CPLEX) used in the paper: a 0/1-oriented mixed-integer linear programming
// solver built from a bounded-variable two-phase simplex, activity-based
// bound propagation, and depth-first branch & bound with feasibility
// emphasis. The paper's algorithms only require "return the first feasible
// solution or prove infeasibility, under a time budget", plus an optimality
// mode for the small reference experiments; both are provided.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace sparcs::report {
class ReportWriter;
}  // namespace sparcs::report

namespace sparcs::milp {

/// Index of a decision variable within its Model.
using VarId = std::int32_t;
/// Index of a linear constraint within its Model.
using ConstraintId = std::int32_t;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType : std::uint8_t {
  kContinuous,
  kBinary,   ///< integer restricted to {0, 1}
  kInteger,  ///< general bounded integer
};

/// Relational sense of a linear constraint.
enum class Sense : std::uint8_t {
  kLessEqual,
  kGreaterEqual,
  kEqual,
};

/// How much of the solve to certify (see milp/certificate.hpp and
/// milp/certify.hpp for the certificate data and the exact checker).
enum class CertifyMode : std::uint8_t {
  kOff,         ///< trust the floating-point verdicts (no overhead)
  kIncumbents,  ///< exact feasibility check of every returned solution
  kFull,        ///< kIncumbents plus infeasibility proofs for kInfeasible
};

/// Certification outcome of one verdict.
enum class CertifyStatus : std::uint8_t {
  kNotRequested,  ///< certification off, or nothing to certify (limit/cancel)
  kCertified,     ///< the verdict was re-established in exact arithmetic
  kUncertified,   ///< certificate check failed even after the distrust retry
};

[[nodiscard]] const char* to_string(CertifyStatus status);
[[nodiscard]] const char* to_string(CertifyMode mode);

/// Tree-shaped infeasibility proof (milp/certificate.hpp); carried by
/// MilpSolution behind a shared_ptr so types.hpp need not see its layout.
struct InfeasibilityProof;

/// Certificate attached to an infeasible LpResult by the simplex. The data
/// is plain doubles — a hint for the exact checker, never trusted directly.
struct LpCertificate {
  enum class Kind : std::uint8_t {
    kNone,        ///< no certificate available (extraction failed)
    kFarkas,      ///< dual ray `y`, one multiplier per LP row
    kEmptyBound,  ///< variable `var` arrived with lb > ub
  };
  Kind kind = Kind::kNone;
  std::vector<double> y;
  int var = -1;
};

/// Outcome of a MILP solve.
enum class SolveStatus : std::uint8_t {
  kOptimal,       ///< search exhausted; incumbent is proven optimal
  kFeasible,      ///< a feasible solution was found (first-feasible mode, or
                  ///< limits hit with an incumbent in hand)
  kInfeasible,    ///< search exhausted with no feasible solution
  kUnbounded,     ///< objective unbounded below (minimization)
  kLimitReached,  ///< node/time limit hit before any feasible solution
  kNumericalFailure,  ///< simplex blow-up/cycling exhausted every recovery
                      ///< (Bland's rule, bound perturbation, node rollback)
                      ///< before any feasible solution was found
};

[[nodiscard]] std::string to_string(SolveStatus status);

/// Shareable cooperative-cancellation handle. Copies share one flag, so a
/// token stored in SolverParams keeps working after the params are copied
/// into a Solver session. A default-constructed token is inert: it never
/// reports cancellation and ignores requests. All operations are thread-safe.
class CancelToken {
 public:
  CancelToken() = default;

  /// Makes a live token (the only way to obtain a non-inert one).
  [[nodiscard]] static CancelToken create() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// True when this token can carry a cancellation request.
  [[nodiscard]] bool valid() const { return flag_ != nullptr; }

  /// Requests cancellation; every copy of the token observes it.
  void request_cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  /// Re-arms a live token by clearing the shared flag in place. Unlike
  /// re-assigning a fresh token, every existing copy keeps observing the
  /// same flag, so there is no window where a concurrent request_cancel()
  /// lands on a retired flag and gets dropped.
  void reset() const {
    if (flag_) flag_->store(false, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Snapshot handed to incumbent callbacks when the search accepts a new best
/// solution. `values` points at solver-owned storage that is only valid for
/// the duration of the callback.
struct IncumbentEvent {
  double objective = 0.0;  ///< sign-corrected (caller's min/max convention)
  const std::vector<double>* values = nullptr;
  std::int64_t nodes_explored = 0;  ///< nodes explored when accepted
};

/// Invoked on every accepted incumbent. In multi-threaded solves the callback
/// runs on a worker thread under the incumbent lock: keep it cheap, and do
/// not call back into the solver except CancelToken::request_cancel().
using IncumbentCallback = std::function<void(const IncumbentEvent&)>;

/// Largest model (in variables) on which SolverParams::use_lp_bounding
/// actually solves node LPs; above it the relaxation costs more than it prunes.
inline constexpr int kLpBoundingMaxVars = 2000;

/// Tuning knobs of the MILP solver.
struct SolverParams {
  /// Stop as soon as any feasible solution is found (constraint-satisfaction
  /// mode, the mode the paper's SolveModel() uses).
  bool stop_at_first_feasible = false;

  /// Wall-clock budget in seconds; exceeded => kLimitReached / kFeasible.
  double time_limit_sec = kInfinity;

  /// Maximum number of branch & bound nodes explored.
  std::int64_t node_limit = std::numeric_limits<std::int64_t>::max();

  /// Use LP-relaxation bounding/pruning at search nodes. Strong but costly;
  /// the search applies it only to models of at most kLpBoundingMaxVars
  /// variables.
  bool use_lp_bounding = false;

  /// Feasibility tolerance of propagation and the final solution check.
  double feasibility_tol = 1e-6;

  /// Minimum improvement required of a new incumbent (objective cutoff step).
  double objective_improvement = 1e-6;

  /// Maximum propagation sweeps per node before settling.
  int max_propagation_rounds = 50;

  /// Branch & bound worker threads. 0 = hardware_concurrency; 1 runs the
  /// legacy single-threaded search and preserves today's exact node order.
  /// With more than one worker the returned first-feasible solution is still
  /// deterministic (identical to the single-threaded one) because candidates
  /// are accepted in depth-first rank order; see DESIGN.md.
  int num_threads = 0;

  /// Cooperative cancellation: when the token reports cancellation the solve
  /// stops at the next node boundary and returns kLimitReached (or kFeasible
  /// when an incumbent is already in hand; a cut-short multi-threaded
  /// first-feasible search keeps kLimitReached, since its candidate is not
  /// proven to be the single-threaded answer). Inert by default.
  CancelToken cancel;

  /// Certify verdicts in exact rational arithmetic (milp/certify). A failed
  /// check triggers one distrust re-solve; see Solver::solve().
  CertifyMode certify = CertifyMode::kOff;

  /// Distrust mode, set internally by the certification retry: the simplex
  /// runs Bland's rule from the first iteration and the solver tightens its
  /// tolerances, trading speed for the numerical caution that usually makes
  /// the second certificate check pass.
  bool distrust = false;
};

/// One timestamped event on a solve's convergence timeline: an accepted
/// incumbent or a tightened global bound, in caller convention (maximization
/// objectives are reported as the caller sees them).
struct ConvergenceEvent {
  enum class Kind : std::uint8_t { kIncumbent, kBound };
  double t_sec = 0.0;      ///< since the solve started
  double objective = 0.0;  ///< incumbent objective or bound value
  std::int64_t nodes = 0;  ///< nodes explored when the event fired
  Kind kind = Kind::kIncumbent;
};

/// The SolverStats accumulators, one row each, in report (JSON key) order:
/// X(field, merge rule, metrics-registry counter or nullptr). Merge rules are
/// kSum or kMax. max_depth has no counter: it is published as the gauge
/// milp.bnb.last_max_depth. Adding a counter means adding one row here.
#define SPARCS_SOLVER_STATS_FIELDS(X)                                       \
  /* Branch & bound. */                                                     \
  X(nodes_explored, kSum, "milp.bnb.nodes_explored")                        \
  /* LP-relaxation refutations */                                           \
  X(nodes_pruned_by_bound, kSum, "milp.bnb.nodes_pruned_by_bound")          \
  /* propagation conflicts */                                               \
  X(nodes_pruned_infeasible, kSum, "milp.bnb.nodes_pruned_infeasible")      \
  X(incumbent_updates, kSum, "milp.bnb.incumbent_updates")                  \
  /* deepest DFS stack reached */                                           \
  X(max_depth, kMax, nullptr)                                               \
  /* Bound propagation (all nodes, root included). */                       \
  X(propagated_constraints, kSum, "milp.propagation.constraints")           \
  X(bounds_tightened, kSum, "milp.propagation.bounds_tightened")            \
  X(vars_fixed, kSum, "milp.propagation.vars_fixed")                        \
  X(conflicts, kSum, "milp.propagation.conflicts")                          \
  /* Root-node propagation, the solver's built-in presolve. */              \
  X(presolve_bounds_tightened, kSum, nullptr)                               \
  X(presolve_vars_fixed, kSum, nullptr)                                     \
  /* Simplex (LP bounding + continuous-completion solves). */               \
  X(simplex_calls, kSum, "milp.simplex.calls")                              \
  X(simplex_iterations, kSum, "milp.simplex.iterations")                    \
  /* basis changes */                                                       \
  X(simplex_pivots, kSum, "milp.simplex.pivots")                            \
  /* reduced-cost refreshes */                                              \
  X(simplex_refactorizations, kSum, "milp.simplex.refactorizations")        \
  /* Robustness. LP solves lost to blow-up/cycling: */                      \
  X(numerical_failures, kSum, "milp.numerical_failures")                    \
  /* LP solves saved by Bland/perturbation */                               \
  X(lp_recoveries, kSum, "milp.lp_recoveries")                              \
  /* incumbents rejected by validation */                                   \
  X(checker_rejections, kSum, "milp.checker_rejections")                    \
  /* nodes rolled back on bad_alloc */                                      \
  X(allocation_failures, kSum, "milp.allocation_failures")                  \
  /* Certification (milp/certify). Exact checks performed: */               \
  X(certificates_checked, kSum, "milp.certify.checked")                     \
  /* checks that did not verify */                                          \
  X(certificates_failed, kSum, "milp.certify.failed")                       \
  /* distrust re-solves triggered */                                        \
  X(certify_retries, kSum, "milp.certify.retries")                          \
  /* verdicts demoted after the retry */                                    \
  X(uncertified_verdicts, kSum, "milp.certify.uncertified")

/// Per-layer search statistics of one MILP solve, filled by the simplex,
/// propagation and branch & bound layers and returned in MilpSolution. All
/// counters are plain accumulators (no atomics): each worker thread fills its
/// own instance and the per-worker copies are merge()d on exit, so the
/// reported totals are exact at any thread count.
struct SolverStats {
#define SPARCS_SOLVER_STATS_DECLARE(field, merge, metric) \
  std::int64_t field = 0;
  SPARCS_SOLVER_STATS_FIELDS(SPARCS_SOLVER_STATS_DECLARE)
#undef SPARCS_SOLVER_STATS_DECLARE

  /// Incumbent/bound improvement timeline, time-ordered. Serial solves
  /// append directly; parallel solves record under the shared incumbent lock
  /// so the timeline stays time-ordered across workers.
  std::vector<ConvergenceEvent> convergence;

  /// Renders every accumulator plus the convergence timeline as one JSON
  /// object (implemented in stats_json.cpp; shared by the CLI report and the
  /// telemetry stream).
  [[nodiscard]] std::string to_json() const;

  /// Accumulates another solve's stats (each counter by its merge rule;
  /// timelines concatenate and re-sort by timestamp).
  void merge(const SolverStats& other);
};

/// One row of the SolverStats field table.
struct SolverStatsField {
  enum class Merge : std::uint8_t { kSum, kMax };
  const char* name;                   ///< field name == JSON key
  std::int64_t SolverStats::*member;
  Merge merge;
  const char* metric;  ///< registry counter; nullptr = not published as one
};

/// SPARCS_SOLVER_STATS_FIELDS as data, for loops over every counter.
inline constexpr SolverStatsField kSolverStatsFields[] = {
#define SPARCS_SOLVER_STATS_ROW(field, merge, metric) \
  {#field, &SolverStats::field, SolverStatsField::Merge::merge, metric},
    SPARCS_SOLVER_STATS_FIELDS(SPARCS_SOLVER_STATS_ROW)
#undef SPARCS_SOLVER_STATS_ROW
};

inline void SolverStats::merge(const SolverStats& other) {
  for (const SolverStatsField& f : kSolverStatsFields) {
    std::int64_t& mine = this->*f.member;
    const std::int64_t theirs = other.*f.member;
    mine = f.merge == SolverStatsField::Merge::kMax ? std::max(mine, theirs)
                                                    : mine + theirs;
  }
  convergence.insert(convergence.end(), other.convergence.begin(),
                     other.convergence.end());
  std::stable_sort(convergence.begin(), convergence.end(),
                   [](const ConvergenceEvent& a, const ConvergenceEvent& b) {
                     return a.t_sec < b.t_sec;
                   });
}

/// Writes `events` as the "convergence" array member of the object `w` is
/// inside: the one renderer of a timeline (stats_json.cpp), shared by
/// SolverStats::to_json() and the per-probe rows of the report.
void write_convergence(report::ReportWriter& w,
                       const std::vector<ConvergenceEvent>& events);

/// Result of a MILP solve.
struct MilpSolution {
  SolveStatus status = SolveStatus::kLimitReached;
  double objective = 0.0;              ///< valid when a solution exists
  std::vector<double> values;          ///< per-variable values (empty if none)
  double seconds = 0.0;
  SolverStats stats;                   ///< per-layer search statistics

  /// Certification outcome of this verdict (kNotRequested unless
  /// SolverParams::certify asked for it and the verdict was certifiable).
  CertifyStatus certified = CertifyStatus::kNotRequested;
  /// Reason of a failed certification, or a note on how it was closed.
  std::string certify_detail;
  /// Infeasibility proof recorded by branch & bound (kFull mode only; kept
  /// for report/debug dumps after the exact check has consumed it).
  std::shared_ptr<const InfeasibilityProof> proof;

  [[nodiscard]] bool has_solution() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kFeasible;
  }
};

/// Outcome of an LP solve.
enum class LpStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,  ///< non-finite tableau values or unrecoverable cycling
};

[[nodiscard]] std::string to_string(LpStatus status);

/// Result of a pure LP solve.
struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< primal values, one per variable
  int iterations = 0;
  int pivots = 0;            ///< basis changes (iterations minus bound flips)
  int refactorizations = 0;  ///< periodic reduced-cost refreshes
  int recoveries = 0;  ///< numerical-failure retries (Bland / perturbation)
                       ///< that were needed to produce this result
  /// Infeasibility certificate (LpParams::want_certificate; kNone otherwise
  /// or when extraction failed — never required to be present).
  LpCertificate certificate;
};

}  // namespace sparcs::milp
