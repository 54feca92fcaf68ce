#include "milp/solver.hpp"

#include <utility>

#include "milp/branch_and_bound.hpp"
#include "milp/certify.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/observer.hpp"
#include "support/span.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace sparcs::milp {
namespace {

/// Runs the exact certificate check matching the solution's verdict, stamping
/// `certified` / `certify_detail` and the check counters. Statuses that make
/// no certifiable claim (limits, cancellation, unbounded, numerical failure)
/// keep kNotRequested.
void certify_verdict(const Model& model, const SolverParams& params,
                     MilpSolution& solution) {
  solution.certified = CertifyStatus::kNotRequested;
  solution.certify_detail.clear();
  if (params.certify == CertifyMode::kOff) return;

  const bool feasible_verdict = (solution.status == SolveStatus::kOptimal ||
                                 solution.status == SolveStatus::kFeasible) &&
                                !solution.values.empty();
  const bool infeasible_verdict =
      solution.status == SolveStatus::kInfeasible &&
      params.certify == CertifyMode::kFull;

  if (feasible_verdict) {
    ++solution.stats.certificates_checked;
    const CertifyCheck check = certify_feasible(model, solution.values);
    solution.certified =
        check.ok ? CertifyStatus::kCertified : CertifyStatus::kUncertified;
    solution.certify_detail = check.detail;
    if (!check.ok) ++solution.stats.certificates_failed;
  } else if (infeasible_verdict) {
    ++solution.stats.certificates_checked;
    if (solution.proof == nullptr) {
      solution.certified = CertifyStatus::kUncertified;
      solution.certify_detail = "no infeasibility proof was recorded";
      ++solution.stats.certificates_failed;
      return;
    }
    const CertifyCheck check = certify_infeasible(model, *solution.proof);
    solution.certified =
        check.ok ? CertifyStatus::kCertified : CertifyStatus::kUncertified;
    solution.certify_detail = check.detail;
    if (!check.ok) ++solution.stats.certificates_failed;
  }
}

/// Publishes one solve's statistics to the bound observer's metrics
/// registry, if it collects one.
void export_to_registry(const MilpSolution& solution) {
  const Observer* observer = current_observer();
  if (observer == nullptr || observer->metrics() == nullptr) return;
  metrics::Registry& reg = *observer->metrics();
  const SolverStats& s = solution.stats;
  reg.counter("milp.solves").add(1);
  for (const auto& field : kSolverStatsFields) {
    if (field.metric != nullptr) reg.counter(field.metric).add(s.*field.member);
  }
  reg.timer("milp.solve").record(solution.seconds);
  reg.gauge("milp.bnb.last_max_depth").set(static_cast<double>(s.max_depth));
}

}  // namespace

Solver::Solver(const Model& model, SolverParams params)
    : model_(model), params_(std::move(params)) {}

const CompiledModel& Solver::compile() {
  if (compiled_ && compiled_->revision() == model_.structure_revision()) {
    compiled_->refresh(model_);
  } else {
    compiled_.emplace(model_, /*with_objective_cutoff=*/model_.has_objective());
  }
  return *compiled_;
}

MilpSolution Solver::solve() {
  // Pins the solve's correlation id to this thread and, when the run is
  // sampled, publishes the solve as the run's live solve.
  telemetry::SolveScope live;
  // "milp::solve" is the span name trace consumers key on (DESIGN.md span
  // tree), so it stays fixed.
  trace::Span span("milp::solve");
  span.arg("vars", static_cast<std::int64_t>(model_.num_vars()));
  span.arg("constraints",
           static_cast<std::int64_t>(model_.num_constraints()));
  if (live.id() != 0) {
    span.arg("corr", static_cast<std::int64_t>(live.id()));
  }
  const Stopwatch elapsed;
  const CompiledModel& compiled = compile();
  MilpSolution solution =
      solve_branch_and_bound(model_, compiled, params_, live.slot());
  certify_verdict(model_, params_, solution);
  if (solution.certified == CertifyStatus::kUncertified && !params_.distrust) {
    // Distrust-and-retry: one re-solve under numerically cautious settings
    // (Bland's rule from the start, tightened tolerances). The retry's
    // verdict replaces the distrusted one; its stats add to the first
    // attempt's so the session accounts for the total work, and the
    // timeline keeps attempt order (first attempt, then retry). It runs on
    // what the first attempt left of the time and node limits, so the two
    // attempts together stay inside the solve's budget.
    SPARCS_WLOG << "verdict " << to_string(solution.status)
                << " failed exact certification (" << solution.certify_detail
                << "); re-solving with distrust settings";
    SolverParams retry_params = params_;
    retry_params.distrust = true;
    retry_params.time_limit_sec -= elapsed.seconds();
    retry_params.node_limit -= solution.stats.nodes_explored;
    MilpSolution retried =
        solve_branch_and_bound(model_, compiled, retry_params, live.slot());
    solution.stats.merge(retried.stats);
    retried.stats = std::move(solution.stats);
    retried.stats.certify_retries += 1;
    solution = std::move(retried);
    certify_verdict(model_, retry_params, solution);
  }
  if (solution.certified == CertifyStatus::kUncertified) {
    ++solution.stats.uncertified_verdicts;
    SPARCS_WLOG << "verdict " << to_string(solution.status)
                << " remains uncertified: " << solution.certify_detail;
  }
  span.arg("status", to_string(solution.status));
  if (params_.certify != CertifyMode::kOff) {
    span.arg("certified", to_string(solution.certified));
  }
  span.arg("nodes", solution.stats.nodes_explored);
  span.arg("simplex_iterations", solution.stats.simplex_iterations);
  // Both attempts of a distrust retry and their certificate checks count.
  solution.seconds = elapsed.seconds();
  export_to_registry(solution);
  return solution;
}

SolverParams first_feasible_params(SolverParams base) {
  base.stop_at_first_feasible = true;
  return base;
}

SolverParams optimality_params(SolverParams base) {
  base.stop_at_first_feasible = false;
  base.use_lp_bounding = true;
  return base;
}

}  // namespace sparcs::milp
