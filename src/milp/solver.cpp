#include "milp/solver.hpp"

#include <array>
#include <iterator>
#include <utility>

#include "milp/branch_and_bound.hpp"
#include "milp/certify.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/span.hpp"
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

/// Publishes one solve's statistics to the process-wide metrics registry.
/// Handles are resolved once; the adds are relaxed atomics gated on the
/// global enable flag, so the per-solve cost is negligible either way.
void export_to_registry(const MilpSolution& solution) {
  if (!metrics::enabled()) return;
  metrics::Registry& reg = metrics::registry();
  static metrics::Counter& solves = reg.counter("milp.solves");
  // One handle per field-table row; null for rows published as no counter.
  static const auto counters = [&reg] {
    std::array<metrics::Counter*, std::size(kSolverStatsFields)> handles{};
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const char* metric = kSolverStatsFields[i].metric;
      if (metric != nullptr) handles[i] = &reg.counter(metric);
    }
    return handles;
  }();
  static metrics::Timer& solve_timer = reg.timer("milp.solve");
  static metrics::Gauge& depth_gauge = reg.gauge("milp.bnb.last_max_depth");

  const SolverStats& s = solution.stats;
  solves.add(1);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (counters[i] != nullptr) {
      counters[i]->add(s.*kSolverStatsFields[i].member);
    }
  }
  solve_timer.record(solution.seconds);
  depth_gauge.set(static_cast<double>(s.max_depth));
}

}  // namespace

Solver::Solver(const Model& model, SolverParams params)
    : model_(model),
      params_(std::move(params)),
      cancel_(CancelToken::create()) {}

MilpSolution Solver::solve() {
  // Registers the solve in the live telemetry table (no-op while telemetry
  // is inactive) and pins its correlation id to this thread.
  telemetry::SolveScope live("milp::solve");
  // "milp::solve" is the span name trace consumers key on (DESIGN.md span
  // tree), so it stays fixed.
  trace::Span span("milp::solve");
  span.arg("vars", static_cast<std::int64_t>(model_.num_vars()));
  span.arg("constraints",
           static_cast<std::int64_t>(model_.num_constraints()));
  if (live.id() != 0) {
    span.arg("corr", static_cast<std::int64_t>(live.id()));
  }
  {
    // New solve, new incumbent lineage: a stale snapshot from the previous
    // solve must not masquerade as progress of this one.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.reset();
  }
  BnbCallbacks callbacks;
  callbacks.session_cancel = cancel_;
  // Tee every accepted incumbent into the session's exportable snapshot
  // before forwarding to the user callback (if any).
  callbacks.on_incumbent = [this](const IncumbentEvent& event) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      IncumbentSnapshot snap;
      snap.objective = event.objective;
      if (event.values != nullptr) snap.values = *event.values;
      snap.nodes_explored = event.nodes_explored;
      snapshot_ = std::move(snap);
    }
    if (on_incumbent_) on_incumbent_(event);
  };
  callbacks.live = live.slot();
  callbacks.correlation = live.id();
  MilpSolution solution = solve_branch_and_bound(model_, params_, callbacks);
  certify_verdict(model_, params_, solution);
  if (solution.certified == CertifyStatus::kUncertified && !params_.distrust) {
    // Distrust-and-retry: one re-solve under numerically cautious settings
    // (Bland's rule from the start, tightened tolerances). The retry's
    // verdict replaces the distrusted one; its stats absorb the first
    // attempt's so the session accounts for the total work.
    SPARCS_WLOG << "verdict " << to_string(solution.status)
                << " failed exact certification (" << solution.certify_detail
                << "); re-solving with distrust settings";
    SolverParams retry_params = params_;
    retry_params.distrust = true;
    MilpSolution retried =
        solve_branch_and_bound(model_, retry_params, callbacks);
    retried.stats.merge(solution.stats);
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
  export_to_registry(solution);
  return solution;
}

void Solver::cancel() { cancel_.request_cancel(); }

// Clears the shared flag in place rather than swapping in a fresh token:
// cancel() is documented safe from any thread, and re-assigning the
// shared_ptr would both race the concurrent read and let a cancel() that
// grabbed the old token fire into a retired flag — silently dropping the
// cancellation meant for the next solve.
void Solver::reset_cancel() { cancel_.reset(); }

void Solver::set_incumbent_callback(IncumbentCallback callback) {
  on_incumbent_ = std::move(callback);
}

std::optional<IncumbentSnapshot> Solver::incumbent_snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
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
