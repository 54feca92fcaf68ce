#include "core/reduce_latency.hpp"

#include <algorithm>
#include <optional>

#include "core/baselines.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "milp/certify.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/span.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace sparcs::core {
namespace {

/// One FormModel() + SolveModel() probe of the window [d_min, d_max]: its
/// trace row, complete but for the iteration number, and the design found.
struct Probe {
  IterationRecord row;
  std::optional<PartitionedDesign> design;
};

/// A stage's one model and solver session: each searched probe moves the
/// window on the formulation and re-solves the same Solver. The solver
/// refers to the formulation's model, so a session is never copied.
struct StageSession {
  StageSession(const graph::TaskGraph& graph, const arch::Device& device,
               int num_partitions, double d_max, double d_min,
               const FormulationOptions& options)
      : formulation(graph, device, num_partitions, d_max, d_min, options),
        solver(formulation.model()) {}
  StageSession(const StageSession&) = delete;
  StageSession& operator=(const StageSession&) = delete;

  IlpFormulation formulation;
  milp::Solver solver;
};

/// Searches the window [d_min, d_max] on the stage's session, building the
/// session on first use.
Probe solve_window(std::optional<StageSession>& session,
                   const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions, double d_max, double d_min,
                   const ReduceLatencyParams& params,
                   const PartitionedDesign* hint) {
  Probe probe;
  IterationRecord& row = probe.row;
  row.num_partitions = num_partitions;
  row.d_max_bound = d_max;
  row.d_min_bound = d_min;
  // The probe's correlation id (the run's, or a fresh one when the run binds
  // none): the span below and the Solver::solve inside share it, which is
  // what lets a telemetry sample, a JSON log line and this trace span be
  // joined post-hoc.
  const telemetry::CorrelationScope corr;
  trace::Span span("Reduce_Latency probe");
  span.arg("N", static_cast<std::int64_t>(num_partitions));
  span.arg("d_max", d_max);
  span.arg("d_min", d_min);
  if (corr.id() != 0) span.arg("corr", static_cast<std::int64_t>(corr.id()));
  Stopwatch stopwatch;
  if (!session) {
    session.emplace(graph, device, num_partitions, d_max, d_min,
                    params.budget.formulation);
  }
  IlpFormulation& formulation = session->formulation;
  formulation.set_window(d_max, d_min);
  if (hint != nullptr) {
    formulation.apply_hints(*hint);
  } else {
    formulation.clear_hints();
  }
  // clamped_solver() caps the probe's time limit at the deadline's remaining
  // wall clock, so budget expiry surfaces from inside this solve; the
  // deadline moves, so every probe clamps afresh.
  session->solver.params() =
      milp::first_feasible_params(params.budget.clamped_solver());
  const milp::MilpSolution solution = session->solver.solve();
  row.seconds = stopwatch.seconds();
  row.nodes = solution.stats.nodes_explored;
  row.stats = solution.stats;
  span.arg("status", milp::to_string(solution.status));
  // Emitted inside the correlation scope, so a --log-json record exists for
  // every probe that joins with the matching span and telemetry entries.
  SPARCS_DLOG << "probe N=" << num_partitions << " window=[" << d_min << ", "
              << d_max << "] -> " << milp::to_string(solution.status) << " in "
              << row.seconds << " s (" << row.nodes << " nodes)";
  switch (solution.status) {
    case milp::SolveStatus::kFeasible:
    case milp::SolveStatus::kOptimal:
      row.outcome = IterationOutcome::kFeasible;
      probe.design = formulation.decode(solution.values);
      row.achieved_latency = probe.design->total_latency_ns;
      break;
    case milp::SolveStatus::kInfeasible:
      row.outcome = IterationOutcome::kInfeasible;
      break;
    case milp::SolveStatus::kUnbounded:
    case milp::SolveStatus::kLimitReached:
    case milp::SolveStatus::kNumericalFailure:
      // A limit (or an unrecoverable numerical failure) without a solution
      // is treated like an infeasible probe by the search (as a time-limited
      // CPLEX run would be), but the trace records it distinctly.
      row.outcome = IterationOutcome::kLimit;
      break;
  }
  row.certified = solution.certified;
  if (solution.certified == milp::CertifyStatus::kUncertified) {
    // The verdict survived neither the exact check nor the distrust retry:
    // neither "a design exists" nor "none exists below this bound" can be
    // trusted, so the probe carries no design and moves no window bound.
    row.outcome = IterationOutcome::kUncertified;
    row.achieved_latency = 0.0;
    probe.design.reset();
    SPARCS_WLOG << "probe N=" << num_partitions << " window=[" << d_min
                << ", " << d_max << "] verdict uncertified ("
                << solution.certify_detail << "); treating as inconclusive";
  }
  return probe;
}

/// A probe row of the window [d_min, target] that no search settled.
Probe unsearched_probe(int num_partitions, double target, double d_min,
                       VerdictSource source) {
  Probe probe;
  probe.row.num_partitions = num_partitions;
  probe.row.d_max_bound = target;
  probe.row.d_min_bound = d_min;
  probe.row.verdict_source = source;
  return probe;
}

/// Refutes the window [d_min, target] with LB(N) instead of a search. Returns
/// nullopt when the target reaches LB(N), or when under --certify=full the
/// relaxation's infeasibility certificate does not verify: the window is
/// then searched as usual.
std::optional<Probe> refute_by_bound(const graph::TaskGraph& graph,
                                     const arch::Device& device,
                                     int num_partitions, double target,
                                     double d_min,
                                     const ReduceLatencyParams& params) {
  const double bound = params.latency_bound.ns;
  if (!(target < bound - bound_slack(bound))) return std::nullopt;
  Probe probe = unsearched_probe(num_partitions, target, d_min,
                                 VerdictSource::kLatencyBound);
  if (params.budget.solver.certify == milp::CertifyMode::kFull) {
    Stopwatch stopwatch;
    const milp::MilpSolution proof = certify_latency_bound(
        graph, device, num_partitions, target, params.budget.clamped_solver());
    if (proof.status != milp::SolveStatus::kInfeasible ||
        proof.certified != milp::CertifyStatus::kCertified) {
      SPARCS_WLOG << "probe N=" << num_partitions << " window=[" << d_min
                  << ", " << target << "] below LB(N)=" << bound
                  << " but the relaxation's certificate did not verify ("
                  << milp::to_string(proof.status) << ", "
                  << milp::to_string(proof.certified)
                  << "); searching the window";
      return std::nullopt;
    }
    probe.row.seconds = stopwatch.seconds();
    probe.row.nodes = proof.stats.nodes_explored;
    probe.row.stats = proof.stats;
    probe.row.certified = proof.certified;
  }
  SPARCS_DLOG << "probe N=" << num_partitions << " window=[" << d_min << ", "
              << target << "] -> infeasible: below LB(N)=" << bound;
  return probe;
}

/// Answers the window [d_min, target] with `design`, the fastest warm start
/// that fits the target, when it costs at most LB(N): no design with at most
/// N partitions is faster, so a search could find nothing better. Returns
/// nullopt when it does not, or when under --certify the design fails the
/// exact check against the stage's model (built here on first use): the
/// window is then searched as usual.
std::optional<Probe> answer_by_bound(std::optional<StageSession>& session,
                                     const graph::TaskGraph& graph,
                                     const arch::Device& device,
                                     int num_partitions, double target,
                                     double d_min,
                                     const ReduceLatencyParams& params,
                                     const PartitionedDesign* design) {
  const double bound = params.latency_bound.ns;
  if (design == nullptr ||
      !(design->total_latency_ns <= bound + bound_slack(bound)) ||
      !(design->total_latency_ns <= target) ||
      !(design->total_latency_ns >= d_min)) {
    return std::nullopt;
  }
  Probe probe = unsearched_probe(num_partitions, target, d_min,
                                 VerdictSource::kWarmStart);
  if (params.budget.solver.certify != milp::CertifyMode::kOff) {
    Stopwatch stopwatch;
    if (!session) {
      session.emplace(graph, device, num_partitions, target, d_min,
                      params.budget.formulation);
    }
    IlpFormulation& formulation = session->formulation;
    formulation.set_window(target, d_min);
    const milp::CertifyCheck check = milp::certify_feasible(
        formulation.model(), formulation.encode(*design));
    if (!check.ok) {
      SPARCS_WLOG << "probe N=" << num_partitions << " window=[" << d_min
                  << ", " << target << "]: the warm start at LB(N)=" << bound
                  << " failed the exact check (" << check.detail
                  << "); searching the window";
      return std::nullopt;
    }
    probe.row.seconds = stopwatch.seconds();
    probe.row.stats.certificates_checked = 1;
    probe.row.certified = milp::CertifyStatus::kCertified;
  }
  // The design as the stage's own model would decode it: N partitions
  // allocated.
  probe.design = *design;
  probe.design->num_partitions_allocated = num_partitions;
  recompute_latency(graph, device, *probe.design);
  probe.row.outcome = IterationOutcome::kFeasible;
  probe.row.achieved_latency = probe.design->total_latency_ns;
  SPARCS_DLOG << "probe N=" << num_partitions << " window=[" << d_min << ", "
              << target << "] -> feasible: a warm start meets LB(N)="
              << bound;
  return probe;
}

}  // namespace

std::string to_string(StageStatus status) {
  switch (status) {
    case StageStatus::kProbed:
      return "probed";
    case StageStatus::kCutShort:
      return "cut-short";
    case StageStatus::kSkipped:
      return "skipped";
    case StageStatus::kDegraded:
      return "degraded";
  }
  return "unknown";
}

StageStatus reduce_latency(const graph::TaskGraph& graph,
                           const arch::Device& device, int num_partitions,
                           BisectionWindow& window,
                           const ReduceLatencyParams& params, Trace& trace) {
  SPARCS_REQUIRE(params.budget.delta > 0.0,
                 "latency tolerance delta must be > 0");
  trace::Span span("Reduce_Latency");
  span.arg("N", static_cast<std::int64_t>(num_partitions));
  std::optional<PartitionedDesign>& incumbent = window.incumbent;

  // Numbering continues from the window's count, so a restored window's
  // trace rows and solve total line up with an uninterrupted run's.
  auto record = [&](Probe& probe) {
    probe.row.iteration = ++window.iteration;
    trace.push_back(probe.row);
  };
  // A search the deadline or the cancel token stopped decided nothing: it is
  // not recorded and moves no bound, so the window (and a checkpoint of it)
  // stays where the last settled probe left it.
  auto interrupted = [&](const Probe& probe) {
    return probe.row.outcome == IterationOutcome::kLimit &&
           params.budget.interrupted();
  };

  // Warm-start portfolio (the analog of seeding CPLEX with MIP starts): the
  // caller's design plus greedy first-fit placements with min-area and
  // min-latency points. The two greedy shapes are structurally different
  // (few dense-packed partitions vs. level-style fast partitions), which
  // lets the DFS reach whichever regime the current latency window favors
  // without a global reshuffle. When LB(N) is a MILP optimum, its levels
  // packed by level_fill often give a design at LB(N) itself; when neither
  // greedy fits N, an unbounded level fill orders the ready tasks by tail
  // and often still does.
  std::vector<PartitionedDesign> portfolio;
  if (params.warm_start.has_value() &&
      params.warm_start->num_partitions_used <= num_partitions) {
    portfolio.push_back(*params.warm_start);
  }
  bool greedy_fits = false;
  for (const PointPolicy policy :
       {PointPolicy::kMinArea, PointPolicy::kMinLatency}) {
    if (auto design =
            greedy_first_fit(graph, device, policy, num_partitions)) {
      portfolio.push_back(std::move(*design));
      greedy_fits = true;
    }
  }
  const LatencyBound& bound = params.latency_bound;
  if (bound.source == LatencyBoundSource::kMilp) {
    if (auto design = level_fill(graph, device, num_partitions, bound.levels)) {
      portfolio.push_back(std::move(*design));
    }
  }
  if (!greedy_fits) {
    if (auto design = level_fill(graph, device, num_partitions, {})) {
      portfolio.push_back(std::move(*design));
    }
  }
  // The fastest portfolio design that satisfies a window's latency bound,
  // or null.
  auto fastest = [&](double window_max) {
    const PartitionedDesign* best = nullptr;
    for (const PartitionedDesign& design : portfolio) {
      if (design.total_latency_ns <= window_max + 1e-9 &&
          (best == nullptr ||
           design.total_latency_ns < best->total_latency_ns)) {
        best = &design;
      }
    }
    return best;
  };

  // One probe of [d_min, target], settled one of three ways: refuted by
  // LB(N) when the target lies below it; answered by the fastest fitting
  // warm start when that costs LB(N); else searched on the stage's session,
  // which the first searched (or certified) probe builds, hinted by that
  // warm start or, when none fits, the fastest one (pure guidance).
  std::optional<StageSession> session;
  auto probe_window = [&](double target) {
    if (std::optional<Probe> refuted = refute_by_bound(
            graph, device, num_partitions, target, window.d_min, params)) {
      return std::move(*refuted);
    }
    const PartitionedDesign* fitting = fastest(target);
    if (std::optional<Probe> answered =
            answer_by_bound(session, graph, device, num_partitions, target,
                            window.d_min, params, fitting)) {
      return std::move(*answered);
    }
    const PartitionedDesign* hint =
        fitting != nullptr ? fitting : fastest(milp::kInfinity);
    return solve_window(session, graph, device, num_partitions, target,
                        window.d_min, params, hint);
  };

  if (params.budget.interrupted()) {
    // Deadline already gone: report a cut-short refinement rather than
    // launching a solve that cannot finish.
    return StageStatus::kCutShort;
  }

  if (!incumbent) {
    Probe probe = probe_window(window.d_max);
    if (interrupted(probe)) return StageStatus::kCutShort;
    record(probe);
    if (probe.row.outcome != IterationOutcome::kFeasible) {
      // Da = 0: this partition bound yields no solution.
      if (params.budget.interrupted()) return StageStatus::kCutShort;
      return probe.row.outcome == IterationOutcome::kUncertified
                 ? StageStatus::kDegraded
                 : StageStatus::kProbed;
    }
    incumbent = std::move(probe.design);
    if (params.on_progress) params.on_progress(window);
  } else {
    SPARCS_ILOG << "Reduce_Latency(N=" << num_partitions
                << ") resumed from checkpoint: window=[" << window.d_min
                << ", " << window.d_max << "], Da="
                << incumbent->total_latency_ns << " after "
                << window.iteration << " solves";
  }
  portfolio.push_back(*incumbent);

  // Binary subdivision of the latency window. A cancellation or an expired
  // deadline unwinds here directly instead of burning a (fast but pointless)
  // probe per halving; the incumbent stays valid as the anytime result.
  StageStatus status = StageStatus::kProbed;
  while (window.d_max - window.d_min >= params.budget.delta &&
         incumbent->total_latency_ns - window.d_min >= params.budget.delta) {
    if (params.budget.interrupted()) {
      status = StageStatus::kCutShort;
      break;
    }
    double target = (window.d_max + window.d_min) / 2.0;
    // The probe must ask for something strictly better than the incumbent.
    while (target >= incumbent->total_latency_ns) {
      target = (target + window.d_min) / 2.0;
    }
    // Warm-start from the portfolio (which includes the running incumbent):
    // the next solution is often a local perturbation of one of its shapes.
    Probe probe = probe_window(target);
    if (interrupted(probe)) {
      status = StageStatus::kCutShort;
      break;
    }
    record(probe);
    if (probe.row.outcome == IterationOutcome::kUncertified) {
      // Conservative stop: raising d_min on a distrusted "infeasible" could
      // fence off the true optimum, and a distrusted "feasible" design must
      // not become the reported latency. The incumbent (last probe that DID
      // certify) stands; the window simply stops refining.
      status = StageStatus::kDegraded;
      break;
    }
    if (probe.row.outcome == IterationOutcome::kFeasible) {
      incumbent = std::move(probe.design);
      window.d_max = incumbent->total_latency_ns;
      portfolio.push_back(*incumbent);
    } else {
      window.d_min = target;
    }
    if (params.on_progress) params.on_progress(window);
  }
  SPARCS_ILOG << "Reduce_Latency(N=" << num_partitions
              << ") achieved Da=" << incumbent->total_latency_ns << " ns in "
              << window.iteration << " solves";
  return status;
}

}  // namespace sparcs::core
