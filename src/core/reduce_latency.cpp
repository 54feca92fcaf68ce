#include "core/reduce_latency.hpp"

#include "core/baselines.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/span.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace sparcs::core {
namespace {

/// One FormModel() + SolveModel() probe of the window [d_min, d_max].
struct Probe {
  IterationOutcome outcome = IterationOutcome::kInfeasible;
  std::optional<PartitionedDesign> design;
  double seconds = 0.0;
  std::int64_t nodes = 0;
  milp::SolverStats stats;
  milp::CertifyStatus certified = milp::CertifyStatus::kNotRequested;
};

Probe solve_window(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions, double d_max, double d_min,
                   const ReduceLatencyParams& params,
                   const PartitionedDesign* hint) {
  Probe probe;
  // Fresh correlation id scoped over the probe: the span below and the
  // Solver::solve inside share it, which is what lets a telemetry sample, a
  // JSON log line and this trace span be joined post-hoc.
  const std::uint64_t corr =
      telemetry::active() ? telemetry::next_correlation_id() : 0;
  telemetry::CorrelationScope corr_scope(corr);
  trace::Span span("Reduce_Latency probe");
  span.arg("N", static_cast<std::int64_t>(num_partitions));
  span.arg("d_max", d_max);
  span.arg("d_min", d_min);
  if (corr != 0) span.arg("corr", static_cast<std::int64_t>(corr));
  Stopwatch stopwatch;
  IlpFormulation formulation(graph, device, num_partitions, d_max, d_min,
                             params.budget.formulation);
  if (hint != nullptr) formulation.apply_hints(*hint);
  // clamped_solver() caps the probe's time limit at the deadline's remaining
  // wall clock, so budget expiry surfaces from inside this solve.
  milp::Solver solver(formulation.model(),
                      milp::first_feasible_params(params.budget.clamped_solver()));
  const milp::MilpSolution solution = solver.solve();
  probe.seconds = stopwatch.seconds();
  probe.nodes = solution.stats.nodes_explored;
  probe.stats = solution.stats;
  span.arg("status", milp::to_string(solution.status));
  // Emitted inside the correlation scope, so a --log-json record exists for
  // every probe that joins with the matching span and telemetry entries.
  SPARCS_DLOG << "probe N=" << num_partitions << " window=[" << d_min << ", "
              << d_max << "] -> " << milp::to_string(solution.status) << " in "
              << probe.seconds << " s (" << probe.nodes << " nodes)";
  switch (solution.status) {
    case milp::SolveStatus::kFeasible:
    case milp::SolveStatus::kOptimal:
      probe.outcome = IterationOutcome::kFeasible;
      probe.design = formulation.decode(solution.values);
      break;
    case milp::SolveStatus::kInfeasible:
      probe.outcome = IterationOutcome::kInfeasible;
      break;
    case milp::SolveStatus::kUnbounded:
    case milp::SolveStatus::kLimitReached:
    case milp::SolveStatus::kNumericalFailure:
      // A limit (or an unrecoverable numerical failure) without a solution
      // is treated like an infeasible probe by the search (as a time-limited
      // CPLEX run would be), but the trace records it distinctly.
      probe.outcome = IterationOutcome::kLimit;
      break;
  }
  probe.certified = solution.certified;
  if (solution.certified == milp::CertifyStatus::kUncertified) {
    // The verdict survived neither the exact check nor the distrust retry:
    // neither "a design exists" nor "none exists below this bound" can be
    // trusted, so the probe carries no design and moves no window bound.
    probe.outcome = IterationOutcome::kUncertified;
    probe.design.reset();
    SPARCS_WLOG << "probe N=" << num_partitions << " window=[" << d_min
                << ", " << d_max << "] verdict uncertified ("
                << solution.certify_detail << "); treating as inconclusive";
  }
  return probe;
}

}  // namespace

ReduceLatencyResult reduce_latency(const graph::TaskGraph& graph,
                                   const arch::Device& device,
                                   int num_partitions, double d_max,
                                   double d_min,
                                   const ReduceLatencyParams& params,
                                   Trace& trace) {
  SPARCS_REQUIRE(params.budget.delta > 0.0,
                 "latency tolerance delta must be > 0");
  trace::Span span("Reduce_Latency");
  span.arg("N", static_cast<std::int64_t>(num_partitions));
  ReduceLatencyResult result;
  // A resumed refinement continues the interrupted run's numbering: the
  // solves it already recorded count toward this stage's total, so a resumed
  // sweep reports the same per-stage solve counts as an uninterrupted one.
  int iteration = params.resume ? params.resume->iteration : 0;
  if (params.resume) result.ilp_solves = params.resume->iteration;

  auto record = [&](double ub, double lb, const Probe& probe) {
    IterationRecord row;
    row.num_partitions = num_partitions;
    row.iteration = ++iteration;
    row.d_max_bound = ub;
    row.d_min_bound = lb;
    row.outcome = probe.outcome;
    row.achieved_latency =
        probe.design ? probe.design->total_latency_ns : 0.0;
    row.seconds = probe.seconds;
    row.nodes = probe.nodes;
    row.stats = probe.stats;
    row.certified = probe.certified;
    trace.push_back(row);
    result.solver_stats.merge(probe.stats);
    ++result.ilp_solves;
  };

  // Warm-start portfolio (the analog of seeding CPLEX with MIP starts): the
  // caller's design plus greedy first-fit placements with min-area and
  // min-latency points. The two greedy shapes are structurally different
  // (few dense-packed partitions vs. level-style fast partitions), which
  // lets the DFS reach whichever regime the current latency window favors
  // without a global reshuffle.
  std::vector<PartitionedDesign> portfolio;
  if (params.warm_start.has_value() &&
      params.warm_start->num_partitions_used <= num_partitions) {
    portfolio.push_back(*params.warm_start);
  }
  for (const PointPolicy policy :
       {PointPolicy::kMinArea, PointPolicy::kMinLatency}) {
    if (auto design =
            greedy_first_fit(graph, device, policy, num_partitions)) {
      portfolio.push_back(std::move(*design));
    }
  }
  // Best hint for a window: the fastest portfolio design that satisfies the
  // latency bound, else the fastest overall (pure guidance).
  auto pick_hint = [&](double window_max) -> const PartitionedDesign* {
    const PartitionedDesign* fitting = nullptr;
    const PartitionedDesign* fastest = nullptr;
    for (const PartitionedDesign& design : portfolio) {
      if (fastest == nullptr ||
          design.total_latency_ns < fastest->total_latency_ns) {
        fastest = &design;
      }
      if (design.total_latency_ns <= window_max + 1e-9 &&
          (fitting == nullptr ||
           design.total_latency_ns < fitting->total_latency_ns)) {
        fitting = &design;
      }
    }
    return fitting != nullptr ? fitting : fastest;
  };

  // Everything a checkpoint needs to re-enter the loop below, published
  // after every probe once an incumbent exists.
  auto notify_progress = [&] {
    if (params.on_progress && result.best) {
      params.on_progress(d_max, d_min, iteration, *result.best);
    }
  };

  if (params.budget.interrupted()) {
    // Deadline already gone: report a cut-short, empty refinement rather
    // than launching a solve that cannot finish.
    result.cut_short = true;
    return result;
  }

  if (params.resume) {
    // Re-enter the interrupted refinement: the initial probe already ran in
    // the previous process, its incumbent and window carry over verbatim.
    d_max = params.resume->d_max;
    d_min = params.resume->d_min;
    result.best = params.resume->incumbent;
    result.achieved_latency = result.best->total_latency_ns;
    portfolio.push_back(*result.best);
    SPARCS_ILOG << "Reduce_Latency(N=" << num_partitions
                << ") resumed from checkpoint: window=[" << d_min << ", "
                << d_max << "], Da=" << result.achieved_latency << " after "
                << iteration << " solves";
  } else {
    Probe probe = solve_window(graph, device, num_partitions, d_max, d_min,
                               params, pick_hint(d_max));
    record(d_max, d_min, probe);
    if (probe.outcome != IterationOutcome::kFeasible) {
      result.cut_short = params.budget.interrupted();
      result.degraded = probe.outcome == IterationOutcome::kUncertified;
      return result;  // Da = 0: this partition bound yields no solution
    }
    result.best = std::move(probe.design);
    result.achieved_latency = result.best->total_latency_ns;
    portfolio.push_back(*result.best);
    notify_progress();
  }

  // Binary subdivision of the latency window. A cancellation or an expired
  // deadline unwinds here directly instead of burning a (fast but pointless)
  // probe per halving; `best` stays valid as the anytime incumbent.
  while (d_max - d_min >= params.budget.delta &&
         result.achieved_latency - d_min >= params.budget.delta &&
         !(result.cut_short = params.budget.interrupted())) {
    double target = (d_max + d_min) / 2.0;
    // The probe must ask for something strictly better than the incumbent.
    while (target >= result.achieved_latency) {
      target = (target + d_min) / 2.0;
    }
    // Warm-start from the portfolio (which includes the running incumbent):
    // the next solution is often a local perturbation of one of its shapes.
    Probe probe = solve_window(graph, device, num_partitions, target, d_min,
                               params, pick_hint(target));
    record(target, d_min, probe);
    if (probe.outcome == IterationOutcome::kUncertified) {
      // Conservative stop: raising d_min on a distrusted "infeasible" could
      // fence off the true optimum, and a distrusted "feasible" design must
      // not become the reported latency. The incumbent (last probe that DID
      // certify) stands; the window simply stops refining.
      result.degraded = true;
      break;
    }
    if (probe.outcome == IterationOutcome::kFeasible) {
      result.best = std::move(probe.design);
      result.achieved_latency = result.best->total_latency_ns;
      d_max = result.achieved_latency;
      portfolio.push_back(*result.best);
    } else {
      d_min = target;
    }
    notify_progress();
  }
  SPARCS_ILOG << "Reduce_Latency(N=" << num_partitions
              << ") achieved Da=" << result.achieved_latency << " ns in "
              << result.ilp_solves << " solves";
  return result;
}

}  // namespace sparcs::core
