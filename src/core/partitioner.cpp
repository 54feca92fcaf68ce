#include "core/partitioner.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "core/deadline.hpp"
#include "core/formulation.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"

namespace sparcs::core {

TemporalPartitioner::TemporalPartitioner(const graph::TaskGraph& graph,
                                         const arch::Device& device,
                                         PartitionerOptions options)
    : graph_(graph), device_(device), options_(std::move(options)) {
  graph_.validate();
  device_.validate();
  SPARCS_REQUIRE(options_.alpha >= 0, "alpha must be non-negative");
  SPARCS_REQUIRE(options_.gamma >= 0, "gamma must be non-negative");
}

PartitionerReport TemporalPartitioner::run() const {
  const int n_min_lower = min_area_partitions(graph_, device_);
  double delta = options_.budget.delta;
  if (delta <= 0.0) {
    const int n_start = n_min_lower + options_.alpha;
    delta = std::max(1e-9, options_.delta_fraction *
                               max_latency(graph_, device_, n_start));
  }

  RefinePartitionsParams params;
  params.alpha = options_.alpha;
  params.gamma = options_.gamma;
  params.budget = options_.budget;
  params.budget.delta = delta;
  params.max_partitions = options_.max_partitions;

  // Checkpoint/resume: the fingerprint binds the snapshot to everything that
  // shapes the search trajectory (graph, device, alpha/gamma/delta/cap,
  // formulation) — a resume against different inputs is rejected and the run
  // proceeds fresh, never mixing two searches.
  std::unique_ptr<CheckpointWriter> ckpt_writer;
  std::optional<SweepCheckpoint> restored;
  std::string resume_error;
  if (!options_.checkpoint.path.empty()) {
    const std::uint64_t fingerprint = checkpoint_fingerprint(
        graph_, device_, options_.alpha, options_.gamma, delta,
        options_.max_partitions, params.budget.formulation);
    if (options_.checkpoint.resume) {
      CheckpointLoadResult loaded = load_checkpoint(
          options_.checkpoint.path, fingerprint, graph_, device_);
      switch (loaded.status) {
        case CheckpointLoadStatus::kOk:
          restored = std::move(loaded.checkpoint);
          SPARCS_ILOG << "resuming sweep from checkpoint "
                      << options_.checkpoint.path;
          break;
        case CheckpointLoadStatus::kMissing:
          // Nothing to resume (first run, or the crash happened before the
          // first snapshot): a fresh run is exactly what --resume wants.
          SPARCS_ILOG << "no checkpoint to resume at "
                      << options_.checkpoint.path << "; starting fresh";
          break;
        default:
          resume_error = loaded.error;
          SPARCS_WLOG << "checkpoint " << options_.checkpoint.path
                      << " rejected (" << to_string(loaded.status)
                      << "): " << loaded.error << "; starting fresh";
          break;
      }
    }
    ckpt_writer = std::make_unique<CheckpointWriter>(
        options_.checkpoint.path, options_.checkpoint.min_interval_sec,
        fingerprint);
    if (options_.checkpoint.observer) {
      ckpt_writer->set_observer(options_.checkpoint.observer);
    }
    params.checkpoint = ckpt_writer.get();
    if (restored.has_value()) params.resume = &*restored;
  }

  // Deadline enforcement is layered: every solve clamps its time limit to
  // the remaining budget (cooperative), and the watchdog force-cancels the
  // run through the token if a solve still overruns by the grace margin.
  if (params.budget.deadline.valid() && !params.budget.solver.cancel.valid()) {
    params.budget.solver.cancel = milp::CancelToken::create();
  }
  DeadlineWatchdog watchdog(
      params.budget.deadline,
      DeadlineWatchdog::default_grace_sec(params.budget.deadline),
      params.budget.solver.cancel);

  PartitionerReport report = refine_partitions_bound(graph_, device_, params);
  report.n_min_lower = n_min_lower;
  report.n_min_upper = max_area_partitions(graph_, device_);
  report.delta_used = delta;
  report.resumed = restored.has_value();
  report.resume_error = std::move(resume_error);
  report.watchdog_fired = watchdog.fired();

  if (report.best) {
    const DesignCheck check = validate_design(graph_, device_, *report.best);
    SPARCS_CHECK(check.ok, "partitioner returned an invalid design: " +
                               check.violation);
  }
  return report;
}

OptimalResult solve_optimal(const graph::TaskGraph& graph,
                            const arch::Device& device, int num_partitions,
                            milp::SolverParams solver_params,
                            FormulationOptions formulation) {
  Stopwatch stopwatch;
  IlpFormulation form(graph, device, num_partitions,
                      max_latency(graph, device, num_partitions),
                      min_latency(graph, device, num_partitions),
                      formulation);
  form.set_latency_objective();
  // Optimality proofs need the LP relaxation bound (bound propagation alone
  // cannot refute near-ties), and a 1 ns incumbent-improvement step: all
  // workload latencies are integral nanoseconds, so requiring the next
  // incumbent to be >= 1 ns better prunes the tie plateau without losing
  // the true optimum.
  solver_params = milp::optimality_params(std::move(solver_params));
  solver_params.objective_improvement =
      std::max(solver_params.objective_improvement, 1.0);
  milp::Solver solver(form.model(), solver_params);
  const milp::MilpSolution solution = solver.solve();
  OptimalResult result;
  result.status = solution.status;
  result.seconds = stopwatch.seconds();
  result.nodes = solution.stats.nodes_explored;
  result.solver_stats = solution.stats;
  if (solution.has_solution()) {
    result.best = form.decode(solution.values);
    result.latency_ns = result.best->total_latency_ns;
  }
  return result;
}

OptimalResult solve_optimal_over_range(const graph::TaskGraph& graph,
                                       const arch::Device& device, int alpha,
                                       int gamma,
                                       milp::SolverParams solver_params,
                                       FormulationOptions formulation) {
  const int n_lo = min_area_partitions(graph, device) + alpha;
  const int n_hi = max_area_partitions(graph, device) + gamma;
  OptimalResult best;
  Stopwatch stopwatch;
  for (int n = n_lo; n <= n_hi; ++n) {
    OptimalResult r =
        solve_optimal(graph, device, n, solver_params, formulation);
    best.nodes += r.nodes;
    best.solver_stats.merge(r.solver_stats);
    if (r.best && (!best.best || r.latency_ns < best.latency_ns)) {
      best.best = std::move(r.best);
      best.latency_ns = r.latency_ns;
      best.status = r.status;
    } else if (!best.best) {
      best.status = r.status;
    }
  }
  best.seconds = stopwatch.seconds();
  return best;
}

}  // namespace sparcs::core
