#include "core/partitioner.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/formulation.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
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

namespace {

// The optimal reference races a propagation-only search against an
// LP-bounded one on one session (DESIGN §9, "The optimal reference's
// race"). A node LP costs 25-130 propagation-only nodes and usually saves
// fewer, but on memory-tight models only the LP bound closes the tree, so
// neither search runs alone. The rounds alternate, propagation-only first;
// the budget doubles after each pair, and an LP-bounded round gets one node
// per kLpNodeCharge nodes of it.
constexpr std::int64_t kFirstRoundNodes = 64;
constexpr std::int64_t kLpNodeCharge = 64;

}  // namespace

OptimalResult solve_optimal(const graph::TaskGraph& graph,
                            const arch::Device& device, int num_partitions,
                            milp::SolverParams solver_params,
                            FormulationOptions formulation) {
  Stopwatch stopwatch;
  const double d_min = min_latency(graph, device, num_partitions);
  IlpFormulation form(graph, device, num_partitions,
                      max_latency(graph, device, num_partitions), d_min,
                      formulation);
  form.set_latency_objective();
  // The caller's limits bound the whole race; each round gets what is left.
  const std::int64_t node_limit = solver_params.node_limit;
  const double time_limit = solver_params.time_limit_sec;
  // All workload latencies are integral nanoseconds, so requiring the next
  // incumbent to be >= 1 ns better prunes the tie plateau without losing
  // the true optimum; the window below an incumbent moves by the same step.
  solver_params.stop_at_first_feasible = false;
  solver_params.objective_improvement =
      std::max(solver_params.objective_improvement, 1.0);
  // Every round runs on one worker. A round its budget stops hands on the
  // incumbent it reached, and with more workers that depends on thread
  // timing; designs that leave a partition empty tie on the objective with
  // different latencies, so the reported design would too.
  solver_params.num_threads = 1;
  milp::Solver solver(form.model(), std::move(solver_params));

  OptimalResult result;
  // The incumbent's objective, sum_p d_p + C_T * eta. It can exceed the
  // decoded design's latency (a design that leaves a partition empty still
  // pays for eta), so the window moves below the objective, not below
  // latency_ns.
  double best_objective = 0.0;
  std::int64_t budget = kFirstRoundNodes;
  for (bool lp_round = false;; lp_round = !lp_round) {
    const std::int64_t round_nodes =
        lp_round ? std::max<std::int64_t>(1, budget / kLpNodeCharge) : budget;
    const std::int64_t nodes_left = node_limit - result.nodes;
    milp::SolverParams& params = solver.params();
    params.use_lp_bounding = lp_round;
    params.node_limit = std::min(round_nodes, nodes_left);
    params.time_limit_sec = time_limit - stopwatch.seconds();
    const milp::MilpSolution round = solver.solve();
    result.nodes += round.stats.nodes_explored;
    result.solver_stats.merge(round.stats);
    if (round.has_solution()) {
      // The window keeps every round's design below the one before.
      result.best = form.decode(round.values);
      result.latency_ns = result.best->total_latency_ns;
      best_objective = round.objective;
    }
    if (round.status == milp::SolveStatus::kOptimal ||
        round.status == milp::SolveStatus::kInfeasible) {
      // The round exhausted its window: nothing beats the incumbent.
      result.status = result.best ? milp::SolveStatus::kOptimal
                                  : milp::SolveStatus::kInfeasible;
      break;
    }
    // Only a round that its own budget stopped hands on to the next one.
    // The caller's limits, the cancel token or a search that dropped
    // subtrees end the race with what it has.
    const bool budget_stop =
        (round.status == milp::SolveStatus::kFeasible ||
         round.status == milp::SolveStatus::kLimitReached) &&
        round.stats.nodes_explored >= round_nodes && round_nodes < nodes_left &&
        !params.cancel.cancelled() && stopwatch.seconds() < time_limit;
    if (!budget_stop) {
      result.status = result.best ? milp::SolveStatus::kFeasible : round.status;
      break;
    }
    if (round.has_solution()) {
      if (best_objective - 1.0 < d_min) {
        // MinLatency(N) is the window's lower end: no design lies below.
        result.status = milp::SolveStatus::kOptimal;
        break;
      }
      form.set_window(best_objective - 1.0, d_min);
    }
    if (lp_round && budget <= std::numeric_limits<std::int64_t>::max() / 2) {
      budget *= 2;
    }
  }
  result.seconds = stopwatch.seconds();
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
