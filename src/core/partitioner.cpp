#include "core/partitioner.hpp"

#include <algorithm>
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
