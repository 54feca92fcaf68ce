// Traced replay: re-runs every probe of a sweep report through the public
// functions of each layer, timing every call from outside the program.
#include <cstdio>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "core/baselines.hpp"
#include "core/formulation.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/certify.hpp"
#include "milp/compiled.hpp"
#include "milp/propagation.hpp"
#include "milp/simplex.hpp"
#include "milp/solver.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {
namespace {

/// Reduce_Latency's hint rule: the fastest portfolio design that meets the
/// window's upper bound, else the fastest overall; ties keep the earlier one.
const core::PartitionedDesign* pick_hint(
    const std::vector<core::PartitionedDesign>& portfolio, double window_max) {
  const core::PartitionedDesign* fitting = nullptr;
  const core::PartitionedDesign* fastest = nullptr;
  for (const core::PartitionedDesign& design : portfolio) {
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
}

/// A stage's starting portfolio: the sweep's incumbent as the warm start
/// (phase 2 passes it on), then the two greedy first-fit placements.
std::vector<core::PartitionedDesign> stage_portfolio(
    const SweepSpec& spec, int n,
    const std::optional<core::PartitionedDesign>& sweep_best) {
  std::vector<core::PartitionedDesign> portfolio;
  if (sweep_best && sweep_best->num_partitions_used <= n) {
    portfolio.push_back(*sweep_best);
  }
  for (const core::PointPolicy policy :
       {core::PointPolicy::kMinArea, core::PointPolicy::kMinLatency}) {
    if (auto design = core::greedy_first_fit(spec.graph, spec.device, policy, n)) {
      portfolio.push_back(std::move(*design));
    }
  }
  return portfolio;
}

}  // namespace

double time_root_lp(const milp::Model& model, std::int64_t* iterations) {
  Stopwatch stopwatch;
  const milp::LpProblem lp = milp::relaxation_of(model);
  const milp::LpResult result = milp::solve_lp(lp);
  const double seconds = stopwatch.seconds();
  *iterations += result.iterations;
  return seconds;
}

ReplayTotals replay_sweep(const SweepSpec& spec,
                          const core::PartitionerReport& report) {
  ReplayTotals totals;
  Stopwatch wall;
  const milp::SolverParams params =
      milp::first_feasible_params(spec.options.budget.solver);
  std::optional<core::PartitionedDesign> sweep_best;
  std::optional<core::PartitionedDesign> stage_best;
  std::vector<core::PartitionedDesign> portfolio;
  int stage_n = -1;

  for (const core::IterationRecord& row : report.trace) {
    if (row.num_partitions != stage_n) {
      // Refine_Partitions_Bound keeps a stage's result only when it beats
      // the incumbent; the next stage starts from that incumbent.
      if (stage_best && (!sweep_best || stage_best->total_latency_ns <
                                            sweep_best->total_latency_ns)) {
        sweep_best = stage_best;
      }
      stage_best.reset();
      stage_n = row.num_partitions;
      portfolio = stage_portfolio(spec, stage_n, sweep_best);
    }
    const core::PartitionedDesign* hint = pick_hint(portfolio, row.d_max_bound);

    Stopwatch build;
    core::IlpFormulation form(spec.graph, spec.device, row.num_partitions,
                              row.d_max_bound, row.d_min_bound,
                              spec.options.budget.formulation);
    if (hint != nullptr) form.apply_hints(*hint);
    totals.build_s += build.seconds();
    const milp::Model& model = form.model();
    totals.rows += model.num_constraints();
    totals.vars += model.num_vars();

    Stopwatch compile;
    const milp::CompiledModel compiled(model, model.has_objective());
    totals.compile_s += compile.seconds();

    milp::Domains domains(compiled);
    milp::Propagator propagator(compiled, params.feasibility_tol,
                                params.max_propagation_rounds);
    milp::PropagationStats root_stats;
    Stopwatch root;
    (void)propagator.propagate(domains, {}, root_stats);
    totals.root_prop_s += root.seconds();

    Stopwatch solve;
    milp::MilpSolution solution = milp::solve_branch_and_bound(model, params);
    totals.solve_s += solve.seconds();

    const milp::SolverStats& stats = solution.stats;
    ++totals.probes;
    totals.nodes += stats.nodes_explored;
    totals.reported_nodes += row.nodes;
    totals.visits += stats.propagated_constraints;
    totals.conflicts += stats.conflicts;
    totals.pruned += stats.nodes_pruned_infeasible + stats.nodes_pruned_by_bound;
    totals.simplex_calls += stats.simplex_calls;
    totals.simplex_iterations += stats.simplex_iterations;
    if (stats.nodes_explored != row.nodes) {
      ++totals.mismatched_probes;
      std::fprintf(stderr,
                   "perfbench: replay of %s probe N=%d I=%d explored %lld "
                   "nodes, the sweep reported %lld\n",
                   spec.name.c_str(), row.num_partitions, row.iteration,
                   static_cast<long long>(stats.nodes_explored),
                   static_cast<long long>(row.nodes));
    }

    if (solution.has_solution()) {
      Stopwatch certify;
      const milp::CertifyCheck check =
          milp::certify_feasible(model, solution.values);
      totals.certify_s += certify.seconds();
      ++totals.certify_checked;
      if (!check.ok) ++totals.certify_failed;
      core::PartitionedDesign design = form.decode(solution.values);
      stage_best = design;
      portfolio.push_back(std::move(design));
    } else if (solution.status == milp::SolveStatus::kInfeasible) {
      if (solution.proof == nullptr) {
        // The sweep did not record proofs; a second search with proof
        // recording supplies one (untimed: only the check is measured).
        milp::SolverParams with_proof = params;
        with_proof.certify = milp::CertifyMode::kFull;
        solution = milp::solve_branch_and_bound(model, with_proof);
      }
      if (solution.proof != nullptr) {
        Stopwatch certify;
        const milp::CertifyCheck check =
            milp::certify_infeasible(model, *solution.proof);
        totals.certify_s += certify.seconds();
        ++totals.certify_checked;
        if (!check.ok) ++totals.certify_failed;
      }
    } else {
      ++totals.capped;
    }
  }
  totals.wall_s = wall.seconds();
  return totals;
}

}  // namespace perfbench
