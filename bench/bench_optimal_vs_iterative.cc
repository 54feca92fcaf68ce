// Section 4 claim: "in none of these experiments could the optimal solution
// process get even a single feasible solution in the same run time as the
// iterative solution process." We give the optimal-ILP mode the same wall
// budget the iterative procedure needed end-to-end and report whether it
// produced anything. The claim is judged on an LP-bounded session, the
// paper's LP-based solver; the optimal reference, which races
// propagation-only against LP-bounded rounds, is reported beside it.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "arch/device.hpp"
#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "core/partitioner.hpp"
#include "milp/solver.hpp"
#include "workloads/dct.hpp"

namespace {

using namespace sparcs;

void BM_IterativeDct(benchmark::State& state) {
  sparcs::bench::DctExperiment e{
      .label = "iterative reference",
      .rmax = 576,
      .ct_ns = 100,
      .delta = 400,
      .alpha = 0,
      .per_solve_time_limit_sec = 3.0,
  };
  core::PartitionerReport report;
  double seconds = 0.0;
  for (auto _ : state) {
    report = sparcs::bench::run_dct_experiment(e);
    seconds = report.seconds;
  }
  sparcs::bench::set_report_counters(state, report);
  std::printf("\niterative: Da=%g ns after %.1f s (%d solves)\n",
              report.achieved_latency, seconds, report.ilp_solves);
}
BENCHMARK(BM_IterativeDct)->Unit(benchmark::kSecond)->Iterations(1);

void BM_OptimalDctSameBudget(benchmark::State& state) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("dct_dev", 576, 4096, 100);
  // Budget: what the iterative run took (measured fresh to stay fair).
  const core::PartitionerReport iterative =
      sparcs::bench::run_dct_experiment({.label = "budget probe",
                                         .rmax = 576,
                                         .ct_ns = 100,
                                         .delta = 400,
                                         .alpha = 0,
                                         .per_solve_time_limit_sec = 3.0});
  milp::SolverParams params;
  params.time_limit_sec = std::max(1.0, iterative.seconds);
  // The paper's setting: an LP-based solver in optimality mode, modelled by
  // an LP-bounded session on the N=6 model.
  const int n = 6;
  core::IlpFormulation form(g, dev, n, core::max_latency(g, dev, n),
                            core::min_latency(g, dev, n));
  form.set_latency_objective();
  milp::SolverParams lp_params = milp::optimality_params(params);
  lp_params.objective_improvement = 1.0;
  milp::MilpSolution lp_bounded;
  // The optimal reference (solve_optimal) beside it.
  core::OptimalResult optimal;
  for (auto _ : state) {
    lp_bounded = milp::Solver(form.model(), lp_params).solve();
    optimal = core::solve_optimal(g, dev, n, params);
  }
  state.counters["optimal_found"] = lp_bounded.has_solution() ? 1 : 0;
  state.counters["nodes"] =
      static_cast<double>(lp_bounded.stats.nodes_explored);
  state.counters["reference_found"] = optimal.best.has_value() ? 1 : 0;
  state.counters["reference_nodes"] = static_cast<double>(optimal.nodes);
  std::printf(
      "LP-bounded optimality mode, %.1f s budget at N=%d: %s (nodes=%lld)\n"
      "optimal reference (solve_optimal), same budget: %s, %g ns "
      "(nodes=%lld)\n"
      "iterative in the same time: Da=%g ns\n"
      "%s\n",
      params.time_limit_sec, n,
      lp_bounded.has_solution() ? "found a solution" : "NO feasible solution",
      static_cast<long long>(lp_bounded.stats.nodes_explored),
      milp::to_string(optimal.status).c_str(), optimal.latency_ns,
      static_cast<long long>(optimal.nodes), iterative.achieved_latency,
      !lp_bounded.has_solution()
          ? "reproduces the paper's claim: optimality mode yields nothing "
            "in the iterative procedure's runtime"
          : "deviation: optimal mode found a solution within the budget");
}
BENCHMARK(BM_OptimalDctSameBudget)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
