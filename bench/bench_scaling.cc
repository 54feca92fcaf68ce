// Scaling study: time-to-first-feasible-solution of the iterative machinery
// vs. task count on random layered DAGs, and the node cost of proving
// optimality on the sizes where that is still tractable (the paper's "up to
// 10 tasks" observation).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "arch/device.hpp"
#include "core/baselines.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "core/partitioner.hpp"
#include "milp/solver.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace sparcs;

graph::TaskGraph make_graph(int tasks) {
  workloads::RandomGraphOptions options;
  options.num_tasks = tasks;
  options.num_layers = std::max(2, tasks / 4);
  options.num_design_points = 3;
  options.seed = 1234 + static_cast<std::uint64_t>(tasks);
  return workloads::random_task_graph(options);
}

void first_feasible_scaling(benchmark::State& state, bool warm_start) {
  const int tasks = static_cast<int>(state.range(0));
  const graph::TaskGraph g = make_graph(tasks);
  const arch::Device dev = arch::custom("d", 400, 4096, 100);
  const int n = core::min_area_partitions(g, dev) + 1;
  milp::MilpSolution solution;
  for (auto _ : state) {
    core::IlpFormulation form(g, dev, n, core::max_latency(g, dev, n),
                              core::min_latency(g, dev, n));
    if (warm_start) {
      if (const auto greedy = core::greedy_first_fit(
              g, dev, core::PointPolicy::kMinArea, n)) {
        form.apply_hints(*greedy);
      }
    }
    milp::SolverParams params;
    params.time_limit_sec = 10.0;
    solution = milp::Solver(form.model(), milp::first_feasible_params(params)).solve();
  }
  state.counters["nodes"] = static_cast<double>(solution.stats.nodes_explored);
  state.counters["feasible"] = solution.has_solution() ? 1 : 0;
  state.counters["N"] = n;
}

/// Raw DFS, no MIP start: stalls beyond ~16 tasks — the regime the paper's
/// "optimality only for small problems" observation lives in.
void BM_FirstFeasibleNoWarmStart(benchmark::State& state) {
  first_feasible_scaling(state, false);
}
BENCHMARK(BM_FirstFeasibleNoWarmStart)
    ->Unit(benchmark::kMillisecond)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Iterations(1);

/// With the greedy MIP start the same queries scale to 48 tasks.
void BM_FirstFeasibleWarmStart(benchmark::State& state) {
  first_feasible_scaling(state, true);
}
BENCHMARK(BM_FirstFeasibleWarmStart)
    ->Unit(benchmark::kMillisecond)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(48)
    ->Iterations(1);

/// Worker-thread scaling of a single first-feasible query on a DCT-1024
/// model (Arg = num_threads; 1 is the serial legacy search). Pairs with
/// bench_milp's BM_BnbFirstFeasibleDct1024 for the 4-vs-1-thread target.
void BM_FirstFeasibleThreadsDct1024(benchmark::State& state) {
  const graph::TaskGraph g = make_graph(32);
  const arch::Device dev = arch::custom("d", 1024, 4096, 100);
  const int n = core::min_area_partitions(g, dev) + 1;
  milp::MilpSolution solution;
  for (auto _ : state) {
    core::IlpFormulation form(g, dev, n, core::max_latency(g, dev, n),
                              core::min_latency(g, dev, n));
    milp::SolverParams params;
    params.time_limit_sec = 10.0;
    params.num_threads = static_cast<int>(state.range(0));
    solution =
        milp::Solver(form.model(), milp::first_feasible_params(params)).solve();
  }
  state.counters["nodes"] = static_cast<double>(solution.stats.nodes_explored);
  state.counters["feasible"] = solution.has_solution() ? 1 : 0;
}
BENCHMARK(BM_FirstFeasibleThreadsDct1024)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1);

void BM_FullPartitionerVsTasks(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const graph::TaskGraph g = make_graph(tasks);
  const arch::Device dev = arch::custom("d", 400, 4096, 100);
  core::PartitionerReport report;
  for (auto _ : state) {
    core::PartitionerOptions options;
    options.budget.delta = 100.0;
    options.budget.solver.time_limit_sec = 2.0;
    options.budget.time_budget_sec = 30.0;
    report = core::TemporalPartitioner(g, dev, options).run();
  }
  state.counters["Da_ns"] = report.feasible ? report.achieved_latency : 0;
  state.counters["solves"] = report.ilp_solves;
}
BENCHMARK(BM_FullPartitionerVsTasks)
    ->Unit(benchmark::kSecond)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1);

void BM_OptimalProofVsTasks(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const graph::TaskGraph g = make_graph(tasks);
  const arch::Device dev = arch::custom("d", 400, 4096, 100);
  const int n = core::min_area_partitions(g, dev) + 1;
  core::OptimalResult result;
  for (auto _ : state) {
    milp::SolverParams params;
    params.time_limit_sec = 20.0;
    result = core::solve_optimal(g, dev, n, params);
  }
  state.counters["nodes"] = static_cast<double>(result.nodes);
  state.counters["proved"] =
      result.status == milp::SolveStatus::kOptimal ? 1 : 0;
}
BENCHMARK(BM_OptimalProofVsTasks)
    ->Unit(benchmark::kSecond)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(14)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
