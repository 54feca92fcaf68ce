// Microbenchmarks of the MILP substrate: simplex throughput on dense LPs,
// branch & bound on knapsacks, and propagation cost on the DCT model.
#include <benchmark/benchmark.h>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "milp/compiled.hpp"
#include "milp/propagation.hpp"
#include "milp/simplex.hpp"
#include "milp/solver.hpp"
#include "support/rng.hpp"
#include "workloads/dct.hpp"

namespace {

using namespace sparcs;
using namespace sparcs::milp;

/// Random dense LP: min c'x s.t. Ax <= b, 0 <= x <= 10.
LpProblem random_lp(int vars, int rows, std::uint64_t seed) {
  Rng rng(seed);
  LpProblem lp;
  for (int j = 0; j < vars; ++j) {
    lp.add_var(rng.uniform(-1.0, 1.0), 0.0, 10.0);
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<LinTerm> terms;
    for (int j = 0; j < vars; ++j) {
      terms.push_back({j, rng.uniform(0.0, 1.0)});
    }
    lp.add_row(std::move(terms), Sense::kLessEqual,
               rng.uniform(1.0, 2.0) * vars / 4.0);
  }
  return lp;
}

void BM_SimplexDenseLp(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const LpProblem lp = random_lp(size, size, 99);
  LpResult result;
  for (auto _ : state) {
    result = solve_lp(lp);
    benchmark::DoNotOptimize(result.objective);
  }
  state.counters["iters"] = result.iterations;
  state.counters["optimal"] = result.status == LpStatus::kOptimal ? 1 : 0;
}
BENCHMARK(BM_SimplexDenseLp)->Unit(benchmark::kMillisecond)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

Model knapsack_model(int items, std::uint64_t seed) {
  Rng rng(seed);
  Model m("knap");
  LinExpr weight, value;
  for (int i = 0; i < items; ++i) {
    const VarId x = m.add_binary("x" + std::to_string(i));
    weight += static_cast<double>(rng.uniform_int(5, 30)) * LinExpr(x);
    value += static_cast<double>(rng.uniform_int(5, 40)) * LinExpr(x);
  }
  m.add_constraint(weight <= 40.0 + 3.0 * items, "cap");
  m.set_objective(value, /*minimize=*/false);
  return m;
}

void BM_BnbKnapsack(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  const Model m = knapsack_model(items, 7);
  MilpSolution s;
  for (auto _ : state) {
    SolverParams params;
    params.use_lp_bounding = true;
    s = Solver(m, params).solve();
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["nodes"] = static_cast<double>(s.stats.nodes_explored);
}
BENCHMARK(BM_BnbKnapsack)->Unit(benchmark::kMillisecond)->Arg(12)->Arg(18)->Arg(24);

/// First-feasible search on the DCT-1024 temporal-partitioning model, swept
/// over worker-thread counts (Arg = num_threads; 1 is the serial legacy
/// search). The acceptance target is >= 2x at 4 threads vs 1 on multi-core
/// hosts.
void BM_BnbFirstFeasibleDct1024(benchmark::State& state) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 1024, 4096, 100);
  const int n = 4;
  core::IlpFormulation form(g, dev, n, core::max_latency(g, dev, n),
                            core::min_latency(g, dev, n));
  MilpSolution s;
  for (auto _ : state) {
    SolverParams params;
    params.num_threads = static_cast<int>(state.range(0));
    s = Solver(form.model(), first_feasible_params(params)).solve();
    benchmark::DoNotOptimize(s.status);
  }
  state.counters["nodes"] = static_cast<double>(s.stats.nodes_explored);
  state.counters["feasible"] = s.has_solution() ? 1 : 0;
}
BENCHMARK(BM_BnbFirstFeasibleDct1024)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

void BM_CompileDctModel(benchmark::State& state) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  for (auto _ : state) {
    core::IlpFormulation form(g, dev, 8, core::max_latency(g, dev, 8),
                              core::min_latency(g, dev, 8));
    const CompiledModel compiled(form.model());
    benchmark::DoNotOptimize(compiled.num_constraints());
  }
}
BENCHMARK(BM_CompileDctModel)->Unit(benchmark::kMillisecond);

void BM_RootPropagationDct(benchmark::State& state) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  core::IlpFormulation form(g, dev, 8, core::max_latency(g, dev, 8),
                            core::min_latency(g, dev, 8));
  const CompiledModel compiled(form.model());
  for (auto _ : state) {
    Domains domains(compiled);
    Propagator propagator(compiled, 1e-6, 50);
    PropagationStats stats;
    const bool ok = propagator.propagate(domains, {}, stats);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_RootPropagationDct)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
