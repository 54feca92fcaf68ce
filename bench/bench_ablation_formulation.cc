// Ablation bench for the formulation design choices DESIGN.md calls out:
//  - temporal order: the paper's pairwise rows vs. the aggregated
//    partition-index row (smaller model, weaker propagation);
//  - partition latency: path enumeration (paper) vs. the flow-based big-M
//    form (polynomial in graph size);
//  - strengthening cuts on/off (per-task aggregation variables).
// Each variant solves the same first-feasible query; we report wall time,
// node count and model size.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "milp/solver.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"

namespace {

using namespace sparcs;

core::FormulationOptions make_options(int variant) {
  core::FormulationOptions options;
  switch (variant) {
    case 0:  // paper default
      break;
    case 1:
      options.order_form = core::FormulationOptions::OrderForm::kAggregated;
      break;
    case 2:
      options.latency_form =
          core::FormulationOptions::LatencyForm::kFlowBased;
      break;
    case 3:
      options.strengthening_cuts = false;
      break;
    default:
      break;
  }
  return options;
}

const char* variant_name(int variant) {
  switch (variant) {
    case 0:
      return "paper-default";
    case 1:
      return "aggregated-order";
    case 2:
      return "flow-latency";
    case 3:
      return "no-cuts";
    default:
      return "?";
  }
}

void run_variant(benchmark::State& state, const graph::TaskGraph& g,
                 const arch::Device& dev, int n, double d_max, double d_min) {
  const int variant = static_cast<int>(state.range(0));
  milp::MilpSolution solution;
  milp::ModelStats stats;
  for (auto _ : state) {
    core::IlpFormulation form(g, dev, n, d_max, d_min,
                              make_options(variant));
    stats = form.model().stats();
    milp::SolverParams params;
    params.time_limit_sec = 10.0;
    solution = milp::Solver(form.model(), milp::first_feasible_params(params)).solve();
  }
  state.counters["nodes"] = static_cast<double>(solution.stats.nodes_explored);
  state.counters["rows"] = stats.num_constraints;
  state.counters["cols"] = stats.num_vars;
  state.counters["nnz"] = static_cast<double>(stats.num_nonzeros);
  state.counters["feasible"] = solution.has_solution() ? 1 : 0;
  state.SetLabel(variant_name(variant));
}

void BM_Ablation_ArFilter(benchmark::State& state) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("d", 200, 64, 50);
  run_variant(state, g, dev, 3, core::max_latency(g, dev, 3),
              core::min_latency(g, dev, 3));
}
BENCHMARK(BM_Ablation_ArFilter)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->DenseRange(0, 3);

void BM_Ablation_Dct(benchmark::State& state) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  // A mid-tight window: loose enough to be feasible, tight enough that the
  // formulation strength matters.
  run_variant(state, g, dev, 6, 4200.0, core::min_latency(g, dev, 6));
}
BENCHMARK(BM_Ablation_Dct)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->DenseRange(0, 3);

}  // namespace

BENCHMARK_MAIN();
