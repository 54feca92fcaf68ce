// Cost of certified verdicts, per CertifyMode: --certify=off must be
// zero-cost (no recording, no checking — the pre-certification hot path),
// `incumbents` adds one exact evaluation per accepted design, and `full`
// additionally records derivation logs / Farkas rays and checks the
// infeasibility proof tree. The checker itself is benchmarked standalone so
// its exact-rational cost is visible separately from the solve.
#include <benchmark/benchmark.h>

#include "arch/device.hpp"
#include "core/partitioner.hpp"
#include "milp/certify.hpp"
#include "milp/solver.hpp"
#include "support/rng.hpp"
#include "workloads/ar_filter.hpp"

namespace {

using namespace sparcs;
using namespace sparcs::milp;

/// Infeasible parity model: exhaustive to refute, so `full` mode records a
/// deep proof tree (propagation conflicts at every leaf).
Model parity_model(int vars) {
  Model m("parity");
  LinExpr sum;
  for (int i = 0; i < vars; ++i) {
    sum += 2.0 * LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == static_cast<double>(vars) + 1.0, "odd");
  return m;
}

/// Feasible knapsack with a certified optimum.
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
  m.set_objective(std::move(value), /*minimize=*/false);
  return m;
}

CertifyMode mode_of(std::int64_t arg) {
  switch (arg) {
    case 1:
      return CertifyMode::kIncumbents;
    case 2:
      return CertifyMode::kFull;
    default:
      return CertifyMode::kOff;
  }
}

/// Feasible solve under each mode; Arg(0) vs Arg(1)/Arg(2) is the
/// zero-cost-when-off comparison for the incumbent path.
void BM_SolveFeasible(benchmark::State& state) {
  const Model m = knapsack_model(24, 7);
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = mode_of(state.range(0));
  MilpSolution s;
  for (auto _ : state) {
    s = Solver(m, params).solve();
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["certified"] = s.certified == CertifyStatus::kCertified;
  state.counters["checked"] =
      static_cast<double>(s.stats.certificates_checked);
}
BENCHMARK(BM_SolveFeasible)->Unit(benchmark::kMillisecond)->Arg(0)->Arg(1)->Arg(2);

/// Infeasible solve under each mode; `full` pays for proof recording plus
/// the exact tree check, `off` and `incumbents` must match each other.
void BM_SolveInfeasible(benchmark::State& state) {
  const Model m = parity_model(14);
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = mode_of(state.range(0));
  MilpSolution s;
  for (auto _ : state) {
    s = Solver(m, params).solve();
    benchmark::DoNotOptimize(s.status);
  }
  state.counters["proof_nodes"] =
      s.proof ? static_cast<double>(s.proof->nodes.size()) : 0.0;
  state.counters["uncertified"] =
      static_cast<double>(s.stats.uncertified_verdicts);
}
BENCHMARK(BM_SolveInfeasible)->Unit(benchmark::kMillisecond)->Arg(0)->Arg(1)->Arg(2);

/// The standalone exact checks, isolated from the solve.
void BM_CertifyFeasibleCheck(benchmark::State& state) {
  const Model m = knapsack_model(24, 7);
  SolverParams params = optimality_params();
  params.num_threads = 1;
  const MilpSolution s = Solver(m, params).solve();
  for (auto _ : state) {
    const CertifyCheck check = certify_feasible(m, s.values);
    benchmark::DoNotOptimize(check.ok);
  }
}
BENCHMARK(BM_CertifyFeasibleCheck)->Unit(benchmark::kMicrosecond);

void BM_CertifyInfeasibleCheck(benchmark::State& state) {
  const Model m = parity_model(14);
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(m, params).solve();
  for (auto _ : state) {
    const CertifyCheck check = certify_infeasible(m, *s.proof);
    benchmark::DoNotOptimize(check.ok);
  }
  state.counters["proof_nodes"] = static_cast<double>(s.proof->nodes.size());
}
BENCHMARK(BM_CertifyInfeasibleCheck)->Unit(benchmark::kMillisecond);

/// The whole AR-filter sweep per mode — the end-to-end number behind the
/// "off is zero-cost, full certifies everything" claim.
void BM_ArSweep(benchmark::State& state) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("ar_dev", 200, 64, 50);
  core::PartitionerOptions options;
  options.budget.delta = 20.0;
  options.budget.solver.num_threads = 1;
  options.budget.solver.certify = mode_of(state.range(0));
  core::PartitionerReport r;
  for (auto _ : state) {
    r = core::TemporalPartitioner(g, dev, options).run();
    benchmark::DoNotOptimize(r);
  }
  state.counters["checked"] =
      static_cast<double>(r.solver_stats.certificates_checked);
  state.counters["uncertified"] =
      static_cast<double>(r.solver_stats.uncertified_verdicts);
  state.counters["latency_ns"] = r.achieved_latency;
}
BENCHMARK(BM_ArSweep)->Unit(benchmark::kMillisecond)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
