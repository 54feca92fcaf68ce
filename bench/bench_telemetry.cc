// Telemetry-overhead microbenchmarks backing the pipeline's core invariant:
// with no observer bound to the thread, an instrumented hot path pays one
// thread-local load (or one null check) per call site. The disabled
// variants must stay within noise of the raw loop; the enabled variants
// document what turning each feature on costs.
#include <benchmark/benchmark.h>

#include <sstream>

#include "milp/solver.hpp"
#include "support/metrics.hpp"
#include "support/observer.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace sparcs;

/// Baseline: the loop body without any telemetry call, for comparison.
void BM_DisabledBaseline(benchmark::State& state) {
  std::int64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x += 1);
  }
}
BENCHMARK(BM_DisabledBaseline);

void BM_DisabledSolveScope(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::SolveScope scope;
    benchmark::DoNotOptimize(scope.slot());
  }
}
BENCHMARK(BM_DisabledSolveScope);

/// The branch & bound's tree check: the run's tree, or null.
void BM_DisabledTreeRecord(benchmark::State& state) {
  const telemetry::TreeNode node{1, 0, 1, 2, 0.0, 1.0,
                                 telemetry::NodeKind::kBranched};
  for (auto _ : state) {
    const Observer* observer = current_observer();
    telemetry::SearchTree* tree =
        observer != nullptr ? observer->tree() : nullptr;
    if (tree != nullptr) tree->record(node);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_DisabledTreeRecord);

void BM_DisabledStagePublish(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::set_stage("bench", 1);
    benchmark::ClobberMemory();  // reload the binding every iteration
  }
}
BENCHMARK(BM_DisabledStagePublish);

/// A metrics export site: the run's registry, or nothing to do.
void BM_DisabledCounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    const Observer* observer = current_observer();
    if (observer != nullptr && observer->metrics() != nullptr) {
      observer->metrics()->counter("bench.counter").add(1);
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DisabledCounterAdd);

void BM_EnabledLivePublish(benchmark::State& state) {
  std::ostringstream sink;
  Observer::Options options;
  options.telemetry = &sink;
  options.sample_interval_sec = 10.0;
  Observer observer(options);
  const ObserverScope bind(&observer);
  telemetry::SolveScope scope;
  telemetry::LiveSolve* live = scope.slot();
  for (auto _ : state) {
    live->nodes.fetch_add(1, std::memory_order_relaxed);
  }
}
BENCHMARK(BM_EnabledLivePublish);

void BM_EnabledTreeRecord(benchmark::State& state) {
  telemetry::SearchTree tree;
  for (auto _ : state) {
    const std::int64_t id = tree.next_id();
    tree.record({id, id - 1, 1, 2, 0.0, 1.0, telemetry::NodeKind::kIntegral});
  }
}
BENCHMARK(BM_EnabledTreeRecord);

/// A whole MILP solve with telemetry off vs. on: the end-to-end check that
/// the disabled pipeline does not tax the solver. Solves the same
/// first-feasible pick-K query each iteration.
milp::Model pick_model(int vars, int k) {
  milp::Model m("pick");
  milp::LinExpr sum;
  for (int i = 0; i < vars; ++i) {
    sum += milp::LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == static_cast<double>(k), "pick");
  return m;
}

void BM_SolveTelemetryOff(benchmark::State& state) {
  const milp::Model m = pick_model(24, 6);
  milp::SolverParams params = milp::first_feasible_params();
  params.num_threads = 1;
  for (auto _ : state) {
    milp::MilpSolution s = milp::Solver(m, params).solve();
    benchmark::DoNotOptimize(s.status);
  }
}
BENCHMARK(BM_SolveTelemetryOff);

void BM_SolveTelemetryOn(benchmark::State& state) {
  std::ostringstream sink;
  Observer::Options options;
  options.telemetry = &sink;
  options.sample_interval_sec = 0.05;
  Observer observer(options);
  const ObserverScope bind(&observer);
  const milp::Model m = pick_model(24, 6);
  milp::SolverParams params = milp::first_feasible_params();
  params.num_threads = 1;
  for (auto _ : state) {
    milp::MilpSolution s = milp::Solver(m, params).solve();
    benchmark::DoNotOptimize(s.status);
  }
}
BENCHMARK(BM_SolveTelemetryOn);

}  // namespace

BENCHMARK_MAIN();
