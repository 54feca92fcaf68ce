// Figure 3 companion bench: the w_pt1t2 variables model cross-partition data
// storage. Sweeping the on-board memory budget over the Figure-3 style graph
// shows the partitioner trading separation (parallel area use) against
// co-location (no memory traffic), and the cost of the memory rows in the
// model.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "io/table.hpp"
#include "milp/solver.hpp"

namespace {

using namespace sparcs;

/// Figure-3 shaped graph: a chain with a skip edge, sized so separating the
/// producer chain across partitions needs real memory.
graph::TaskGraph fig3_graph() {
  graph::TaskGraph g("fig3");
  const graph::TaskId a = g.add_task("A", {{"m", 60, 100}});
  const graph::TaskId b = g.add_task("B", {{"m", 60, 120}});
  const graph::TaskId c = g.add_task("C", {{"m", 60, 140}});
  const graph::TaskId d = g.add_task("D", {{"m", 60, 160}});
  g.add_edge(a, b, 8);
  g.add_edge(a, c, 16);  // skip edge: alive across every partition between
  g.add_edge(b, c, 8);
  g.add_edge(b, d, 8);
  g.add_edge(c, d, 8);
  return g;
}

void BM_Fig3_MemorySweep(benchmark::State& state) {
  const graph::TaskGraph g = fig3_graph();
  struct Row {
    double mmax;
    bool feasible;
    int partitions_used;
  };
  std::vector<Row> rows;
  for (auto _ : state) {
    rows.clear();
    for (const double mmax : {0.0, 8.0, 16.0, 24.0, 40.0, 100.0}) {
      const arch::Device dev = arch::custom("d", 130, mmax, 10);
      // Window floor at the one-partition bound, below every design's
      // latency: the N = 4 floor (520 + 4 * Ct) would pad every design up to
      // the same objective and leave "partitions used" to tie-breaking.
      core::IlpFormulation form(g, dev, 4, core::max_latency(g, dev, 4),
                                core::min_latency(g, dev, 1));
      form.set_latency_objective();
      milp::SolverParams params;
      params.time_limit_sec = 5.0;
      const milp::MilpSolution s = milp::Solver(form.model(), params).solve();
      Row row{mmax, s.has_solution(), 0};
      if (s.has_solution()) {
        row.partitions_used = form.decode(s.values).num_partitions_used;
      }
      rows.push_back(row);
    }
  }

  std::printf("\n=== Figure 3 companion: memory budget vs partitioning "
              "(Rmax=130, two tasks per partition max) ===\n");
  io::AsciiTable table({"Mmax", "feasible", "partitions used"});
  for (const Row& row : rows) {
    table.add_row({std::to_string((int)row.mmax),
                   row.feasible ? "yes" : "no",
                   row.feasible ? std::to_string(row.partitions_used) : "-"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "the memory budget shapes the feasible temporal partitionings: with "
      "Rmax=130 the graph cannot collapse into one configuration, so some "
      "data must live in on-board memory (infeasible below 24 units), and "
      "the latency-optimal structure changes as the budget loosens\n");
}
BENCHMARK(BM_Fig3_MemorySweep)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
