// Figure 4 companion bench: per-partition latency is the longest task-chain
// mapped to the partition. Reproduces the worked example (350/400/150 ns
// paths in partition 1, 300 ns in partition 2) and measures the latency
// recomputation used by CalculateSolnLatency().
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "arch/device.hpp"
#include "core/solution.hpp"
#include "workloads/dct.hpp"

namespace {

using namespace sparcs;

std::vector<graph::DesignPoint> pt(double area, double latency) {
  return {{"m", area, latency}};
}

struct Fig4Setup {
  graph::TaskGraph g{"fig4"};
  core::PartitionedDesign design;
  arch::Device dev = arch::custom("d", 1000, 1000, 25);

  Fig4Setup() {
    const auto a1 = g.add_task("a1", pt(10, 100));
    const auto a2 = g.add_task("a2", pt(10, 250));
    const auto b1 = g.add_task("b1", pt(10, 150));
    const auto b2 = g.add_task("b2", pt(10, 250));
    const auto c1 = g.add_task("c1", pt(10, 150));
    const auto d1 = g.add_task("d1", pt(10, 300));
    g.add_edge(a1, a2, 1);
    g.add_edge(b1, b2, 1);
    g.add_edge(a2, d1, 1);
    g.add_edge(b2, d1, 1);
    g.add_edge(c1, d1, 1);
    design.num_partitions_allocated = 2;
    design.assignment = {{1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0}, {2, 0}};
    core::recompute_latency(g, dev, design);
  }
};

void BM_Fig4_WorkedExample(benchmark::State& state) {
  Fig4Setup setup;
  double d1 = 0, d2 = 0;
  for (auto _ : state) {
    const std::vector<double> d =
        core::partition_path_latencies(setup.g, setup.design);
    d1 = d[0];
    d2 = d[1];
    benchmark::DoNotOptimize(d1 + d2);
  }
  std::printf("\n=== Figure 4 worked example ===\n"
              "partition 1 paths: a1->a2 = 350, b1->b2 = 400, c1 = 150\n"
              "partition 1 latency = %g ns (expected 400)\n"
              "partition 2 latency = %g ns (expected 300)\n"
              "design total = %g ns (700 execution + 2 reconfigurations)\n",
              d1, d2, setup.design.total_latency_ns);
  state.counters["d1"] = d1;
  state.counters["d2"] = d2;
}
BENCHMARK(BM_Fig4_WorkedExample)->Iterations(1);

/// Throughput of the latency recomputation on the 32-task DCT (it runs after
/// every feasible ILP solve).
void BM_RecomputeLatencyDct(benchmark::State& state) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  core::PartitionedDesign design;
  design.num_partitions_allocated = 8;
  design.assignment.resize(static_cast<std::size_t>(g.num_tasks()));
  for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
    design.assignment[static_cast<std::size_t>(t)] = {1 + (t % 8) / 2 + (t / 16) * 4, t % 3};
  }
  for (auto _ : state) {
    core::recompute_latency(g, dev, design);
    benchmark::DoNotOptimize(design.total_latency_ns);
  }
}
BENCHMARK(BM_RecomputeLatencyDct)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
