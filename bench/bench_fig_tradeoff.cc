// Section 2 motivation figure: the latency-vs-N tradeoff depends on the
// reconfiguration overhead. For each partition count N we run the latency
// refinement alone and print one series per Ct regime; small overheads favor
// relaxing N (faster design points fit), large overheads favor the minimum
// partition count.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>

#include "arch/device.hpp"
#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/reduce_latency.hpp"
#include "io/table.hpp"
#include "workloads/dct.hpp"

namespace {

using namespace sparcs;

void BM_LatencyVsN(benchmark::State& state) {
  const double ct = static_cast<double>(state.range(0));
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("dct_dev", 576, 4096, ct);

  struct Point {
    int n;
    double total;
    double execution;
  };
  std::vector<Point> series;
  for (auto _ : state) {
    series.clear();
    for (int n = core::min_area_partitions(g, dev); n <= 8; ++n) {
      core::ReduceLatencyParams params;
      params.budget.delta = 200.0;
      params.budget.solver.time_limit_sec = 3.0;
      params.budget.solver.node_limit = 500000;
      core::Trace trace;
      core::BisectionWindow window{core::max_latency(g, dev, n),
                                   core::min_latency(g, dev, n), 0,
                                   std::nullopt};
      core::reduce_latency(g, dev, n, window, params, trace);
      const std::optional<core::PartitionedDesign>& best = window.incumbent;
      series.push_back({n, best ? best->total_latency_ns : 0.0,
                        best ? best->execution_latency_ns : 0.0});
    }
  }

  std::printf("\n=== Figure (motivation): total latency vs N, Ct=%g ns ===\n",
              ct);
  io::AsciiTable table({"N", "best total latency (ns)", "execution part (ns)"});
  double best = 1e300;
  int best_n = 0;
  for (const auto& [n, latency, execution] : series) {
    table.add_row({std::to_string(n),
                   latency > 0 ? std::to_string((long long)latency) : "Inf.",
                   latency > 0 ? std::to_string((long long)execution) : "-"});
    if (latency > 0 && latency < best) {
      best = latency;
      best_n = n;
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("best N for Ct=%g ns: %d\n", ct, best_n);
  state.counters["best_N"] = best_n;
  state.counters["best_latency_ns"] = best;
}

BENCHMARK(BM_LatencyVsN)
    ->Unit(benchmark::kSecond)
    ->Iterations(1)
    ->Arg(100)        // TM-FPGA-like: relaxing N should pay off
    ->Arg(100000)     // 0.1 ms: crossover regime
    ->Arg(10000000);  // Wildforce-like: minimum N should win

}  // namespace

BENCHMARK_MAIN();
