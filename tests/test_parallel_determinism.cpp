// Determinism of the parallel search paths: the partitioner must produce an
// identical iteration trace (all algorithmic columns; wall time and node
// counts are allowed to differ) and identical achieved latency regardless of
// SolverParams::num_threads — the contract that makes --threads safe to flip
// on existing experiment scripts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/partitioner.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"

namespace sparcs::core {
namespace {

/// The algorithmic projection of a trace: every column the paper's tables
/// print, excluding measurements (seconds, nodes, solver stats) that
/// legitimately vary run to run.
std::string trace_key(const Trace& trace) {
  std::ostringstream os;
  for (const IterationRecord& row : trace) {
    os << row.num_partitions << '/' << row.iteration << '/'
       << row.d_max_bound << '/' << row.d_min_bound << '/'
       << static_cast<int>(row.outcome) << '/'
       << static_cast<int>(row.verdict_source) << '/' << row.achieved_latency
       << '\n';
  }
  return os.str();
}

PartitionerReport run_with_threads(const graph::TaskGraph& graph,
                                   const arch::Device& device, double delta,
                                   int threads) {
  PartitionerOptions options;
  options.budget.delta = delta;
  options.budget.solver.num_threads = threads;
  options.budget.solver.time_limit_sec = 30.0;
  return TemporalPartitioner(graph, device, options).run();
}

/// A probe cut short by its time limit proves nothing about determinism (its
/// outcome depends on machine speed), so every case must decide every probe.
void expect_no_limit_probes(const PartitionerReport& report, int threads) {
  EXPECT_FALSE(report.degraded) << threads << " threads";
  for (const IterationRecord& row : report.trace) {
    EXPECT_NE(row.outcome, IterationOutcome::kLimit)
        << threads << " threads, N=" << row.num_partitions
        << " I=" << row.iteration;
  }
}

void expect_thread_invariant(const graph::TaskGraph& graph,
                             const arch::Device& device, double delta) {
  const PartitionerReport reference =
      run_with_threads(graph, device, delta, 1);
  ASSERT_TRUE(reference.feasible);
  expect_no_limit_probes(reference, 1);
  const std::string reference_key = trace_key(reference.trace);

  for (const int threads : {2, 8}) {
    const PartitionerReport report =
        run_with_threads(graph, device, delta, threads);
    ASSERT_TRUE(report.feasible) << threads << " threads";
    expect_no_limit_probes(report, threads);
    EXPECT_EQ(report.achieved_latency, reference.achieved_latency)
        << threads << " threads";
    EXPECT_EQ(report.best_num_partitions, reference.best_num_partitions)
        << threads << " threads";
    EXPECT_EQ(trace_key(report.trace), reference_key)
        << threads << " threads";
    EXPECT_EQ(report.ilp_solves, reference.ilp_solves)
        << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, ArFilterTraceIsThreadCountInvariant) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("ar_dev", 200, 64, 50);
  expect_thread_invariant(g, dev, 20.0);
}

TEST(ParallelDeterminismTest, ArFilterLargeCtTraceIsThreadCountInvariant) {
  // A large reconfiguration overhead changes which branch of
  // Refine_Partitions_Bound terminates the sweep; both regimes must be
  // deterministic.
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("ar_dev_largect", 200, 64, 1000);
  expect_thread_invariant(g, dev, 20.0);
}

TEST(ParallelDeterminismTest, DctTraceIsThreadCountInvariant) {
  // The 1024-CLB device from the paper's Tables 5-8. Three partition bounds
  // stay in play (N = 3, 4, 5) and N=4 improves Da, so phase 2 carries a
  // changing Da across stages while each probe runs the worker pool. The
  // delta stops each bisection before the hard refutation windows (delta
  // 800 leaves probes that outlast any time limit).
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("dct_dev_1024", 1024, 4096, 100);
  expect_thread_invariant(g, dev, 1400.0);
}

TEST(ParallelDeterminismTest, DctLargeCtTraceIsThreadCountInvariant) {
  // A reconfiguration overhead large enough that MinLatency(N) >= Da fires
  // right after the first feasible bound (the paper's large-Ct regime).
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("dct_dev_largect", 1024, 4096, 1000);
  expect_thread_invariant(g, dev, 1400.0);
}

}  // namespace
}  // namespace sparcs::core
