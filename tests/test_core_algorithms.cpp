#include <gtest/gtest.h>

#include "arch/device.hpp"
#include "core/baselines.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "core/partitioner.hpp"
#include "core/reduce_latency.hpp"
#include "core/refine_partitions.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
#include "warm_start_rows.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/ewf.hpp"
#include "workloads/synthetic.hpp"

namespace sparcs::core {
namespace {

arch::Device ar_device(double ct_ns) {
  return arch::custom("ar_dev", 200, 64, ct_ns);
}

ReduceLatencyParams reduce_params(double delta) {
  ReduceLatencyParams params;
  params.budget.delta = delta;
  params.budget.solver.node_limit = 200000;
  params.budget.solver.time_limit_sec = 20.0;
  return params;
}

/// The full window [MinLatency(N), MaxLatency(N)] of a fresh stage.
BisectionWindow full_window(const graph::TaskGraph& g, const arch::Device& dev,
                            int n) {
  return BisectionWindow{max_latency(g, dev, n), min_latency(g, dev, n), 0,
                         std::nullopt};
}

TEST(ReduceLatencyTest, FindsSolutionAndTightens) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  Trace trace;
  const int n = 3;
  BisectionWindow r = full_window(g, dev, n);
  reduce_latency(g, dev, n, r, reduce_params(20.0), trace);
  ASSERT_TRUE(r.incumbent.has_value());
  EXPECT_GT(r.incumbent->total_latency_ns, 0.0);
  EXPECT_TRUE(validate_design(g, dev, *r.incumbent).ok);
  EXPECT_EQ(r.iteration, static_cast<int>(trace.size()));
  ASSERT_GE(trace.size(), 2u);
  // Feasible iterations must be monotonically improving.
  double last = 1e30;
  for (const IterationRecord& row : trace) {
    if (row.outcome == IterationOutcome::kFeasible) {
      EXPECT_LT(row.achieved_latency, last);
      last = row.achieved_latency;
    }
  }
  EXPECT_DOUBLE_EQ(last, r.incumbent->total_latency_ns);
}

// A window restored after any probe re-enters the subdivision where it
// stood: no full-window probe, the same remaining probes and the same
// final window as the uninterrupted refinement.
TEST(ReduceLatencyTest, RestoredWindowContinuesTheRefinement) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  const int n = 3;
  ReduceLatencyParams params = reduce_params(5.0);
  params.budget.solver.num_threads = 1;
  std::vector<BisectionWindow> snapshots;
  params.on_progress = [&snapshots](const BisectionWindow& window) {
    snapshots.push_back(window);
  };
  Trace full_trace;
  BisectionWindow full = full_window(g, dev, n);
  reduce_latency(g, dev, n, full, params, full_trace);
  ASSERT_GE(snapshots.size(), 2u);
  params.on_progress = nullptr;
  for (const BisectionWindow& snapshot : snapshots) {
    BisectionWindow window = snapshot;
    Trace trace;
    reduce_latency(g, dev, n, window, params, trace);
    const auto done = static_cast<std::size_t>(snapshot.iteration);
    ASSERT_EQ(done + trace.size(), full_trace.size()) << done;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].iteration, full_trace[done + i].iteration);
      EXPECT_EQ(trace[i].d_max_bound, full_trace[done + i].d_max_bound);
      EXPECT_EQ(trace[i].outcome, full_trace[done + i].outcome);
    }
    EXPECT_EQ(window.iteration, full.iteration);
    EXPECT_EQ(window.d_min, full.d_min);
    EXPECT_EQ(window.d_max, full.d_max);
    EXPECT_EQ(window.incumbent->total_latency_ns,
              full.incumbent->total_latency_ns);
  }
}

TEST(ReduceLatencyTest, InfeasibleBoundReturnsZero) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  // One partition cannot hold the whole filter (min total area 394 > 200).
  const arch::Device dev = ar_device(50);
  Trace trace;
  BisectionWindow r = full_window(g, dev, 1);
  reduce_latency(g, dev, 1, r, reduce_params(20.0), trace);
  EXPECT_FALSE(r.incumbent.has_value());
  EXPECT_EQ(r.iteration, 1);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].outcome, IterationOutcome::kInfeasible);
}

TEST(ReduceLatencyTest, DeltaControlsIterationCount) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  const int n = 3;
  Trace coarse_trace, fine_trace;
  BisectionWindow coarse = full_window(g, dev, n);
  reduce_latency(g, dev, n, coarse, reduce_params(500.0), coarse_trace);
  BisectionWindow fine = full_window(g, dev, n);
  reduce_latency(g, dev, n, fine, reduce_params(10.0), fine_trace);
  ASSERT_TRUE(coarse.incumbent.has_value());
  ASSERT_TRUE(fine.incumbent.has_value());
  // A finer tolerance explores at least as much and never ends up worse.
  EXPECT_GE(fine_trace.size(), coarse_trace.size());
  EXPECT_LE(fine.incumbent->total_latency_ns,
            coarse.incumbent->total_latency_ns + 1e-9);
}

TEST(ReduceLatencyTest, RejectsNonPositiveDelta) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  Trace trace;
  BisectionWindow window{1e4, 0.0, 0, std::nullopt};
  EXPECT_THROW(reduce_latency(g, dev, 2, window, reduce_params(0.0), trace),
               InvalidArgumentError);
}

TEST(RefinePartitionsTest, SkipsInfeasibleBoundsThenSolves) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  PartitionerOptions options;
  options.alpha = 0;
  options.gamma = 1;
  options.budget.delta = 20.0;
  options.budget.solver.node_limit = 200000;
  const PartitionerReport r = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GE(r.best_num_partitions, min_area_partitions(g, dev));
  EXPECT_TRUE(validate_design(g, dev, *r.best).ok);
}

TEST(RefinePartitionsTest, LargeReconfigStopsAtLowerBound) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  // 10 ms reconfiguration: every extra partition costs more than any
  // possible execution-time gain, so after the first feasible N the
  // MinLatency(N+1) >= Da rule must stop the sweep.
  const arch::Device dev = ar_device(1e7);
  PartitionerOptions options;
  options.budget.delta = 20.0;
  const PartitionerReport r = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(r.best.has_value());
  EXPECT_TRUE(r.stopped_by_lower_bound);
  // The best design sits at the first feasible partition bound (N = 2 is
  // area-infeasible for the AR filter despite the analytic bound, so the
  // sweep lands on 3) and never pays for an extra reconfiguration.
  int first_feasible_n = 0;
  for (const IterationRecord& row : r.trace) {
    if (row.outcome == IterationOutcome::kFeasible) {
      first_feasible_n = row.num_partitions;
      break;
    }
  }
  EXPECT_EQ(r.best_num_partitions, first_feasible_n);
  EXPECT_EQ(r.best_num_partitions, 3);
}

TEST(RefinePartitionsTest, SmallReconfigExploresLargerN) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  // Nearly free reconfiguration: relaxing N lets faster design points fit,
  // so the best N should exceed the minimum.
  const arch::Device dev = ar_device(1.0);
  PartitionerOptions options;
  options.budget.delta = 10.0;
  options.gamma = 1;
  const PartitionerReport r = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(r.best.has_value());
  // N = 3 is the first feasible bound (N = 2 fails on area packing).
  const int n_first = 3;
  EXPECT_GT(r.best_num_partitions, n_first);

  // And the achieved latency must beat the best design at N = n_first.
  Trace trace;
  BisectionWindow at_min = full_window(g, dev, n_first);
  reduce_latency(g, dev, n_first, at_min, reduce_params(10.0), trace);
  ASSERT_TRUE(at_min.incumbent.has_value());
  EXPECT_LT(r.achieved_latency, at_min.incumbent->total_latency_ns);
}

TEST(PartitionerTest, EndToEndReportIsConsistent) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  PartitionerOptions options;
  options.budget.delta = 20.0;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(report.feasible);
  ASSERT_TRUE(report.best.has_value());
  EXPECT_DOUBLE_EQ(report.achieved_latency, report.best->total_latency_ns);
  EXPECT_EQ(report.ilp_solves, static_cast<int>(report.trace.size()));
  EXPECT_EQ(report.n_min_lower, 2);
  EXPECT_EQ(report.n_min_upper, 3);
  EXPECT_DOUBLE_EQ(report.delta_used, 20.0);
}

// An unset tolerance is 2% of MaxLatency at the start bound N^l_min + alpha.
TEST(PartitionerTest, DerivesDeltaFromFraction) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  for (const int alpha : {0, 1}) {
    PartitionerOptions options;
    options.alpha = alpha;
    options.budget.delta = 0.0;
    const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
    const double expected =
        0.02 * max_latency(g, dev, min_area_partitions(g, dev) + alpha);
    EXPECT_DOUBLE_EQ(report.delta_used, expected) << "alpha=" << alpha;
  }
}

// The paper's Table-1 claim: on the AR filter the iterative procedure's
// result equals the ILP optimum. Checked across reconfiguration regimes.
class ArOptimalityTest : public ::testing::TestWithParam<double> {};

TEST_P(ArOptimalityTest, IterativeMatchesOptimal) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(GetParam());
  PartitionerOptions options;
  options.budget.delta = 5.0;  // tight tolerance: explore nearly everything
  options.gamma = 1;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(report.feasible);

  const OptimalResult optimal = solve_optimal_over_range(g, dev, 0, 1);
  ASSERT_TRUE(optimal.best.has_value());
  EXPECT_NEAR(report.achieved_latency, optimal.latency_ns, 5.0 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(ReconfigRegimes, ArOptimalityTest,
                         ::testing::Values(1.0, 50.0, 500.0, 1e7));

// LP pruning must never cut off the optimum: at every N of the AR range, the
// LP-bounded optimum equals the one found by propagation-only search. At
// Ct = 1e7 the cutoff row sum_p d_p + 1e7 * eta <= cutoff mixes coefficient
// magnitudes, which is where phase 1 once declared feasible node LPs
// infeasible from a drifted cost row.
class ArLpBoundingTest : public ::testing::TestWithParam<double> {};

/// Optimum of the AR model at N, or -1 when N is infeasible.
double ar_optimum(const arch::Device& dev, int n, bool lp_bounding) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  IlpFormulation form(g, dev, n, max_latency(g, dev, n),
                      min_latency(g, dev, n));
  form.set_latency_objective();
  milp::SolverParams params = milp::optimality_params();
  params.use_lp_bounding = lp_bounding;
  params.objective_improvement = 1.0;
  params.num_threads = 1;
  const milp::MilpSolution s = milp::Solver(form.model(), params).solve();
  if (s.status == milp::SolveStatus::kInfeasible) return -1.0;
  EXPECT_EQ(s.status, milp::SolveStatus::kOptimal)
      << "N=" << n << " lp_bounding=" << lp_bounding;
  return s.has_solution() ? form.decode(s.values).total_latency_ns : -2.0;
}

TEST_P(ArLpBoundingTest, LpBoundedOptimumMatchesPropagationOnly) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  // Mmax 64 covers max_live_memory (48), so its models have no memory
  // block; Mmax 47 builds it. N = 4 at Mmax 47 takes seconds, so stop at 3.
  const arch::Device dev = ar_device(GetParam());
  for (int n = min_area_partitions(g, dev);
       n <= max_area_partitions(g, dev) + 1; ++n) {
    EXPECT_DOUBLE_EQ(ar_optimum(dev, n, true), ar_optimum(dev, n, false))
        << "Mmax 64 N=" << n;
  }
  const arch::Device tight = arch::custom("ar_dev", 200, 47, GetParam());
  for (int n = min_area_partitions(g, tight); n <= 3; ++n) {
    EXPECT_DOUBLE_EQ(ar_optimum(tight, n, true), ar_optimum(tight, n, false))
        << "Mmax 47 N=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(ReconfigRegimes, ArLpBoundingTest,
                         ::testing::Values(1.0, 50.0, 500.0, 1e7));

/// Latency the optimal reference proves at N, or -1 when N is infeasible.
/// Every verdict must be proven: kOptimal or kInfeasible, and certified.
double race_optimum(const graph::TaskGraph& g, const arch::Device& dev, int n,
                    int threads) {
  milp::SolverParams params;
  params.num_threads = threads;
  params.certify = milp::CertifyMode::kFull;
  const OptimalResult r = solve_optimal(g, dev, n, params);
  EXPECT_EQ(r.solver_stats.uncertified_verdicts, 0) << "N=" << n;
  if (r.status == milp::SolveStatus::kInfeasible) return -1.0;
  EXPECT_EQ(r.status, milp::SolveStatus::kOptimal) << "N=" << n;
  return r.best ? r.latency_ns : -2.0;
}

// The optimal reference races propagation-only against LP-bounded rounds
// under node budgets; whichever round closes its window, the proven optimum
// is the LP-bounded search's, at one thread and at four. Mmax 47 builds the
// memory block, where only the LP rounds close the tree.
class ArOptimalRaceTest : public ::testing::TestWithParam<double> {};

TEST_P(ArOptimalRaceTest, ProvesTheLpBoundedOptimum) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  for (const double mmax : {64.0, 47.0}) {
    const arch::Device dev = arch::custom("ar_dev", 200, mmax, GetParam());
    for (int n = min_area_partitions(g, dev);
         n <= max_area_partitions(g, dev) + 1; ++n) {
      const double lp_bounded = ar_optimum(dev, n, true);
      EXPECT_DOUBLE_EQ(race_optimum(g, dev, n, 1), lp_bounded)
          << "Mmax " << mmax << " N=" << n;
      EXPECT_DOUBLE_EQ(race_optimum(g, dev, n, 4), lp_bounded)
          << "Mmax " << mmax << " N=" << n << ", 4 threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ReconfigRegimes, ArOptimalRaceTest,
                         ::testing::Values(1.0, 50.0, 500.0, 1e7));

TEST(EwfOptimalRaceTest, ProvesTheLpBoundedOptimum) {
  const graph::TaskGraph g = workloads::ewf_task_graph();
  const arch::Device dev{"d", 576.0, 4096.0, 100.0};
  for (int n = 1; n <= 3; ++n) {
    IlpFormulation form(g, dev, n, max_latency(g, dev, n),
                        min_latency(g, dev, n));
    form.set_latency_objective();
    milp::SolverParams params = milp::optimality_params();
    params.objective_improvement = 1.0;
    params.num_threads = 1;
    const milp::MilpSolution s = milp::Solver(form.model(), params).solve();
    const double lp_bounded = s.status == milp::SolveStatus::kInfeasible
                                  ? -1.0
                                  : form.decode(s.values).total_latency_ns;
    EXPECT_DOUBLE_EQ(race_optimum(g, dev, n, 1), lp_bounded) << "N=" << n;
  }
}

// Table 1's model (Rmax 200, Mmax 64, Ct 50) under the LP-bounded search at
// one thread: the node LPs drop the fixed columns and the rows the node box
// satisfies, which must not weaken any of them. A fold that dropped a needed
// row would prune fewer nodes by the LP and search more.
TEST(ArOptimalReferenceTest, NodeAndLpPruneCountsArePinned) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  struct Row {
    int n;
    std::int64_t nodes, pruned_by_bound;
  };
  const Row expected[] = {{2, 3, 0}, {3, 49, 15}, {4, 57, 22}};
  ASSERT_EQ(min_area_partitions(g, dev), 2);
  ASSERT_EQ(max_area_partitions(g, dev) + 1, 4);
  for (const Row& want : expected) {
    IlpFormulation form(g, dev, want.n, max_latency(g, dev, want.n),
                        min_latency(g, dev, want.n));
    form.set_latency_objective();
    milp::SolverParams params = milp::optimality_params();
    params.objective_improvement = 1.0;
    params.num_threads = 1;
    const milp::MilpSolution s = milp::Solver(form.model(), params).solve();
    EXPECT_EQ(s.stats.nodes_explored, want.nodes) << "N=" << want.n;
    EXPECT_EQ(s.stats.nodes_pruned_by_bound, want.pruned_by_bound)
        << "N=" << want.n;
  }
}

// The optimal reference itself (solve_optimal, one thread) on the same
// model: its rounds of propagation-only and LP-bounded search repeat
// exactly, so its node counts are pinned per N along with the optimum.
TEST(ArOptimalReferenceTest, RaceNodeCountsArePinned) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  milp::SolverParams params;
  params.num_threads = 1;
  struct Row {
    int n;
    std::int64_t nodes;
    milp::SolveStatus status;
    double latency;
  };
  const Row expected[] = {{2, 3, milp::SolveStatus::kInfeasible, 0.0},
                          {3, 169, milp::SolveStatus::kOptimal, 1300.0},
                          {4, 360, milp::SolveStatus::kOptimal, 1120.0}};
  for (const Row& want : expected) {
    const OptimalResult r = solve_optimal(g, dev, want.n, params);
    EXPECT_EQ(r.nodes, want.nodes) << "N=" << want.n;
    EXPECT_EQ(r.nodes, r.solver_stats.nodes_explored) << "N=" << want.n;
    EXPECT_EQ(r.status, want.status) << "N=" << want.n;
    EXPECT_EQ(r.best.has_value(), want.latency > 0.0) << "N=" << want.n;
    if (r.best) {
      EXPECT_DOUBLE_EQ(r.latency_ns, want.latency) << "N=" << want.n;
    }
  }
}

// Table 1 (AR filter, Rmax 200, Mmax 64, Ct 50 ns, delta 10 ns): the paper's
// trace, one row per probe, from N = 2 up to the 1120 ns design at N = 4.
TEST(RefinePartitionsTest, ArTable1Trace) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  PartitionerOptions options;
  options.budget.delta = 10.0;
  options.budget.solver.num_threads = 1;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(report.feasible);
  EXPECT_DOUBLE_EQ(report.achieved_latency, 1120.0);
  EXPECT_EQ(report.best_num_partitions, 4);

  struct Row {
    int n, iteration;
    double d_max, d_min;
    IterationOutcome outcome;
    double found;  ///< Da of a found design; 0 on an infeasible window
  };
  constexpr IterationOutcome kFeasible = IterationOutcome::kFeasible;
  constexpr IterationOutcome kInfeasible = IterationOutcome::kInfeasible;
  const Row expected[] = {
      {2, 1, 2050.0, 1000.0, kInfeasible, 0.0},
      {3, 1, 2100.0, 1050.0, kFeasible, 1530.0},
      {3, 2, 1312.5, 1050.0, kFeasible, 1300.0},
      {3, 3, 1175.0, 1050.0, kInfeasible, 0.0},
      {3, 4, 1237.5, 1175.0, kInfeasible, 0.0},
      {3, 5, 1268.75, 1237.5, kInfeasible, 0.0},
      {3, 6, 1284.375, 1268.75, kInfeasible, 0.0},
      {3, 7, 1292.1875, 1284.375, kInfeasible, 0.0},
      {4, 1, 1300.0, 1100.0, kFeasible, 1300.0},
      {4, 2, 1200.0, 1100.0, kFeasible, 1120.0},
      {4, 3, 1110.0, 1100.0, kInfeasible, 0.0},
      {4, 4, 1115.0, 1110.0, kInfeasible, 0.0},
  };
  ASSERT_EQ(report.trace.size(), std::size(expected));
  for (std::size_t i = 0; i < report.trace.size(); ++i) {
    const IterationRecord& row = report.trace[i];
    const Row& want = expected[i];
    EXPECT_EQ(row.num_partitions, want.n) << "row " << i;
    EXPECT_EQ(row.iteration, want.iteration) << "row " << i;
    EXPECT_DOUBLE_EQ(row.d_max_bound, want.d_max) << "row " << i;
    EXPECT_DOUBLE_EQ(row.d_min_bound, want.d_min) << "row " << i;
    EXPECT_EQ(row.outcome, want.outcome) << "row " << i;
    EXPECT_DOUBLE_EQ(row.achieved_latency, want.found) << "row " << i;
  }
}

// A Wildforce-like 40-task random DAG (Rmax 400, Ct 10 ms, delta 1000 ns)
// at a 2000-node cap per probe, one thread: each searched probe's nodes,
// conflicts, propagation visits and tightenings are pinned, so a change that
// is meant to make the search cheaper shows here if it changes the search.
TEST(RefinePartitionsTest, RandomGraphSearchCountsArePinned) {
  workloads::RandomGraphOptions shape;
  shape.num_tasks = 40;
  shape.num_layers = 10;
  shape.num_design_points = 3;
  shape.seed = 1274;
  const graph::TaskGraph g = workloads::random_task_graph(shape);
  const arch::Device dev = arch::custom("synth", 400.0, 4096.0, 1e7);
  PartitionerOptions options;
  options.alpha = 0;
  options.gamma = 1;
  options.budget.delta = 1000.0;
  options.budget.solver.num_threads = 1;
  options.budget.solver.node_limit = 2000;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  struct Row {
    int n, iteration;
    IterationOutcome outcome;
    std::int64_t nodes, conflicts, visits, tightened;
  };
  constexpr IterationOutcome kLimit = IterationOutcome::kLimit;
  const Row expected[] = {
      {10, 1, IterationOutcome::kFeasible, 198, 0, 2'455, 1'318},
      {10, 2, kLimit, 2'000, 1'857, 169'274, 199'062},
      {10, 3, kLimit, 2'000, 1'813, 93'316, 49'454},
  };
  ASSERT_EQ(report.trace.size(), std::size(expected));
  for (std::size_t i = 0; i < report.trace.size(); ++i) {
    const IterationRecord& row = report.trace[i];
    const Row& want = expected[i];
    EXPECT_EQ(row.num_partitions, want.n) << "row " << i;
    EXPECT_EQ(row.iteration, want.iteration) << "row " << i;
    EXPECT_EQ(row.outcome, want.outcome) << "row " << i;
    EXPECT_EQ(row.nodes, want.nodes) << "row " << i;
    EXPECT_EQ(row.stats.conflicts, want.conflicts) << "row " << i;
    EXPECT_EQ(row.stats.propagated_constraints, want.visits) << "row " << i;
    EXPECT_EQ(row.stats.bounds_tightened, want.tightened) << "row " << i;
  }
}

// Table 3 (DCT, Rmax 576, Ct 100 ns, delta 200 ns) at a 5000-node cap per
// probe: each stage's first window is answered by the level fill of LB(N)'s
// optimum, a warm start at LB(N) = 3170/3030/3030 ns for N = 5/6/7, and
// LB(N) refutes every later window. No probe of the sweep runs a search.
TEST(RefinePartitionsTest, DctTable3RefutesWindowsBelowTheLatencyBound) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("dct", 576, 4096, 100);
  PartitionerOptions options;
  options.budget.delta = 200.0;
  options.budget.solver.num_threads = 1;
  options.budget.solver.node_limit = 5000;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(report.feasible);
  EXPECT_DOUBLE_EQ(report.achieved_latency, 3030.0);
  EXPECT_EQ(report.best_num_partitions, 6);
  EXPECT_TRUE(validate_design(g, dev, *report.best).ok);

  constexpr VerdictSource kWarm = VerdictSource::kWarmStart;
  constexpr VerdictSource kBound = VerdictSource::kLatencyBound;
  struct Window {
    int n, iteration;
    double d_max, d_min;
    VerdictSource source;
    double found;  ///< Da of a found design; 0 on a refuted window
  };
  const Window expected[] = {
      {5, 1, 25940.0, 1295.0, kWarm, 3170.0},
      {5, 2, 2835.3125, 1295.0, kBound, 0.0},
      {5, 3, 3015.81787109375, 2835.3125, kBound, 0.0},
      {6, 1, 3170.0, 1395.0, kWarm, 3030.0},
      {6, 2, 2282.5, 1395.0, kBound, 0.0},
      {6, 3, 2726.25, 2282.5, kBound, 0.0},
      {6, 4, 2948.125, 2726.25, kBound, 0.0},
      {7, 1, 3030.0, 1495.0, kWarm, 3030.0},
      {7, 2, 2262.5, 1495.0, kBound, 0.0},
      {7, 3, 2646.25, 2262.5, kBound, 0.0},
      {7, 4, 2838.125, 2646.25, kBound, 0.0},
  };
  ASSERT_EQ(report.trace.size(), std::size(expected));
  for (std::size_t i = 0; i < report.trace.size(); ++i) {
    const IterationRecord& row = report.trace[i];
    const Window& want = expected[i];
    EXPECT_EQ(row.num_partitions, want.n) << "row " << i;
    EXPECT_EQ(row.iteration, want.iteration) << "row " << i;
    EXPECT_DOUBLE_EQ(row.d_max_bound, want.d_max) << "row " << i;
    EXPECT_DOUBLE_EQ(row.d_min_bound, want.d_min) << "row " << i;
    EXPECT_EQ(row.verdict_source, want.source) << "row " << i;
    EXPECT_EQ(row.outcome, want.source == kWarm ? IterationOutcome::kFeasible
                                                : IterationOutcome::kInfeasible)
        << "row " << i;
    EXPECT_DOUBLE_EQ(row.achieved_latency, want.found) << "row " << i;
    EXPECT_EQ(row.nodes, 0) << "row " << i;
  }
}

// A stage's account includes its LB(N): Table 3's stages run no search,
// yet each one spent time walking the level multisets for its bound.
TEST(RefinePartitionsTest, DctTable3StagesAccountTheirBoundTime) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("dct", 576, 4096, 100);
  PartitionerOptions options;
  options.budget.delta = 200.0;
  options.budget.solver.num_threads = 1;
  options.budget.solver.node_limit = 5000;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  ASSERT_EQ(report.stages.size(), 3u);
  for (const StageAccount& stage : report.stages) {
    EXPECT_GT(stage.seconds, 0.0) << "N=" << stage.num_partitions;
  }
  for (const IterationRecord& row : report.trace) {
    EXPECT_EQ(row.seconds, 0.0);
  }
}

// Under --certify=full each bound-refuted window carries the relaxation's
// own certified infeasibility proof, each warm-start answer passes the exact
// check against its stage's model, and the run stays fully certified.
TEST(RefinePartitionsTest, DctTable3BoundVerdictsAreCertified) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("dct", 576, 4096, 100);
  PartitionerOptions options;
  options.budget.delta = 200.0;
  options.budget.solver.num_threads = 1;
  options.budget.solver.node_limit = 5000;
  options.budget.solver.certify = milp::CertifyMode::kFull;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  EXPECT_DOUBLE_EQ(report.achieved_latency, 3030.0);
  EXPECT_FALSE(report.uncertified());
  int bound_rows = 0, warm_start_rows = 0;
  for (const IterationRecord& row : report.trace) {
    EXPECT_NE(row.outcome, IterationOutcome::kLimit);
    if (row.verdict_source == VerdictSource::kSearch) continue;
    EXPECT_EQ(row.certified, milp::CertifyStatus::kCertified);
    EXPECT_GE(row.stats.certificates_checked, 1);
    if (row.verdict_source == VerdictSource::kWarmStart) {
      ++warm_start_rows;
      EXPECT_EQ(row.outcome, IterationOutcome::kFeasible);
      EXPECT_EQ(row.nodes, 0);
    } else {
      ++bound_rows;
      EXPECT_EQ(row.outcome, IterationOutcome::kInfeasible);
    }
  }
  EXPECT_EQ(bound_rows, 8);
  EXPECT_EQ(warm_start_rows, 3);
}

// EWF on the DCT's device: N=1 ends at Da = 1130 ns, and at N=2 the
// portfolio holds a design at LB(2) = 1110 ns, which answers the stage's
// only window without a search.
TEST(RefinePartitionsTest, EwfSecondStageIsAnsweredByItsWarmStart) {
  const graph::TaskGraph g = workloads::ewf_task_graph();
  const arch::Device dev = arch::custom("ewf", 576, 4096, 100);
  PartitionerOptions options;
  options.budget.solver.num_threads = 1;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(report.feasible);
  EXPECT_DOUBLE_EQ(report.achieved_latency, 1110.0);
  EXPECT_EQ(report.best_num_partitions, 2);
  EXPECT_DOUBLE_EQ(latency_relaxation_bound(g, dev, 2).ns, 1110.0);
  ASSERT_FALSE(report.trace.empty());
  const IterationRecord& last = report.trace.back();
  EXPECT_EQ(last.num_partitions, 2);
  EXPECT_EQ(last.iteration, 1);
  EXPECT_EQ(last.verdict_source, VerdictSource::kWarmStart);
  EXPECT_EQ(last.outcome, IterationOutcome::kFeasible);
  EXPECT_DOUBLE_EQ(last.achieved_latency, 1110.0);
  EXPECT_EQ(last.nodes, 0);
  for (const IterationRecord& row : report.trace) {
    if (row.num_partitions == 1) {
      EXPECT_EQ(row.verdict_source, VerdictSource::kSearch);
    }
  }
}

// Property sweep: on random small graphs the iterative result is within
// delta of the exhaustive optimum whenever both exist.
class RandomGraphOptimalityTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphOptimalityTest, IterativeWithinDeltaOfExhaustive) {
  workloads::RandomGraphOptions gopts;
  gopts.num_tasks = 6;
  gopts.num_layers = 3;
  gopts.num_design_points = 2;
  gopts.seed = GetParam();
  const graph::TaskGraph g = workloads::random_task_graph(gopts);
  const arch::Device dev = arch::custom("d", 260, 1000, 40);

  PartitionerOptions options;
  options.budget.delta = 25.0;
  options.gamma = 1;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  // Seed 7 answers its three stages by warm starts at LB(N).
  EXPECT_GE(testing::expect_warm_start_rows(g, dev, report),
            GetParam() == 7 ? 3 : 0);

  const int n_hi = max_area_partitions(g, dev) + 1;
  const auto brute = exhaustive_optimal(g, dev, n_hi);
  if (!report.feasible) {
    // The iterative procedure only explores N in [Nmin+alpha, Nmax+gamma];
    // exhaustive search over the same cap must also fail.
    EXPECT_FALSE(brute.has_value());
    return;
  }
  ASSERT_TRUE(brute.has_value());
  EXPECT_TRUE(validate_design(g, dev, *report.best).ok);
  EXPECT_GE(report.achieved_latency, brute->total_latency_ns - 1e-6);
  EXPECT_LE(report.achieved_latency,
            brute->total_latency_ns + options.budget.delta + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphOptimalityTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace sparcs::core
