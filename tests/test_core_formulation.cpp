#include <gtest/gtest.h>

#include "arch/device.hpp"
#include "core/baselines.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
#include "workloads/ar_filter.hpp"

namespace sparcs::core {
namespace {

std::vector<graph::DesignPoint> two_points() {
  return {{"fast", 80, 100}, {"small", 40, 220}};
}

/// Diamond a -> {b, c} -> d with two design points per task.
graph::TaskGraph diamond() {
  graph::TaskGraph g("diamond");
  const graph::TaskId a = g.add_task("a", two_points(), 4);
  const graph::TaskId b = g.add_task("b", two_points());
  const graph::TaskId c = g.add_task("c", two_points());
  const graph::TaskId d = g.add_task("d", two_points(), 0, 4);
  g.add_edge(a, b, 2);
  g.add_edge(a, c, 2);
  g.add_edge(b, d, 2);
  g.add_edge(c, d, 2);
  return g;
}

PartitionedDesign solve_feasible(const IlpFormulation& form) {
  const milp::MilpSolution s = milp::Solver(form.model(), milp::first_feasible_params()).solve();
  EXPECT_TRUE(s.has_solution()) << to_string(s.status);
  return form.decode(s.values);
}

TEST(FormulationTest, FeasibleSolutionDecodesAndValidates) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 200, 64, 10);
  IlpFormulation form(g, dev, 2, max_latency(g, dev, 2),
                      min_latency(g, dev, 2));
  const PartitionedDesign design = solve_feasible(form);
  EXPECT_TRUE(validate_design(g, dev, design).ok);
  EXPECT_LE(design.total_latency_ns, max_latency(g, dev, 2) + 1e-6);
}

TEST(FormulationTest, SingleTaskSinglePartition) {
  graph::TaskGraph g("one");
  g.add_task("only", two_points());
  const arch::Device dev = arch::custom("d", 100, 64, 10);
  IlpFormulation form(g, dev, 1, 1000, 0);
  const PartitionedDesign design = solve_feasible(form);
  EXPECT_EQ(design.num_partitions_used, 1);
  EXPECT_TRUE(validate_design(g, dev, design).ok);
}

TEST(FormulationTest, AreaPressureForcesMultiplePartitions) {
  const graph::TaskGraph g = diamond();
  // Only one small design point fits per partition (Rmax = 45).
  const arch::Device dev = arch::custom("d", 45, 64, 10);
  IlpFormulation form(g, dev, 4, max_latency(g, dev, 4),
                      min_latency(g, dev, 4));
  const PartitionedDesign design = solve_feasible(form);
  EXPECT_EQ(design.num_partitions_used, 4);
  for (const TaskAssignment& a : design.assignment) {
    // Only the small (40 CLB) point fits.
    EXPECT_DOUBLE_EQ(
        g.task(0).design_points[static_cast<std::size_t>(a.design_point)].area,
        40.0);
  }
}

TEST(FormulationTest, InfeasibleWhenLatencyWindowTooTight) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 200, 64, 10);
  // Even the all-fast critical path costs 300 + reconfig; ask for 200.
  IlpFormulation form(g, dev, 2, 200.0, 0.0);
  const milp::MilpSolution s = milp::Solver(form.model(), milp::first_feasible_params()).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kInfeasible);
}

TEST(FormulationTest, InfeasibleWhenAreaImpossible) {
  const graph::TaskGraph g = diamond();
  // Total min area = 160 > 1 partition x 100.
  const arch::Device dev = arch::custom("d", 100, 64, 10);
  IlpFormulation form(g, dev, 1, 1e6, 0.0);
  const milp::MilpSolution s = milp::Solver(form.model(), milp::first_feasible_params()).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kInfeasible);
  // The total-area cut lets the solver prove this without branching.
  EXPECT_EQ(s.stats.nodes_explored, 0);
}

TEST(FormulationTest, MemoryConstraintForcesColocation) {
  // Chain a -> b with a huge transfer: separating them needs 50 units of
  // memory, but the device only has 10, so they must share a partition.
  graph::TaskGraph g("mem");
  const graph::TaskId a = g.add_task("a", {{"m", 30, 100}});
  const graph::TaskId b = g.add_task("b", {{"m", 30, 100}});
  g.add_edge(a, b, 50);
  const arch::Device dev = arch::custom("d", 100, 10, 10);
  IlpFormulation form(g, dev, 2, 1e6, 0.0);
  const PartitionedDesign design = solve_feasible(form);
  EXPECT_EQ(design.assignment[static_cast<std::size_t>(a)].partition,
            design.assignment[static_cast<std::size_t>(b)].partition);
}

TEST(FormulationTest, MemoryConstraintDetectsInfeasibility) {
  // Same chain but the tasks cannot share a partition (area) and cannot be
  // separated (memory): infeasible.
  graph::TaskGraph g("mem2");
  const graph::TaskId a = g.add_task("a", {{"m", 80, 100}});
  const graph::TaskId b = g.add_task("b", {{"m", 80, 100}});
  g.add_edge(a, b, 50);
  const arch::Device dev = arch::custom("d", 100, 10, 10);
  IlpFormulation form(g, dev, 2, 1e6, 0.0);
  const milp::MilpSolution s = milp::Solver(form.model(), milp::first_feasible_params()).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kInfeasible);
}

TEST(FormulationTest, EnvironmentDataCountsAgainstMemory) {
  graph::TaskGraph g("env");
  g.add_task("a", {{"m", 30, 100}}, /*env_in=*/20);
  g.add_task("b", {{"m", 30, 100}}, /*env_in=*/20);
  const arch::Device dev = arch::custom("d", 100, 30, 10);
  // Both env inputs (40 units) alive during partition 1 exceed M_max = 30,
  // regardless of placement: infeasible even with 2 partitions? No —
  // placing b in partition 2 keeps its input alive during P1 as well under
  // our conservative load-ahead model, so this must be infeasible.
  IlpFormulation form(g, dev, 2, 1e6, 0.0);
  const milp::MilpSolution s = milp::Solver(form.model(), milp::first_feasible_params()).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kInfeasible);
}

TEST(FormulationTest, OrderFormsAgree) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 90, 64, 10);
  for (int n = 2; n <= 3; ++n) {
    FormulationOptions pairwise;
    pairwise.order_form = FormulationOptions::OrderForm::kPairwise;
    FormulationOptions aggregated;
    aggregated.order_form = FormulationOptions::OrderForm::kAggregated;
    IlpFormulation f1(g, dev, n, max_latency(g, dev, n),
                      min_latency(g, dev, n), pairwise);
    IlpFormulation f2(g, dev, n, max_latency(g, dev, n),
                      min_latency(g, dev, n), aggregated);
    f1.set_latency_objective();
    f2.set_latency_objective();
    const milp::MilpSolution s1 = milp::Solver(f1.model(), milp::optimality_params()).solve();
    const milp::MilpSolution s2 = milp::Solver(f2.model(), milp::optimality_params()).solve();
    ASSERT_EQ(s1.status, milp::SolveStatus::kOptimal);
    ASSERT_EQ(s2.status, milp::SolveStatus::kOptimal);
    EXPECT_NEAR(s1.objective, s2.objective, 1e-6) << "N=" << n;
  }
}

TEST(FormulationTest, LatencyFormsAgree) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 200, 64, 10);
  for (int n = 1; n <= 3; ++n) {
    FormulationOptions path;
    path.latency_form = FormulationOptions::LatencyForm::kPathBased;
    FormulationOptions flow;
    flow.latency_form = FormulationOptions::LatencyForm::kFlowBased;
    IlpFormulation f1(g, dev, n, max_latency(g, dev, n),
                      min_latency(g, dev, n), path);
    IlpFormulation f2(g, dev, n, max_latency(g, dev, n),
                      min_latency(g, dev, n), flow);
    f1.set_latency_objective();
    f2.set_latency_objective();
    const milp::MilpSolution s1 = milp::Solver(f1.model(), milp::optimality_params()).solve();
    const milp::MilpSolution s2 = milp::Solver(f2.model(), milp::optimality_params()).solve();
    ASSERT_EQ(s1.status, milp::SolveStatus::kOptimal);
    ASSERT_EQ(s2.status, milp::SolveStatus::kOptimal);
    // The decoded designs must agree on real latency (d_p values may differ
    // in slack, so compare recomputed designs).
    const PartitionedDesign d1 = f1.decode(s1.values);
    const PartitionedDesign d2 = f2.decode(s2.values);
    EXPECT_NEAR(d1.total_latency_ns, d2.total_latency_ns, 1e-6) << "N=" << n;
  }
}

TEST(FormulationTest, OptimalMatchesExhaustiveEnumeration) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 120, 64, 30);
  const int n = 3;
  IlpFormulation form(g, dev, n, max_latency(g, dev, n),
                      min_latency(g, dev, n));
  form.set_latency_objective();
  const milp::MilpSolution s = milp::Solver(form.model(), milp::optimality_params()).solve();
  ASSERT_EQ(s.status, milp::SolveStatus::kOptimal);
  const PartitionedDesign ilp_best = form.decode(s.values);

  const auto brute = exhaustive_optimal(g, dev, n);
  ASSERT_TRUE(brute.has_value());
  EXPECT_NEAR(ilp_best.total_latency_ns, brute->total_latency_ns, 1e-6);
}

TEST(FormulationTest, StrengtheningCutsPreserveFeasibilitySet) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 120, 64, 30);
  for (const bool cuts : {false, true}) {
    FormulationOptions options;
    options.strengthening_cuts = cuts;
    IlpFormulation form(g, dev, 2, max_latency(g, dev, 2),
                        min_latency(g, dev, 2), options);
    form.set_latency_objective();
    const milp::MilpSolution s = milp::Solver(form.model(), milp::optimality_params()).solve();
    ASSERT_EQ(s.status, milp::SolveStatus::kOptimal);
    const PartitionedDesign best = form.decode(s.values);
    // Optimal latency must be identical with and without cuts (538? value
    // asserted indirectly through the exhaustive check above); here we just
    // require both runs agree.
    static double reference = -1.0;
    if (reference < 0) {
      reference = best.total_latency_ns;
    } else {
      EXPECT_NEAR(best.total_latency_ns, reference, 1e-6);
    }
  }
}

TEST(FormulationTest, EtaReflectsUsedPartitions) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 400, 64, 1000);
  // Plenty of area: everything fits in one partition even with N = 3, and
  // the reconfiguration cost pushes the optimum to eta = 1.
  IlpFormulation form(g, dev, 3, max_latency(g, dev, 3), 0.0);
  form.set_latency_objective();
  const milp::MilpSolution s = milp::Solver(form.model(), milp::optimality_params()).solve();
  ASSERT_EQ(s.status, milp::SolveStatus::kOptimal);
  const PartitionedDesign design = form.decode(s.values);
  EXPECT_EQ(design.num_partitions_used, 1);
}

TEST(FormulationTest, DminWindowExcludesFastSolutions) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 400, 64, 10);
  // Force the search into the region [700, inf): the all-fast one-partition
  // solution (300 + 10) is excluded by eq. (10).
  IlpFormulation form(g, dev, 1, 1e6, 700.0);
  const milp::MilpSolution s = milp::Solver(form.model(), milp::first_feasible_params()).solve();
  ASSERT_TRUE(s.has_solution());
  // d_1 must carry at least 700 - 10 of latency budget; the decoded design
  // may be faster in reality, but the model's d/eta satisfied the window.
  EXPECT_TRUE(validate_design(g, dev, form.decode(s.values)).ok);
}

TEST(FormulationTest, RejectsEmptyWindow) {
  const graph::TaskGraph g = diamond();
  const arch::Device dev = arch::custom("d", 400, 64, 10);
  EXPECT_THROW(IlpFormulation(g, dev, 2, 100.0, 200.0),
               InvalidArgumentError);
  EXPECT_THROW(IlpFormulation(g, dev, 0, 200.0, 100.0),
               InvalidArgumentError);
}

TEST(FormulationTest, ArFilterModelStats) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("d", 200, 64, 50);
  IlpFormulation form(g, dev, 3, max_latency(g, dev, 3),
                      min_latency(g, dev, 3));
  const milp::ModelStats stats = form.model().stats();
  // 6 tasks x 3 partitions x {3,1,2,2,1,1} points = 30 Y vars, plus d, eta
  // and the cut variables.
  EXPECT_GE(stats.num_binary, 30);
  EXPECT_GE(stats.num_constraints, 20);
  EXPECT_GT(stats.num_nonzeros, 100);
}

// The memory rows (3)-(5) are built only when M_max is below the most live
// data any boundary can hold: 48 units on the AR filter.
TEST(FormulationTest, MemoryRowsOnlyWhenMmaxCanBind) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  ASSERT_DOUBLE_EQ(max_live_memory(g), 48.0);
  const auto memory_names = [](const milp::Model& model) {
    int count = 0;
    const auto is_memory = [](const std::string& name) {
      return name.rfind("mem_p", 0) == 0 || name.rfind("wdef_p", 0) == 0 ||
             name.rfind("w_p", 0) == 0;
    };
    for (const milp::VarInfo& v : model.vars()) count += is_memory(v.name);
    for (const milp::ConstraintInfo& c : model.constraints()) {
      count += is_memory(c.name);
    }
    return count;
  };
  for (const double mmax : {64.0, 48.0, 47.0}) {
    const arch::Device dev = arch::custom("d", 200, mmax, 50);
    IlpFormulation form(g, dev, 3, max_latency(g, dev, 3),
                        min_latency(g, dev, 3));
    if (mmax >= 48.0) {
      EXPECT_EQ(memory_names(form.model()), 0) << "Mmax " << mmax;
    } else {
      EXPECT_GT(memory_names(form.model()), 0) << "Mmax " << mmax;
      FormulationOptions off;
      off.include_memory = false;
      IlpFormulation forced(g, dev, 3, max_latency(g, dev, 3),
                            min_latency(g, dev, 3), off);
      EXPECT_EQ(memory_names(forced.model()), 0);
    }
  }
}

}  // namespace
}  // namespace sparcs::core
