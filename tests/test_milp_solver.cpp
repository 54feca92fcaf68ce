#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "milp/branch_and_bound.hpp"
#include "milp/checker.hpp"
#include "milp/solver.hpp"

namespace sparcs::milp {
namespace {

TEST(MilpSolverTest, KnapsackOptimal) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6 -> best {a,c}? values:
  // {a,b}: w7 infeasible; {b,c}: w6 v20; {a,c}: w5 v17; so optimum 20.
  Model m("knapsack");
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(c) <=
                       6.0, "cap");
  m.set_objective(10.0 * LinExpr(a) + 13.0 * LinExpr(b) + 7.0 * LinExpr(c),
                  /*minimize=*/false);
  const MilpSolution s = Solver(m, optimality_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-6);
  EXPECT_NEAR(s.values[a], 0.0, 1e-6);
  EXPECT_NEAR(s.values[b], 1.0, 1e-6);
  EXPECT_NEAR(s.values[c], 1.0, 1e-6);
}

TEST(MilpSolverTest, InfeasibleBinaryModel) {
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint(LinExpr(x) >= 1.0, "force1");
  m.add_constraint(LinExpr(x) <= 0.0, "force0");
  const MilpSolution s = Solver(m).solve();
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(MilpSolverTest, FirstFeasibleStopsEarly) {
  Model m;
  std::vector<VarId> xs;
  for (int i = 0; i < 10; ++i) xs.push_back(m.add_binary("x" + std::to_string(i)));
  LinExpr sum;
  for (const VarId x : xs) sum += LinExpr(x);
  m.add_constraint(sum == 5.0, "pick5");
  const MilpSolution s = Solver(m, first_feasible_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kFeasible);
  EXPECT_TRUE(check_solution(m, s.values).ok);
}

TEST(MilpSolverTest, PureFeasibilityReportsOptimalWhenExhaustive) {
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint(LinExpr(x) == 1.0, "fix");
  const MilpSolution s = Solver(m).solve();  // no objective, no early stop
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 1.0, 1e-9);
}

TEST(MilpSolverTest, AssignmentProblem) {
  // 3x3 assignment, cost matrix with known optimum 1+2+3 = 6 on diagonal
  // after permutation. costs: row i to col j.
  const double cost[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  // Optimal: (0,1)+(1,0)+(2,2) = 1 + 2 + 2 = 5.
  Model m("assign");
  VarId y[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      y[i][j] = m.add_binary("y" + std::to_string(i) + std::to_string(j));
    }
  }
  for (int i = 0; i < 3; ++i) {
    LinExpr row, col;
    for (int j = 0; j < 3; ++j) {
      row += LinExpr(y[i][j]);
      col += LinExpr(y[j][i]);
    }
    m.add_constraint(row == 1.0, "row" + std::to_string(i));
    m.add_constraint(col == 1.0, "col" + std::to_string(i));
  }
  LinExpr obj;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) obj += cost[i][j] * LinExpr(y[i][j]);
  }
  m.set_objective(obj);
  const MilpSolution s = Solver(m, optimality_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(MilpSolverTest, GeneralIntegerDomainSplit) {
  // min x + y s.t. 3x + 2y >= 13, x,y integer in [0, 100].
  // Candidates: x=1,y=5 -> 6; x=3,y=2 -> 5; x=5,y=0 -> 5... check smaller:
  // total t: minimize x+y with 3x+2y>=13: x=3,y=2 (sum 5) works (13>=13).
  // sum 4: max 3x+2y with x+y=4 is x=4: 12 < 13 -> impossible. Optimum 5.
  Model m;
  const VarId x = m.add_integer(0, 100, "x");
  const VarId y = m.add_integer(0, 100, "y");
  m.add_constraint(3.0 * LinExpr(x) + 2.0 * LinExpr(y) >= 13.0, "need");
  m.set_objective(LinExpr(x) + LinExpr(y));
  const MilpSolution s = Solver(m, optimality_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(MilpSolverTest, MixedIntegerContinuous) {
  // min d s.t. d >= 7x, d >= 3(1-x), x binary, d continuous in [0, 100].
  // x=0 -> d=3; x=1 -> d=7. Optimum d=3 at x=0.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId d = m.add_continuous(0, 100, "d");
  m.add_constraint(7.0 * LinExpr(x) - LinExpr(d) <= 0.0, "c1");
  m.add_constraint(-3.0 * LinExpr(x) - LinExpr(d) <= -3.0, "c2");
  m.set_objective(LinExpr(d));
  const MilpSolution s = Solver(m, optimality_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
  EXPECT_NEAR(s.values[x], 0.0, 1e-6);
}

TEST(MilpSolverTest, ContinuousOnlyModelSolvedByCompletion) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  const VarId y = m.add_continuous(0, 10, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y) >= 6.0, "c");
  m.set_objective(2.0 * LinExpr(x) + LinExpr(y));
  const MilpSolution s = Solver(m).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.0, 1e-6);  // all weight on y
}

TEST(MilpSolverTest, UnboundedContinuousObjective) {
  Model m;
  const VarId x = m.add_continuous(-kInfinity, kInfinity, "x");
  m.add_constraint(LinExpr(x) <= 5.0, "c");
  m.set_objective(LinExpr(x));
  const MilpSolution s = Solver(m).solve();
  EXPECT_EQ(s.status, SolveStatus::kUnbounded);
}

TEST(MilpSolverTest, NodeLimitReported) {
  // A model engineered to need many nodes: pigeonhole-ish equality system.
  Model m;
  std::vector<VarId> xs;
  for (int i = 0; i < 24; ++i) xs.push_back(m.add_binary("x" + std::to_string(i)));
  LinExpr sum;
  for (const VarId x : xs) sum += LinExpr(x);
  // Fractional requirement makes it infeasible but hard for pure DFS without
  // the parity insight; the node limit must kick in or it proves infeasible
  // quickly via integer rounding. Use a wide window to accept either, but a
  // tiny node budget must never report optimal-with-solution.
  m.add_constraint(2.0 * sum == 23.0, "odd");
  SolverParams params;
  params.node_limit = 5;
  const MilpSolution s = Solver(m, params).solve();
  EXPECT_FALSE(s.has_solution());
}

TEST(MilpSolverTest, FirstFeasibleAtExactNodeBudgetStaysFeasible) {
  // Subset sum over the 12 primes 31..79 hitting 285: the first feasible
  // leaf is found deep in the tree. A node limit equal to the unlimited
  // solve's own node count is never exceeded, so the finished search must
  // not report a limit on its way out.
  const double weights[] = {31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79};
  Model m("subset_sum");
  LinExpr sum;
  for (const double w : weights) {
    sum += w * LinExpr(m.add_binary("x" + std::to_string(m.num_vars())));
  }
  m.add_constraint(std::move(sum) == 285.0, "target");

  SolverParams params = first_feasible_params();
  params.num_threads = 1;
  const MilpSolution unlimited = Solver(m, params).solve();
  ASSERT_EQ(unlimited.status, SolveStatus::kFeasible);
  ASSERT_GT(unlimited.stats.nodes_explored, 1);

  params.node_limit = unlimited.stats.nodes_explored;
  const MilpSolution capped = Solver(m, params).solve();
  EXPECT_EQ(capped.status, SolveStatus::kFeasible);
  EXPECT_EQ(capped.values, unlimited.values);
  EXPECT_EQ(capped.stats.nodes_explored, unlimited.stats.nodes_explored);
}

TEST(MilpSolverTest, BranchPriorityRespected) {
  // Two independent binaries; the higher-priority one should be branched
  // first; we can only observe the result, so just check correctness.
  Model m;
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  m.set_branch_priority(b, 10);
  m.add_constraint(LinExpr(a) + LinExpr(b) == 1.0, "xor");
  m.set_objective(LinExpr(a) * 2.0 + LinExpr(b));
  const MilpSolution s = Solver(m, optimality_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
  EXPECT_NEAR(s.values[b], 1.0, 1e-6);
}

TEST(MilpSolverTest, BranchHintGuidesFirstFeasible) {
  Model m;
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  m.add_constraint(LinExpr(a) + LinExpr(b) == 1.0, "xor");
  m.set_branch_hint(a, 0.0);
  const MilpSolution s = Solver(m, first_feasible_params()).solve();
  ASSERT_TRUE(s.has_solution());
  // Hint a=0 makes the first feasible assignment b=1.
  EXPECT_NEAR(s.values[a], 0.0, 1e-6);
  EXPECT_NEAR(s.values[b], 1.0, 1e-6);
}

TEST(MilpSolverTest, EqualityWithContinuousCompletion) {
  Model m;
  const VarId x = m.add_binary("x");
  const VarId d = m.add_continuous(0, 50, "d");
  m.add_constraint(LinExpr(d) - 10.0 * LinExpr(x) == 2.0, "link");
  m.set_objective(LinExpr(d));
  const MilpSolution s = Solver(m, optimality_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
  EXPECT_NEAR(s.values[x], 0.0, 1e-6);
}

TEST(MilpSolverTest, MaximizationSignHandling) {
  Model m;
  const VarId x = m.add_integer(0, 9, "x");
  m.add_constraint(LinExpr(x) <= 6.0, "cap");
  m.set_objective(LinExpr(x), /*minimize=*/false);
  const MilpSolution s = Solver(m, optimality_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.0, 1e-6);
}

TEST(MilpSolverTest, CheckerRejectsBadSolutions) {
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint(LinExpr(x) >= 1.0, "c");
  EXPECT_FALSE(check_solution(m, {0.0}).ok);
  EXPECT_TRUE(check_solution(m, {1.0}).ok);
  EXPECT_FALSE(check_solution(m, {0.5}).ok);   // not integral
  EXPECT_FALSE(check_solution(m, {}).ok);      // wrong arity
}

TEST(MilpSolverTest, SolverStatsArePopulated) {
  // optimality_params() turns on LP bounding, so the simplex must run and
  // every layer of SolverStats has to be filled in.
  Model m("stats");
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(c) <=
                       6.0, "cap");
  // The simplex starts at a = b = c = 0, where the cap row already holds; a
  // row that start point violates makes the node LPs pivot.
  m.add_constraint(LinExpr(a) + LinExpr(b) + LinExpr(c) >= 1.0, "any");
  m.set_objective(10.0 * LinExpr(a) + 13.0 * LinExpr(b) + 7.0 * LinExpr(c),
                  /*minimize=*/false);
  const MilpSolution s = Solver(m, optimality_params()).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GE(s.stats.nodes_explored, 1);
  EXPECT_GE(s.stats.simplex_calls, 1);
  EXPECT_GT(s.stats.simplex_iterations, 0);
  EXPECT_GE(s.stats.incumbent_updates, 1);
  EXPECT_GE(s.stats.max_depth, 1);
}

TEST(MilpSolverTest, SolverStatsMergeSumsAndMaxes) {
  SolverStats a;
  a.nodes_explored = 3;
  a.simplex_iterations = 10;
  a.max_depth = 2;
  SolverStats b;
  b.nodes_explored = 4;
  b.simplex_iterations = 5;
  b.max_depth = 7;
  a.merge(b);
  EXPECT_EQ(a.nodes_explored, 7);
  EXPECT_EQ(a.simplex_iterations, 15);
  EXPECT_EQ(a.max_depth, 7);  // depth is a maximum, not a sum
}

TEST(MilpSolverTest, FieldTableDrivesMergeAndJson) {
  // Distinct values per counter through the table itself, so a row wired to
  // the wrong member or merged by the wrong rule shows up as a mismatch.
  SolverStats a;
  SolverStats b;
  std::int64_t i = 0;
  for (const SolverStatsField& f : kSolverStatsFields) {
    a.*f.member = 100 + i;
    b.*f.member = 1000 + 7 * i;
    ++i;
  }
  a.merge(b);
  i = 0;
  std::size_t last_pos = 0;
  const std::string json = a.to_json();
  for (const SolverStatsField& f : kSolverStatsFields) {
    const std::int64_t expected =
        f.merge == SolverStatsField::Merge::kMax
            ? std::max<std::int64_t>(100 + i, 1000 + 7 * i)
            : (100 + i) + (1000 + 7 * i);
    EXPECT_EQ(a.*f.member, expected) << f.name;
    // Every key once, in table order, carrying the merged value.
    const std::string entry =
        "\"" + std::string(f.name) + "\": " + std::to_string(expected);
    const std::size_t pos = json.find(entry);
    ASSERT_NE(pos, std::string::npos) << f.name << " in " << json;
    EXPECT_GT(pos, last_pos) << f.name << " out of table order";
    last_pos = pos;
    ++i;
  }
  EXPECT_EQ(a.max_depth, 1000 + 7 * 4);  // the one kMax row
  EXPECT_GT(json.find("\"convergence\""), last_pos);
}

// Each solve's t_sec counts from its own start, so merging two solves
// keeps their timelines whole, in merge order, even where the timestamps
// interleave.
TEST(MilpSolverTest, SolverStatsMergeConcatenatesTimelinesInMergeOrder) {
  SolverStats first;
  first.convergence = {{0.1, 30.0, 1}, {0.3, 20.0, 5}};
  SolverStats second;
  second.convergence = {{0.05, 25.0, 2}, {0.2, 10.0, 9}};
  first.merge(second);
  std::vector<double> t_sec;
  for (const ConvergenceEvent& event : first.convergence) {
    t_sec.push_back(event.t_sec);
  }
  EXPECT_EQ(t_sec, (std::vector<double>{0.1, 0.3, 0.05, 0.2}));
  EXPECT_EQ(first.convergence[2].objective, 25.0);
}

TEST(MilpSolverTest, InfeasibleModelCountsPrunedNodes) {
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint(LinExpr(x) >= 1.0, "force1");
  m.add_constraint(LinExpr(x) <= 0.0, "force0");
  const MilpSolution s = Solver(m).solve();
  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.stats.incumbent_updates, 0);
}

TEST(MilpSolverTest, LpBoundingPrunesAndAgrees) {
  // Same knapsack solved with and without LP bounding must agree.
  Model m("knapsack2");
  std::vector<VarId> xs;
  const double w[] = {3, 5, 7, 2, 4, 6};
  const double v[] = {9, 11, 13, 5, 8, 12};
  LinExpr weight, value;
  for (int i = 0; i < 6; ++i) {
    xs.push_back(m.add_binary("x" + std::to_string(i)));
    weight += w[i] * LinExpr(xs.back());
    value += v[i] * LinExpr(xs.back());
  }
  m.add_constraint(weight <= 12.0, "cap");
  m.set_objective(value, /*minimize=*/false);

  SolverParams no_lp;
  no_lp.use_lp_bounding = false;
  const MilpSolution s1 = Solver(m, no_lp).solve();
  SolverParams with_lp;
  with_lp.use_lp_bounding = true;
  const MilpSolution s2 = Solver(m, with_lp).solve();
  ASSERT_EQ(s1.status, SolveStatus::kOptimal);
  ASSERT_EQ(s2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s1.objective, s2.objective, 1e-6);
}

// The pool never runs more workers than the machine has hardware threads,
// whatever a caller (or a submit's "threads") asks for; worker_count is pure,
// so this starts no thread.
TEST(MilpSolverTest, WorkerCountIsCappedAtTheHardware) {
  EXPECT_EQ(worker_count(1'000'000, 100, 4), 4);
  EXPECT_EQ(worker_count(1'000'000, 100, 0), 1);  // unknown hardware
  EXPECT_EQ(worker_count(2, 100, 4), 2);
  EXPECT_EQ(worker_count(0, 100, 4), 4);  // 0 = one per hardware thread
  EXPECT_EQ(worker_count(1, 100, 4), 1);
  EXPECT_EQ(worker_count(8, 47, 4), 1);  // under 48 variables: one worker
  EXPECT_EQ(worker_count(8, 48, 4), 4);
}

}  // namespace
}  // namespace sparcs::milp
