// Tests of the milp::Solver session API: construct / solve / re-solve with
// tightened parameters, cooperative cancellation through the
// SolverParams::cancel token, the incumbent timeline, and one-worker vs
// four-worker agreement.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "milp/checker.hpp"
#include "milp/solver.hpp"
#include "support/logging.hpp"
#include "support/observer.hpp"
#include "support/telemetry.hpp"

namespace sparcs::milp {
namespace {

Model knapsack_model() {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6; optimum 20 at {b, c}.
  Model m("knapsack");
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(c) <=
                       6.0, "cap");
  m.set_objective(10.0 * LinExpr(a) + 13.0 * LinExpr(b) + 7.0 * LinExpr(c),
                  /*minimize=*/false);
  return m;
}

/// Infeasible model whose infeasibility needs exhaustive search to prove:
/// an even-coefficient sum can never hit an odd target, but interval
/// propagation cannot see parity, so the DFS enumerates the whole cube.
/// `vars` >= 48 also clears the parallel dispatch threshold.
Model parity_hard_model(int vars) {
  Model m("parity");
  LinExpr sum;
  for (int i = 0; i < vars; ++i) {
    sum += 2.0 * LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == static_cast<double>(vars) + 1.0, "odd");
  return m;
}

/// 60 binaries, pick exactly 7: far above the helper-thread threshold, many
/// feasible leaves.
Model pick7_model() {
  Model m("pick7");
  LinExpr sum;
  for (int i = 0; i < 60; ++i) {
    sum += LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == 7.0, "pick7");
  return m;
}

/// Occurrences of `needle` in `text`.
int count_of(const std::string& text, const std::string& needle) {
  int n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(MilpSessionTest, SolveThenResolveWithTightenedParams) {
  const Model m = knapsack_model();
  Solver solver(m, optimality_params());

  const MilpSolution first = solver.solve();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, 20.0, 1e-6);

  // Re-solve the same session in first-feasible mode: parameter changes made
  // through params() must apply to the next solve().
  solver.params().stop_at_first_feasible = true;
  const MilpSolution second = solver.solve();
  ASSERT_TRUE(second.has_solution());
  EXPECT_TRUE(check_solution(m, second.values).ok);

  // And back to optimality: the session is reusable indefinitely.
  solver.params().stop_at_first_feasible = false;
  const MilpSolution third = solver.solve();
  ASSERT_EQ(third.status, SolveStatus::kOptimal);
  EXPECT_NEAR(third.objective, first.objective, 1e-9);
}

// A session compiles its model once and recompiles when the structure
// changes: after a new row, variable, objective or branch priority the next
// solve searches the grown model exactly as a fresh Solver does.
TEST(MilpSessionTest, SessionRecompilesAModelThatGrew) {
  Model m = knapsack_model();
  const VarId a = 0, b = 1, c = 2;
  SolverParams params = optimality_params();
  params.num_threads = 1;
  Solver session(m, params);
  ASSERT_NEAR(session.solve().objective, 20.0, 1e-6);
  const auto expect_fresh = [&](double objective, const char* label) {
    const MilpSolution reused = session.solve();
    const MilpSolution fresh = Solver(m, params).solve();
    ASSERT_EQ(reused.status, SolveStatus::kOptimal) << label;
    EXPECT_NEAR(reused.objective, objective, 1e-6) << label;
    EXPECT_EQ(reused.values.size(), static_cast<std::size_t>(m.num_vars()))
        << label;
    EXPECT_EQ(reused.values, fresh.values) << label;
    EXPECT_EQ(reused.stats.nodes_explored, fresh.stats.nodes_explored)
        << label;
    EXPECT_EQ(reused.stats.propagated_constraints,
              fresh.stats.propagated_constraints)
        << label;
  };
  // Without c, a or b fits alone: 13.
  m.add_constraint(LinExpr(c) <= 0.0, "no_c");
  expect_fresh(13.0, "row");
  const VarId d = m.add_binary("d");
  expect_fresh(13.0, "variable");
  // d is worth 9 at weight 2: b and d fill the knapsack, 22.
  m.add_constraint(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(d) <=
                       6.0, "cap_d");
  m.set_objective(10.0 * LinExpr(a) + 13.0 * LinExpr(b) + 7.0 * LinExpr(c) +
                      9.0 * LinExpr(d),
                  /*minimize=*/false);
  expect_fresh(22.0, "objective");
  m.set_branch_priority(d, 5);
  expect_fresh(22.0, "priority");
}

TEST(MilpSessionTest, PreCancelledSolveReturnsLimitReached) {
  const Model m = knapsack_model();
  SolverParams params = optimality_params();
  params.cancel = CancelToken::create();
  Solver solver(m, params);
  solver.params().cancel.request_cancel();
  const MilpSolution s = solver.solve();
  EXPECT_EQ(s.status, SolveStatus::kLimitReached);

  // The flag is sticky; a fresh token installed through params() re-arms
  // the session.
  EXPECT_EQ(solver.solve().status, SolveStatus::kLimitReached);
  solver.params().cancel = CancelToken::create();
  const MilpSolution again = solver.solve();
  EXPECT_EQ(again.status, SolveStatus::kOptimal);
}

TEST(MilpSessionTest, ExternalCancelTokenStopsSolve) {
  const Model m = parity_hard_model(60);
  SolverParams params;
  params.cancel = CancelToken::create();
  params.cancel.request_cancel();
  Solver solver(m, params);
  const MilpSolution s = solver.solve();
  EXPECT_EQ(s.status, SolveStatus::kLimitReached);
}

TEST(MilpSessionTest, CancelMidSolveReturnsLimitReachedOneWorker) {
  const Model m = parity_hard_model(60);
  SolverParams params;
  params.num_threads = 1;
  params.cancel = CancelToken::create();
  Solver solver(m, params);
  std::thread canceller([token = params.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.request_cancel();
  });
  const MilpSolution s = solver.solve();
  canceller.join();
  EXPECT_EQ(s.status, SolveStatus::kLimitReached);
  EXPECT_TRUE(s.values.empty());
}

TEST(MilpSessionTest, CancelMidSolveReturnsLimitReachedFourWorkers) {
  const Model m = parity_hard_model(60);
  SolverParams params;
  params.num_threads = 4;
  params.cancel = CancelToken::create();
  Solver solver(m, params);
  std::thread canceller([token = params.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.request_cancel();
  });
  // solve() joins every worker before returning, so control reaching the
  // assertions below with kLimitReached is the no-leaked-workers guarantee.
  const MilpSolution s = solver.solve();
  canceller.join();
  EXPECT_EQ(s.status, SolveStatus::kLimitReached);
  EXPECT_TRUE(s.values.empty());

  // The session is re-armable and fully functional after the aborted solve.
  solver.params().cancel = CancelToken::create();
  solver.params().node_limit = 500;
  const MilpSolution bounded = solver.solve();
  EXPECT_EQ(bounded.status, SolveStatus::kLimitReached);
}

TEST(MilpSessionTest, ConvergenceTimelineRecordsImprovingIncumbents) {
  const Model m = knapsack_model();
  for (const int threads : {1, 4}) {
    SolverParams params = optimality_params();
    params.num_threads = threads;
    const MilpSolution s = Solver(m, params).solve();
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << threads << " threads";
    std::vector<double> objectives;
    for (const ConvergenceEvent& event : s.stats.convergence) {
      EXPECT_GT(event.nodes, 0);
      objectives.push_back(event.objective);
    }
    ASSERT_FALSE(objectives.empty()) << threads << " threads";
    EXPECT_EQ(static_cast<std::int64_t>(objectives.size()),
              s.stats.incumbent_updates);
    // Maximization: every accepted incumbent improves, the last is the
    // optimum.
    for (std::size_t i = 1; i < objectives.size(); ++i) {
      EXPECT_GT(objectives[i], objectives[i - 1]);
    }
    EXPECT_NEAR(objectives.back(), s.objective, 1e-9);
  }
}

TEST(MilpSessionTest, CutShortOptimalitySearchKeepsItsIncumbent) {
  // A knapsack big enough that proving optimality takes far longer than
  // finding the first incumbent: a search stopped by a limit (node budget
  // here; a cancel or the time limit take the same path) after an incumbent
  // is in hand returns it as kFeasible.
  Model m("knap25");
  LinExpr weight, value;
  double total_weight = 0.0;
  for (int i = 0; i < 25; ++i) {
    const double w = static_cast<double>((2 * i + 5) % 9 + 1);
    const double v = static_cast<double>((3 * i + 7) % 11 + 1);
    const VarId x = m.add_binary("x" + std::to_string(i));
    weight += w * LinExpr(x);
    value += v * LinExpr(x);
    total_weight += w;
  }
  m.add_constraint(std::move(weight) <= total_weight / 3.0, "cap");
  m.set_objective(std::move(value), /*minimize=*/false);

  SolverParams params;
  params.num_threads = 1;
  params.node_limit = 2000;
  const MilpSolution s = Solver(m, params).solve();
  EXPECT_EQ(s.status, SolveStatus::kFeasible);
  ASSERT_TRUE(s.has_solution());
  EXPECT_TRUE(check_solution(m, s.values).ok);
  EXPECT_EQ(s.stats.nodes_explored, params.node_limit);
  EXPECT_GE(s.stats.incumbent_updates, 1);
}

TEST(MilpSessionTest, FourThreadsMatchOneThreadOnHardInfeasible) {
  const Model m = parity_hard_model(8);
  // Too small for helper threads (4 requested threads resolve to one
  // worker), but num_threads must still be accepted and give the same
  // verdict and search.
  SolverParams one;
  one.num_threads = 1;
  const MilpSolution reference = Solver(m, one).solve();
  ASSERT_EQ(reference.status, SolveStatus::kInfeasible);

  SolverParams four;
  four.num_threads = 4;
  const MilpSolution s = Solver(m, four).solve();
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.stats.nodes_explored, reference.stats.nodes_explored);
}

TEST(MilpSessionTest, FourWorkerFirstFeasibleMatchesOneWorker) {
  // Four workers must accept the one-worker candidate (the DFS-first leaf).
  const Model m = pick7_model();

  SolverParams one = first_feasible_params();
  one.num_threads = 1;
  const MilpSolution reference = Solver(m, one).solve();
  ASSERT_EQ(reference.status, SolveStatus::kFeasible);

  SolverParams four = first_feasible_params();
  four.num_threads = 4;
  const MilpSolution s = Solver(m, four).solve();
  ASSERT_EQ(s.status, SolveStatus::kFeasible);
  EXPECT_EQ(s.values, reference.values);
}

TEST(MilpSessionTest, FourWorkerOptimalityMatchesOneWorker) {
  // 50 binaries (above the helper-thread threshold), pick at most 3,
  // maximize their values: five items share the top value 11, so the
  // optimum is 33.
  Model m("pick3");
  LinExpr count, value;
  for (int i = 0; i < 50; ++i) {
    const VarId x = m.add_binary("x" + std::to_string(i));
    count += LinExpr(x);
    value += static_cast<double>((7 * i) % 11 + 1) * LinExpr(x);
  }
  m.add_constraint(std::move(count) <= 3.0, "pick3");
  m.set_objective(std::move(value), /*minimize=*/false);

  SolverParams one = optimality_params();
  one.num_threads = 1;
  const MilpSolution reference = Solver(m, one).solve();
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);
  EXPECT_NEAR(reference.objective, 33.0, 1e-6);

  SolverParams four = optimality_params();
  four.num_threads = 4;
  const MilpSolution s = Solver(m, four).solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, reference.objective, 1e-9);
  EXPECT_TRUE(check_solution(m, s.values).ok);
}

TEST(MilpSessionTest, SearchLogLinesKeepTheCallersCorrelationId) {
  // A service job binds its observer and correlation id to its thread. The
  // search must leave that id in place on the calling thread and hand both
  // to its helper threads, so every line lands in the job's log with the
  // job's id.
  const Model m = pick7_model();
  constexpr std::uint64_t kJob = 4242;
  const std::string line = "incumbent objective";
  std::ostringstream sink;
  Observer::Options options;
  options.log_json = &sink;
  Observer observer(options);
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  int seen = 0;
  for (const int threads : {1, 4}) {
    const ObserverScope bind(&observer);
    telemetry::CorrelationScope job(kJob);
    SolverParams params = first_feasible_params();
    params.num_threads = threads;
    EXPECT_EQ(Solver(m, params).solve().status, SolveStatus::kFeasible);
    // The accepted leaf's debug line reached the job's log.
    const int now = count_of(sink.str(), line);
    EXPECT_GT(now, seen) << threads << " threads";
    seen = now;
  }
  set_log_level(before);
  EXPECT_EQ(count_of(sink.str(), "\"corr\": 4242"),
            count_of(sink.str(), "\n"));
}

}  // namespace
}  // namespace sparcs::milp
