// Tests of the milp::Solver session API: construct / solve / re-solve with
// tightened parameters, cooperative cancellation, incumbent callbacks,
// and parallel-vs-serial agreement.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "milp/checker.hpp"
#include "milp/solver.hpp"

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

TEST(MilpSessionTest, PreCancelledSolveReturnsLimitReached) {
  const Model m = knapsack_model();
  Solver solver(m, optimality_params());
  solver.cancel();
  EXPECT_TRUE(solver.cancel_requested());
  const MilpSolution s = solver.solve();
  EXPECT_EQ(s.status, SolveStatus::kLimitReached);

  // reset_cancel() re-arms the session.
  solver.reset_cancel();
  EXPECT_FALSE(solver.cancel_requested());
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

TEST(MilpSessionTest, CancelMidSolveReturnsLimitReachedSerial) {
  const Model m = parity_hard_model(60);
  SolverParams params;
  params.num_threads = 1;
  Solver solver(m, params);
  std::thread canceller([&solver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    solver.cancel();
  });
  const MilpSolution s = solver.solve();
  canceller.join();
  EXPECT_EQ(s.status, SolveStatus::kLimitReached);
  EXPECT_TRUE(s.values.empty());
}

TEST(MilpSessionTest, CancelMidSolveReturnsLimitReachedParallel) {
  const Model m = parity_hard_model(60);
  SolverParams params;
  params.num_threads = 4;
  Solver solver(m, params);
  std::thread canceller([&solver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    solver.cancel();
  });
  // solve() joins every worker before returning, so control reaching the
  // assertions below with kLimitReached is the no-leaked-workers guarantee.
  const MilpSolution s = solver.solve();
  canceller.join();
  EXPECT_EQ(s.status, SolveStatus::kLimitReached);
  EXPECT_TRUE(s.values.empty());

  // The session is re-armable and fully functional after the aborted solve.
  solver.reset_cancel();
  solver.params().node_limit = 500;
  const MilpSolution bounded = solver.solve();
  EXPECT_EQ(bounded.status, SolveStatus::kLimitReached);
}

TEST(MilpSessionTest, TokenResetClearsSharedFlagInPlace) {
  // Regression: re-arming by *replacing* the token would detach every copy
  // taken earlier (a cancel through an old copy would be silently dropped).
  // CancelToken::reset() clears the shared flag in place, so all copies —
  // including the one the session holds — stay wired together.
  const Model m = knapsack_model();
  SolverParams params = optimality_params();
  params.cancel = CancelToken::create();
  CancelToken token = params.cancel;
  Solver solver(m, params);
  token.request_cancel();
  EXPECT_EQ(solver.solve().status, SolveStatus::kLimitReached);

  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(solver.solve().status, SolveStatus::kOptimal);

  // A cancel through the original copy still lands on the session.
  token.request_cancel();
  EXPECT_EQ(solver.solve().status, SolveStatus::kLimitReached);
}

TEST(MilpSessionTest, ConcurrentCancelDuringResetIsNeverDropped) {
  // Hammer the reset/cancel pair: a cancel that lands concurrently with
  // reset_cancel() must either affect the solve it targeted or the next
  // one — never vanish. With the old swap-the-flag implementation this
  // test hangs or hits the time limit safety net.
  const Model m = parity_hard_model(52);
  SolverParams params;
  params.time_limit_sec = 30.0;  // safety net if a cancel were lost
  params.num_threads = 2;
  Solver solver(m, params);
  for (int round = 0; round < 8; ++round) {
    std::thread canceller([&solver] { solver.cancel(); });
    solver.reset_cancel();
    canceller.join();
    // Whatever interleaving happened, the session must still terminate
    // promptly: either this solve sees the cancel (kLimitReached fast) or
    // the cancel landed before the reset and the solve runs bounded.
    solver.cancel();
    const MilpSolution s = solver.solve();
    EXPECT_EQ(s.status, SolveStatus::kLimitReached) << "round " << round;
    solver.reset_cancel();
    EXPECT_FALSE(solver.cancel_requested()) << "round " << round;
  }
}

TEST(MilpSessionTest, IncumbentCallbackObservesImprovingSolutions) {
  const Model m = knapsack_model();
  Solver solver(m, optimality_params());
  std::vector<double> objectives;
  solver.set_incumbent_callback([&objectives](const IncumbentEvent& event) {
    ASSERT_NE(event.values, nullptr);
    EXPECT_GT(event.nodes_explored, 0);
    objectives.push_back(event.objective);
  });
  const MilpSolution s = solver.solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_FALSE(objectives.empty());
  // Maximization: every accepted incumbent improves, the last is the optimum.
  for (std::size_t i = 1; i < objectives.size(); ++i) {
    EXPECT_GT(objectives[i], objectives[i - 1]);
  }
  EXPECT_NEAR(objectives.back(), s.objective, 1e-9);
}

TEST(MilpSessionTest, IncumbentSnapshotExportsTheCarriedUpperBound) {
  const Model m = knapsack_model();
  Solver solver(m, optimality_params());
  // Before any solve there is nothing to export.
  EXPECT_FALSE(solver.incumbent_snapshot().has_value());

  const MilpSolution s = solver.solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  const auto snap = solver.incumbent_snapshot();
  ASSERT_TRUE(snap.has_value());
  // The snapshot is the last accepted incumbent: the optimum, with its full
  // assignment (decodable/replayable by a checkpointer) and node stamp.
  EXPECT_NEAR(snap->objective, s.objective, 1e-9);
  EXPECT_EQ(snap->values.size(), s.values.size());
  EXPECT_GT(snap->nodes_explored, 0);

  // A new solve starts a new incumbent lineage; the stale snapshot must not
  // survive into it. Cancel before solving: no incumbent, no snapshot.
  solver.cancel();
  const MilpSolution cancelled = solver.solve();
  EXPECT_EQ(cancelled.status, SolveStatus::kLimitReached);
  EXPECT_FALSE(solver.incumbent_snapshot().has_value());
  solver.reset_cancel();
}

TEST(MilpSessionTest, IncumbentCallbackCanCancelViaToken) {
  // A knapsack big enough that proving optimality takes far longer than
  // finding the first incumbent, so cancelling from the callback observably
  // cuts the search short (the time limit is only a safety net).
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
  params.time_limit_sec = 30.0;  // safety net if cancellation were broken
  params.cancel = CancelToken::create();
  CancelToken token = params.cancel;
  Solver solver(m, params);
  std::atomic<int> events{0};
  solver.set_incumbent_callback([&events, token](const IncumbentEvent&) {
    events.fetch_add(1);
    token.request_cancel();
  });
  const MilpSolution s = solver.solve();
  // An incumbent was in hand when the cancel fired.
  EXPECT_EQ(s.status, SolveStatus::kFeasible);
  EXPECT_EQ(events.load(), 1);
}

TEST(MilpSessionTest, ParallelSolveMatchesSerialOnHardInfeasible) {
  const Model m = parity_hard_model(8);
  // Too small for the parallel threshold, but num_threads must still be
  // accepted and produce the serial answer.
  for (const int threads : {1, 2, 8}) {
    SolverParams params;
    params.num_threads = threads;
    const MilpSolution s = Solver(m, params).solve();
    EXPECT_EQ(s.status, SolveStatus::kInfeasible) << threads << " threads";
  }
}

TEST(MilpSessionTest, ParallelFirstFeasibleMatchesSerial) {
  // 60 binaries, pick exactly 7: far above the parallel threshold, many
  // feasible leaves. The accepted candidate must be the serial one (the
  // DFS-first leaf) at every thread count.
  Model m("pick7");
  LinExpr sum;
  for (int i = 0; i < 60; ++i) {
    sum += LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == 7.0, "pick7");

  SolverParams serial = first_feasible_params();
  serial.num_threads = 1;
  const MilpSolution reference = Solver(m, serial).solve();
  ASSERT_EQ(reference.status, SolveStatus::kFeasible);

  for (const int threads : {2, 8}) {
    SolverParams params = first_feasible_params();
    params.num_threads = threads;
    const MilpSolution s = Solver(m, params).solve();
    ASSERT_EQ(s.status, SolveStatus::kFeasible) << threads << " threads";
    EXPECT_EQ(s.values, reference.values) << threads << " threads";
  }
}

TEST(MilpSessionTest, ParallelOptimalityMatchesSerial) {
  const Model m = knapsack_model();
  for (const int threads : {2, 8}) {
    SolverParams params = optimality_params();
    params.num_threads = threads;
    const MilpSolution s = Solver(m, params).solve();
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << threads << " threads";
    EXPECT_NEAR(s.objective, 20.0, 1e-6) << threads << " threads";
  }
}

}  // namespace
}  // namespace sparcs::milp
