// Cancellation stress suite, written to run under ThreadSanitizer (the file
// name matches the CI tsan job's test filter): seeded randomized cancels
// landing at arbitrary points of serial and parallel solves must always
// unwind cleanly — classified status, no leaked workers, exact stats — and
// the session must stay reusable afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>

#include "milp/checker.hpp"
#include "milp/solver.hpp"

namespace sparcs::milp {
namespace {

/// Infeasible parity model: an even sum can never hit an odd target, but
/// propagation cannot see parity, so the search runs until cancelled.
Model parity_hard_model(int vars) {
  Model m("parity");
  LinExpr sum;
  for (int i = 0; i < vars; ++i) {
    sum += 2.0 * LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == static_cast<double>(vars) + 1.0, "odd");
  return m;
}

/// Feasible pick-7-of-60 model; above the parallel dispatch threshold and
/// quick to satisfy in first-feasible mode.
Model pick_model() {
  Model m("pick7");
  LinExpr sum;
  for (int i = 0; i < 60; ++i) {
    sum += LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == 7.0, "pick7");
  return m;
}

TEST(MilpCancelStressTest, SeededRandomCancelsUnwindCleanly) {
  const Model m = parity_hard_model(56);
  std::mt19937 rng(0x5eed);  // fixed seed: failures are reproducible
  std::uniform_int_distribution<int> delay_us(0, 15000);
  for (const int threads : {1, 2, 8}) {
    for (int round = 0; round < 5; ++round) {
      SolverParams params;
      params.num_threads = threads;
      params.time_limit_sec = 60.0;  // safety net if cancellation broke
      Solver solver(m, params);
      const int delay = delay_us(rng);
      std::thread canceller([&solver, delay] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
        solver.cancel();
      });
      // solve() joins every worker before returning; reaching the
      // assertions is the clean-unwinding guarantee.
      const MilpSolution s = solver.solve();
      canceller.join();
      EXPECT_EQ(s.status, SolveStatus::kLimitReached)
          << threads << " threads, round " << round;
      EXPECT_TRUE(s.values.empty());
      // The merged stats must be internally consistent however many
      // workers were interrupted mid-batch.
      EXPECT_GE(s.stats.max_depth, 0);
      EXPECT_LE(s.stats.vars_fixed,
                s.stats.bounds_tightened + s.stats.vars_fixed);
    }
  }
}

TEST(MilpCancelStressTest, CancelResetHammerKeepsSessionUsable) {
  const Model m = pick_model();
  SolverParams params = first_feasible_params();
  params.num_threads = 2;
  params.time_limit_sec = 60.0;
  Solver solver(m, params);

  // Reference answer from an undisturbed solve.
  const MilpSolution reference = solver.solve();
  ASSERT_EQ(reference.status, SolveStatus::kFeasible);

  std::atomic<bool> stop{false};
  std::thread hammer([&solver, &stop] {
    while (!stop.load()) {
      solver.cancel();
      solver.reset_cancel();
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 20; ++round) {
    solver.reset_cancel();
    const MilpSolution s = solver.solve();
    // A hammered solve either finished (and then must reproduce the
    // deterministic first-feasible answer) or was cancelled cleanly.
    if (s.has_solution()) {
      EXPECT_EQ(s.status, SolveStatus::kFeasible) << "round " << round;
      EXPECT_EQ(s.values, reference.values) << "round " << round;
      EXPECT_TRUE(check_solution(m, s.values).ok) << "round " << round;
    } else {
      EXPECT_EQ(s.status, SolveStatus::kLimitReached) << "round " << round;
    }
  }
  stop.store(true);
  hammer.join();

  // After the hammer stops the session must work normally again.
  solver.reset_cancel();
  const MilpSolution final_solve = solver.solve();
  ASSERT_EQ(final_solve.status, SolveStatus::kFeasible);
  EXPECT_EQ(final_solve.values, reference.values);
}

TEST(MilpCancelStressTest, StatsStayDeterministicAcrossCancelledRuns) {
  // Serial solves are bit-deterministic; interleaving cancelled runs in the
  // same session must not perturb the stats of the clean runs.
  const Model m = pick_model();
  SolverParams params = first_feasible_params();
  params.num_threads = 1;
  Solver solver(m, params);
  const MilpSolution first = solver.solve();
  ASSERT_EQ(first.status, SolveStatus::kFeasible);

  solver.cancel();
  const MilpSolution cancelled = solver.solve();
  EXPECT_EQ(cancelled.status, SolveStatus::kLimitReached);
  solver.reset_cancel();

  const MilpSolution second = solver.solve();
  ASSERT_EQ(second.status, SolveStatus::kFeasible);
  EXPECT_EQ(second.values, first.values);
  EXPECT_EQ(second.stats.nodes_explored, first.stats.nodes_explored);
  EXPECT_EQ(second.stats.simplex_iterations, first.stats.simplex_iterations);
  EXPECT_EQ(second.stats.propagated_constraints,
            first.stats.propagated_constraints);
  EXPECT_EQ(second.stats.incumbent_updates, first.stats.incumbent_updates);
}

}  // namespace
}  // namespace sparcs::milp
