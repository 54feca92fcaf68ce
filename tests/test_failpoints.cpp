// Fault-injection suite: arms every failpoint site and checks the solver
// contract under induced failure — a classified status or a checker-validated
// solution, never a crash, a hang, or a wrong answer. The whole suite skips
// itself in builds without SPARCS_ENABLE_FAILPOINTS (the registry itself is
// always linked, so the env-parsing test runs everywhere).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "core/partitioner.hpp"
#include "json_checker.hpp"
#include "milp/checker.hpp"
#include "milp/simplex.hpp"
#include "milp/solver.hpp"
#include "support/failpoint.hpp"
#include "support/observer.hpp"
#include "support/telemetry.hpp"
#include "workloads/dct.hpp"

namespace sparcs {
namespace {

using sparcs::testing::is_valid_json_lines;

// Primed before main() so the lazy arm_from_env() (triggered by the first
// should_fail call in this process) sees the variable.
const bool kEnvPrimed = [] {
  ::setenv("SPARCS_FAILPOINTS", "test.env.limited=2,test.env.always", 1);
  return true;
}();

// Must run before any test that calls disarm_all().
TEST(FailpointEnvTest, EnvVariableArmsSites) {
  ASSERT_TRUE(kEnvPrimed);
  // name=N fires N times, then goes inert.
  EXPECT_TRUE(failpoint::should_fail("test.env.limited"));
  EXPECT_TRUE(failpoint::should_fail("test.env.limited"));
  EXPECT_FALSE(failpoint::should_fail("test.env.limited"));
  EXPECT_EQ(failpoint::trigger_count("test.env.limited"), 2);
  // bare name fires on every hit.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(failpoint::should_fail("test.env.always")) << i;
  }
  // unarmed sites never fire.
  EXPECT_FALSE(failpoint::should_fail("test.env.unarmed"));
  failpoint::disarm_all();
}

TEST(FailpointEnvTest, SkipAndMaxHits) {
  failpoint::Spec spec;
  spec.skip = 2;
  spec.max_hits = 1;
  failpoint::arm("test.skip", spec);
  EXPECT_FALSE(failpoint::should_fail("test.skip"));
  EXPECT_FALSE(failpoint::should_fail("test.skip"));
  EXPECT_TRUE(failpoint::should_fail("test.skip"));
  EXPECT_FALSE(failpoint::should_fail("test.skip"));
  failpoint::disarm("test.skip");
  EXPECT_FALSE(failpoint::should_fail("test.skip"));
  failpoint::disarm_all();
}

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built without SPARCS_ENABLE_FAILPOINTS";
    }
    failpoint::disarm_all();
  }
  void TearDown() override { failpoint::disarm_all(); }
};

milp::Model knapsack_model() {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6; optimum 20 at {b, c}.
  milp::Model m("knapsack");
  const milp::VarId a = m.add_binary("a");
  const milp::VarId b = m.add_binary("b");
  const milp::VarId c = m.add_binary("c");
  m.add_constraint(3.0 * milp::LinExpr(a) + 4.0 * milp::LinExpr(b) +
                       2.0 * milp::LinExpr(c) <= 6.0, "cap");
  m.set_objective(10.0 * milp::LinExpr(a) + 13.0 * milp::LinExpr(b) +
                  7.0 * milp::LinExpr(c), /*minimize=*/false);
  return m;
}

/// Infeasible parity model, exhaustive to refute; >= 48 vars also clears the
/// parallel dispatch threshold.
milp::Model parity_hard_model(int vars) {
  milp::Model m("parity");
  milp::LinExpr sum;
  for (int i = 0; i < vars; ++i) {
    sum += 2.0 * milp::LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == static_cast<double>(vars) + 1.0, "odd");
  return m;
}

milp::LpProblem small_lp() {
  // min -x - y s.t. x + y <= 3, x <= 2, y <= 2: optimum -3.
  milp::LpProblem lp;
  const int x = lp.add_var(-1.0, 0.0, 2.0);
  const int y = lp.add_var(-1.0, 0.0, 2.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, milp::Sense::kLessEqual, 3.0);
  return lp;
}

TEST_F(FailpointTest, SimplexBlowupRecoversViaRetry) {
  failpoint::Spec spec;
  spec.max_hits = 1;
  failpoint::arm("milp.simplex.blowup", spec);
  const milp::LpResult r = milp::solve_lp(small_lp());
  EXPECT_EQ(r.status, milp::LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-6);
  EXPECT_GE(r.recoveries, 1);
  EXPECT_EQ(failpoint::trigger_count("milp.simplex.blowup"), 1);
}

TEST_F(FailpointTest, SimplexBlowupExhaustsRecoveriesCleanly) {
  failpoint::arm("milp.simplex.blowup");  // every attempt fails
  const milp::LpResult r = milp::solve_lp(small_lp());
  EXPECT_EQ(r.status, milp::LpStatus::kNumericalFailure);
}

TEST_F(FailpointTest, SimplexCycleRecoversViaRetry) {
  failpoint::Spec spec;
  spec.max_hits = 1;
  failpoint::arm("milp.simplex.cycle", spec);
  const milp::LpResult r = milp::solve_lp(small_lp());
  EXPECT_EQ(r.status, milp::LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-6);
  EXPECT_GE(r.recoveries, 1);
}

TEST_F(FailpointTest, SolverSurvivesPersistentLpFailure) {
  // With every LP call failing, bounding degrades to "keep the node" and
  // propagation alone must still find and prove the optimum.
  failpoint::arm("milp.simplex.blowup");
  const milp::Model m = knapsack_model();
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 1;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  ASSERT_TRUE(s.has_solution());
  EXPECT_NEAR(s.objective, 20.0, 1e-6);
  EXPECT_TRUE(milp::check_solution(m, s.values).ok);
  EXPECT_GT(s.stats.numerical_failures, 0);
}

TEST_F(FailpointTest, SolveTimeoutReturnsLimitReached) {
  failpoint::arm("milp.solve.timeout");
  milp::SolverParams params;
  params.num_threads = 1;
  const milp::MilpSolution s =
      milp::Solver(knapsack_model(), params).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kLimitReached);
  EXPECT_TRUE(s.values.empty());
}

TEST_F(FailpointTest, SolveTimeoutReturnsLimitReachedParallel) {
  failpoint::arm("milp.solve.timeout");
  milp::SolverParams params;
  params.num_threads = 4;
  const milp::MilpSolution s =
      milp::Solver(parity_hard_model(60), params).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kLimitReached);
}

TEST_F(FailpointTest, AllocationFailureRollsBackAndContinues) {
  failpoint::Spec spec;
  spec.skip = 2;    // let the root descend before failing
  spec.max_hits = 3;
  failpoint::arm("milp.bnb.alloc_fail", spec);
  const milp::Model m = knapsack_model();
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 1;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  EXPECT_GT(s.stats.allocation_failures, 0);
  // Dropped subtrees forfeit the optimality claim but never the soundness
  // of what is returned.
  EXPECT_NE(s.status, milp::SolveStatus::kOptimal);
  EXPECT_NE(s.status, milp::SolveStatus::kInfeasible);
  if (s.has_solution()) {
    EXPECT_TRUE(milp::check_solution(m, s.values).ok);
  }
}

TEST_F(FailpointTest, AllocationFailureExhaustionStopsClassified) {
  failpoint::arm("milp.bnb.alloc_fail");  // every node throws
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 1;
  const milp::MilpSolution s =
      milp::Solver(knapsack_model(), params).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kNumericalFailure);
  EXPECT_FALSE(s.has_solution());
  EXPECT_GT(s.stats.allocation_failures, 0);
}

TEST_F(FailpointTest, CorruptLeafIsRejectedAndSearchRecovers) {
  failpoint::Spec spec;
  spec.max_hits = 1;
  failpoint::arm("milp.bnb.corrupt_leaf", spec);
  const milp::Model m = knapsack_model();
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 1;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  EXPECT_GE(s.stats.checker_rejections, 1);
  ASSERT_TRUE(s.has_solution());
  EXPECT_TRUE(milp::check_solution(m, s.values).ok);
  EXPECT_NEAR(s.objective, 20.0, 1e-6);
}

TEST_F(FailpointTest, CorruptLeafNeverReturnedEvenWhenPersistent) {
  failpoint::arm("milp.bnb.corrupt_leaf");  // every candidate corrupted
  const milp::Model m = knapsack_model();
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 1;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  // Every leaf was rejected: no solution, and the exhausted-but-incomplete
  // search must not claim infeasibility.
  EXPECT_FALSE(s.has_solution());
  EXPECT_EQ(s.status, milp::SolveStatus::kNumericalFailure);
  EXPECT_GT(s.stats.checker_rejections, 0);
}

TEST_F(FailpointTest, StalledWorkerStillTerminates) {
  failpoint::Spec spec;
  spec.max_hits = 2;
  spec.stall_sec = 0.05;
  failpoint::arm("milp.bnb.worker_stall", spec);
  // Feasible pick-7-of-60 model, quick in first-feasible mode: the stalls
  // delay two subproblem batches but the search still completes and the
  // deterministic rank-ordered answer is unaffected.
  milp::Model m("pick7");
  milp::LinExpr sum;
  for (int i = 0; i < 60; ++i) {
    sum += milp::LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == 7.0, "pick7");
  milp::SolverParams params = milp::first_feasible_params();
  params.num_threads = 2;
  params.time_limit_sec = 30.0;  // safety net; stalls must not consume it
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  // Reaching this line is the no-hang guarantee.
  ASSERT_EQ(s.status, milp::SolveStatus::kFeasible);
  EXPECT_TRUE(milp::check_solution(m, s.values).ok);
  EXPECT_GE(failpoint::trigger_count("milp.bnb.worker_stall"), 1);
}

// --- telemetry under induced failure ---------------------------------------

/// FailpointTest plus an observer, bound to the test's thread, whose sampler
/// writes to an in-memory sink.
class TelemetryFailpointTest : public FailpointTest {
 protected:
  void SetUp() override {
    FailpointTest::SetUp();
    if (IsSkipped()) return;
    Observer::Options options;
    options.telemetry = &sink_;
    options.sample_interval_sec = 0.01;
    observer_ = std::make_unique<Observer>(options);
    bind_ = std::make_unique<ObserverScope>(observer_.get());
  }
  void TearDown() override {
    bind_.reset();
    observer_.reset();
    FailpointTest::TearDown();
  }

  void stop_sampler() { observer_->sampler()->stop(); }

  std::ostringstream sink_;
  std::unique_ptr<Observer> observer_;
  std::unique_ptr<ObserverScope> bind_;
};

TEST_F(TelemetryFailpointTest, SolveTimeoutYieldsWellFormedJsonl) {
  failpoint::arm("milp.solve.timeout");
  milp::SolverParams params;
  params.num_threads = 1;
  const milp::MilpSolution s =
      milp::Solver(knapsack_model(), params).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kLimitReached);
  stop_sampler();
  const std::string jsonl = sink_.str();
  EXPECT_TRUE(is_valid_json_lines(jsonl));
  // The stream closes with a well-formed final record even though the solve
  // under observation died on an injected timeout.
  const std::size_t last = jsonl.rfind("{\"type\": \"final\"");
  ASSERT_NE(last, std::string::npos);
  EXPECT_NE(jsonl.find("\"solves_completed\": 1", last), std::string::npos);
}

TEST_F(TelemetryFailpointTest, StalledWorkerKeepsSamplerAlive) {
  failpoint::Spec spec;
  spec.max_hits = 2;
  spec.stall_sec = 0.05;
  failpoint::arm("milp.bnb.worker_stall", spec);
  milp::Model m("pick7");
  milp::LinExpr sum;
  for (int i = 0; i < 60; ++i) {
    sum += milp::LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == 7.0, "pick7");
  milp::SolverParams params = milp::first_feasible_params();
  params.num_threads = 2;
  params.time_limit_sec = 30.0;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  ASSERT_EQ(s.status, milp::SolveStatus::kFeasible);
  stop_sampler();
  // The sampler kept emitting interval records while the workers stalled.
  const std::string jsonl = sink_.str();
  EXPECT_TRUE(is_valid_json_lines(jsonl));
  EXPECT_NE(jsonl.find("\"trigger\": \"interval\""), std::string::npos);
}

TEST_F(TelemetryFailpointTest, DegradedSweepIsReflectedInFinalRecord) {
  // Injected timeouts make every probe fail while an already-expired
  // deadline cuts the sweep short at its first stage: the run must end
  // degraded, and the telemetry stream's last records must say so.
  failpoint::arm("milp.solve.timeout");
  const graph::TaskGraph graph = workloads::dct_task_graph();
  const arch::Device device = arch::custom("test", 576.0, 4096.0, 100.0);
  core::PartitionerOptions options;
  options.budget.delta = 100.0;
  options.budget.deadline = core::Deadline::after_seconds(0.0);
  options.budget.solver.time_limit_sec = 0.05;
  options.budget.solver.num_threads = 1;
  const core::PartitionerReport result =
      core::TemporalPartitioner(graph, device, options).run();
  EXPECT_FALSE(result.best.has_value());
  EXPECT_TRUE(result.degraded);
  stop_sampler();
  const std::string jsonl = sink_.str();
  EXPECT_TRUE(is_valid_json_lines(jsonl));
  const std::size_t last = jsonl.rfind("{\"type\": \"final\"");
  ASSERT_NE(last, std::string::npos);
  EXPECT_NE(jsonl.find("\"degraded\": true", last), std::string::npos);
}

}  // namespace
}  // namespace sparcs
