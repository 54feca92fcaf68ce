// Stress test for concurrent milp::Solver sessions — the invariant the solve
// service's worker pool leans on: independent sessions in one process must
// not share mutable state, even while mixing optimality runs, tiny time
// limits, mid-solve cancellation from other threads, certified solves and
// shared cancel tokens. Runs under the TSAN CI job (matched by its ctest
// regex), so a data race here is a build failure, not a flake.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "arch/device.hpp"
#include "core/partitioner.hpp"
#include "milp/checker.hpp"
#include "milp/solver.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"

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
/// an even-coefficient sum can never hit an odd target, so the DFS
/// enumerates long enough for another thread to cancel it mid-solve.
Model parity_hard_model(int vars) {
  Model m("parity");
  LinExpr sum;
  for (int i = 0; i < vars; ++i) {
    sum += 2.0 * LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == static_cast<double>(vars) + 1.0, "odd");
  return m;
}

TEST(MilpConcurrentSessions, MixedSessionsStayIndependent) {
  // >= 4 simultaneous sessions with deliberately different behaviors; every
  // session keeps its own model, params and verdict.
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const Model knapsack = knapsack_model();
    const Model parity = parity_hard_model(30);

    std::atomic<bool> optimal_ok{true};
    std::atomic<bool> certified_ok{true};
    std::atomic<bool> limited_ok{true};
    std::atomic<bool> cancelled_done{false};

    // Session A: plain optimality.
    std::thread optimal([&] {
      Solver solver(knapsack, optimality_params());
      const MilpSolution s = solver.solve();
      if (s.status != SolveStatus::kOptimal ||
          std::abs(s.objective - 20.0) > 1e-6 ||
          !check_solution(knapsack, s.values).ok) {
        optimal_ok.store(false);
      }
    });

    // Session B: optimality with exact certificates on.
    std::thread certified([&] {
      SolverParams params = optimality_params();
      params.certify = CertifyMode::kFull;
      Solver solver(knapsack, params);
      const MilpSolution s = solver.solve();
      if (s.status != SolveStatus::kOptimal ||
          s.certified == CertifyStatus::kUncertified) {
        certified_ok.store(false);
      }
    });

    // Session C: a hard solve under a tiny time limit; must come back as a
    // limit, not hang or crash.
    std::thread limited([&] {
      SolverParams params;
      params.time_limit_sec = 0.02;
      Solver solver(parity, params);
      const MilpSolution s = solver.solve();
      if (s.status != SolveStatus::kLimitReached &&
          s.status != SolveStatus::kInfeasible) {
        limited_ok.store(false);
      }
    });

    // Session D: cancelled from this thread mid-solve.
    SolverParams victim_params;
    victim_params.cancel = CancelToken::create();
    Solver victim(parity, victim_params);
    std::thread cancelled([&] {
      const MilpSolution s = victim.solve();
      // Either the cancel landed (limit) or the proof finished first.
      if (s.status != SolveStatus::kLimitReached &&
          s.status != SolveStatus::kInfeasible) {
        limited_ok.store(false);
      }
      cancelled_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    victim_params.cancel.request_cancel();

    optimal.join();
    certified.join();
    limited.join();
    cancelled.join();
    EXPECT_TRUE(optimal_ok.load());
    EXPECT_TRUE(certified_ok.load());
    EXPECT_TRUE(limited_ok.load());
    EXPECT_TRUE(cancelled_done.load());
  }
}

TEST(MilpConcurrentSessions, SharedCancelTokenStopsEverySession) {
  // One token distributed over many sessions — the service's shutdown path:
  // a single request_cancel() must stop all of them promptly.
  constexpr int kSessions = 6;
  CancelToken shared = CancelToken::create();
  std::vector<std::unique_ptr<Solver>> solvers;
  const Model parity = parity_hard_model(34);
  for (int i = 0; i < kSessions; ++i) {
    SolverParams params;
    params.cancel = shared;
    solvers.push_back(std::make_unique<Solver>(parity, params));
  }
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (auto& solver : solvers) {
    threads.emplace_back([&] {
      (void)solver->solve();
      finished.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  shared.request_cancel();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(finished.load(), kSessions);
}

TEST(MilpConcurrentSessions, ConcurrentPartitionerRunsProduceIdenticalReports) {
  // Two whole TemporalPartitioner sweeps in parallel — the worker-pool case
  // one level up from raw solver sessions. Same inputs must give the same
  // answer as a serial reference run.
  const graph::TaskGraph graph = workloads::ar_filter_task_graph();
  const arch::Device device = arch::custom("stress", 200.0, 64.0, 50.0);
  core::PartitionerOptions options;
  options.budget.delta = 20.0;

  const core::PartitionerReport reference =
      core::TemporalPartitioner(graph, device, options).run();
  ASSERT_TRUE(reference.feasible);

  constexpr int kRuns = 4;
  std::vector<core::PartitionerReport> reports(kRuns);
  std::vector<std::thread> threads;
  threads.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    threads.emplace_back([&, i] {
      reports[i] = core::TemporalPartitioner(graph, device, options).run();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const core::PartitionerReport& report : reports) {
    EXPECT_TRUE(report.feasible);
    EXPECT_DOUBLE_EQ(report.achieved_latency, reference.achieved_latency);
    EXPECT_EQ(report.best_num_partitions, reference.best_num_partitions);
  }
}

}  // namespace
}  // namespace sparcs::milp
