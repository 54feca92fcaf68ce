// Deadline and anytime-degradation tests: a tight deadline must return a
// degraded report promptly with a per-stage account, an inert or generous
// deadline must leave results identical to an unconstrained run, and an
// overrun deadline must never cancel the caller's token.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "arch/device.hpp"
#include "core/deadline.hpp"
#include "core/partitioner.hpp"
#include "core/refine_partitions.hpp"
#include "core/search_budget.hpp"
#include "support/stopwatch.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/synthetic.hpp"

namespace sparcs::core {
namespace {

arch::Device ar_device(double ct_ns) {
  return arch::custom("ar_dev", 200, 64, ct_ns);
}

PartitionerOptions slow_options() {
  // A fine tolerance forces many subdivision iterations per bound, so the
  // runs below cover many probes. It takes only tens of milliseconds, too
  // short to be sure that a tight deadline interrupts it.
  PartitionerOptions options;
  options.budget.delta = 0.05;
  options.budget.solver.num_threads = 1;
  return options;
}

TEST(DeadlineTest, InertDeadlineNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.valid());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_sec()));
}

TEST(DeadlineTest, ExpiresAfterHorizon) {
  const Deadline d = Deadline::after_seconds(0.02);
  EXPECT_TRUE(d.valid());
  EXPECT_LE(d.remaining_sec(), 0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(d.expired());
  EXPECT_LT(d.remaining_sec(), 0.0);
}

TEST(DeadlineTest, BudgetClampsSolverTimeLimit) {
  SearchBudget budget;
  budget.solver.time_limit_sec = 100.0;
  EXPECT_DOUBLE_EQ(budget.clamped_solver().time_limit_sec, 100.0);

  budget.deadline = Deadline::after_seconds(5.0);
  EXPECT_LE(budget.clamped_solver().time_limit_sec, 5.0);
  EXPECT_GT(budget.clamped_solver().time_limit_sec, 0.0);
  EXPECT_FALSE(budget.interrupted());

  // An already-expired deadline still yields a positive (floored) limit and
  // reports the run as interrupted.
  budget.deadline = Deadline::after_seconds(-1.0);
  EXPECT_TRUE(budget.interrupted());
  EXPECT_GT(budget.clamped_solver().time_limit_sec, 0.0);
}

// Horizons beyond the steady clock's range (int64 nanoseconds) are capped
// instead of overflowing: the deadline stays in the future.
TEST(DeadlineTest, FarDeadlinesAreCapped) {
  for (const double horizon : {1e10, 1e300}) {
    const Deadline d = Deadline::after_seconds(horizon);
    EXPECT_FALSE(d.expired()) << horizon;
    EXPECT_GT(d.remaining_sec(), 1e8) << horizon;
  }
}

TEST(DeadlineDegradationTest, TightDeadlineReturnsDegradedReportPromptly) {
  // Table 8's DCT configuration (Rmax 1024, Ct 10 ms, delta 100): its
  // unconstrained sweep lasts seconds, so a 20 ms deadline always cuts it.
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("dct", 1024, 4096, 1.0e7);
  PartitionerOptions options;
  options.budget.delta = 100.0;
  options.budget.solver.num_threads = 1;
  options.budget.deadline = Deadline::after_seconds(0.02);
  Stopwatch stopwatch;
  const PartitionerReport report =
      TemporalPartitioner(g, dev, options).run();
  // Generous ceiling (deadline + slack); the point is that the run
  // did not last anywhere near the unconstrained sweep.
  EXPECT_LT(stopwatch.seconds(), 2.0);
  EXPECT_TRUE(report.degraded);
  ASSERT_FALSE(report.stages.empty());
  // The account must cover a contiguous range of bounds: anything after the
  // interruption point is recorded as skipped, nothing is silently missing.
  bool saw_unfinished = false;
  for (const StageAccount& stage : report.stages) {
    if (stage.status != StageStatus::kProbed) saw_unfinished = true;
    if (stage.status == StageStatus::kSkipped) {
      EXPECT_EQ(stage.solves, 0);
      EXPECT_DOUBLE_EQ(stage.seconds, 0.0);
    }
  }
  EXPECT_TRUE(saw_unfinished);
  // A search the deadline stopped settled nothing: the cut stage's rows are
  // the probes it decided, so none of them ends at a limit (every probe's
  // limit is clamped to the 20 ms deadline) and its solves count its rows.
  const auto cut = std::find_if(
      report.stages.begin(), report.stages.end(), [](const StageAccount& s) {
        return s.status == StageStatus::kCutShort;
      });
  ASSERT_NE(cut, report.stages.end());
  int rows = 0;
  for (const IterationRecord& row : report.trace) {
    if (row.num_partitions != cut->num_partitions) continue;
    ++rows;
    EXPECT_NE(row.outcome, IterationOutcome::kLimit)
        << "N=" << row.num_partitions << " iteration " << row.iteration;
  }
  EXPECT_EQ(cut->solves, rows);
  // Any anytime incumbent handed back must be a valid design (the
  // partitioner re-validates it; reaching here means it passed).
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
}

TEST(DeadlineDegradationTest, GenerousDeadlineMatchesUnconstrainedRun) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);

  const PartitionerReport unconstrained =
      TemporalPartitioner(g, dev, slow_options()).run();
  ASSERT_TRUE(unconstrained.feasible);
  EXPECT_FALSE(unconstrained.degraded);

  PartitionerOptions with_deadline = slow_options();
  with_deadline.budget.deadline = Deadline::after_seconds(300.0);
  const PartitionerReport report =
      TemporalPartitioner(g, dev, with_deadline).run();
  ASSERT_TRUE(report.feasible);
  EXPECT_FALSE(report.degraded);
  EXPECT_DOUBLE_EQ(report.achieved_latency, unconstrained.achieved_latency);
  EXPECT_EQ(report.best_num_partitions, unconstrained.best_num_partitions);
  EXPECT_EQ(report.trace.size(), unconstrained.trace.size());
  ASSERT_EQ(report.stages.size(), unconstrained.stages.size());
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    EXPECT_EQ(report.stages[i].num_partitions,
              unconstrained.stages[i].num_partitions);
    EXPECT_EQ(report.stages[i].status, unconstrained.stages[i].status);
    EXPECT_EQ(report.stages[i].solves, unconstrained.stages[i].solves);
  }
}

TEST(DeadlineDegradationTest, OverrunDeadlineLeavesTheCallersTokenAlone) {
  // The formulation build of this 300-task graph reads no budget, so the
  // run overruns a 20 ms deadline by about 0.2 s (0.22 s in all on a 4-vCPU
  // x86 host). The sweep must end degraded once the build returns, and must
  // not report the overrun through the caller's token: a tripped token
  // means a client cancelled.
  workloads::RandomGraphOptions shape;
  shape.num_tasks = 300;
  shape.num_layers = 60;
  shape.seed = 3;
  const graph::TaskGraph g = workloads::random_task_graph(shape);
  PartitionerOptions options;
  options.budget.solver.num_threads = 1;
  options.budget.solver.cancel = milp::CancelToken::create();
  options.budget.deadline = Deadline::after_seconds(0.02);
  const PartitionerReport report =
      TemporalPartitioner(g, arch::custom("wide", 1000, 4096, 100), options)
          .run();
  EXPECT_TRUE(report.degraded);
  EXPECT_FALSE(options.budget.solver.cancel.cancelled());
}

TEST(DeadlineDegradationTest, StageAccountIsConsistentWhenUnconstrained) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  const PartitionerReport result =
      TemporalPartitioner(g, dev, slow_options()).run();
  ASSERT_TRUE(result.best.has_value());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.n_min_lower, 2);
  EXPECT_EQ(result.n_min_upper, 3);
  EXPECT_DOUBLE_EQ(result.delta_used, 0.05);
  ASSERT_FALSE(result.stages.empty());
  int total_solves = 0;
  for (const StageAccount& stage : result.stages) {
    EXPECT_EQ(stage.status, StageStatus::kProbed) << "N=" << stage.num_partitions;
    total_solves += stage.solves;
  }
  EXPECT_EQ(total_solves, result.ilp_solves);
}

TEST(DeadlineDegradationTest, PreCancelledBudgetDegradesImmediately) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  PartitionerOptions options = slow_options();
  options.budget.solver.cancel = milp::CancelToken::create();
  options.budget.solver.cancel.request_cancel();
  const PartitionerReport result = TemporalPartitioner(g, dev, options).run();
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.best.has_value());
  // The derived inputs are reported even when no probe ran.
  EXPECT_EQ(result.n_min_lower, 2);
  EXPECT_EQ(result.n_min_upper, 3);
  EXPECT_DOUBLE_EQ(result.delta_used, 0.05);
}

TEST(DeadlineDegradationTest, StageStatusNamesAreStable) {
  EXPECT_EQ(to_string(StageStatus::kProbed), "probed");
  EXPECT_EQ(to_string(StageStatus::kCutShort), "cut-short");
  EXPECT_EQ(to_string(StageStatus::kSkipped), "skipped");
}

}  // namespace
}  // namespace sparcs::core
