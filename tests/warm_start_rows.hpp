// Properties of the probes a warm start at LB(N) answers (core/
// reduce_latency), checked on a finished sweep's report by the property
// sweeps that already run the partitioner.
#pragma once

#include <gtest/gtest.h>

#include "arch/device.hpp"
#include "core/refine_partitions.hpp"
#include "core/solution.hpp"
#include "graph/task_graph.hpp"
#include "sim/executor.hpp"

namespace sparcs::testing {

/// Every warm-start row is iteration 1 of its stage, and every later row of
/// that stage is refuted by LB(N). When the stage gave the sweep's design,
/// that design passes the validator and simulates to the row's latency.
/// Returns the number of warm-start rows.
inline int expect_warm_start_rows(const graph::TaskGraph& graph,
                                  const arch::Device& device,
                                  const core::PartitionerReport& report) {
  int rows = 0;
  int answered_stage = -1;
  for (const core::IterationRecord& row : report.trace) {
    if (row.num_partitions == answered_stage) {
      EXPECT_EQ(row.verdict_source, core::VerdictSource::kLatencyBound)
          << "N=" << row.num_partitions << " I=" << row.iteration;
      continue;
    }
    answered_stage = -1;
    if (row.verdict_source != core::VerdictSource::kWarmStart) continue;
    ++rows;
    answered_stage = row.num_partitions;
    EXPECT_EQ(row.iteration, 1) << "N=" << row.num_partitions;
    EXPECT_EQ(row.outcome, core::IterationOutcome::kFeasible);
    EXPECT_EQ(row.nodes, 0);
    if (row.num_partitions != report.best_num_partitions) continue;
    EXPECT_EQ(row.achieved_latency, report.achieved_latency);
    const core::DesignCheck check =
        core::validate_design(graph, device, *report.best);
    EXPECT_TRUE(check.ok) << check.violation;
    EXPECT_NEAR(sim::simulate(graph, device, *report.best).makespan_ns,
                row.achieved_latency, 1e-6 * row.achieved_latency);
  }
  return rows;
}

}  // namespace sparcs::testing
