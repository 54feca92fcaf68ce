#include <gtest/gtest.h>

#include "arch/device.hpp"
#include "core/baselines.hpp"
#include "core/bounds.hpp"
#include "core/partitioner.hpp"
#include "support/error.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/synthetic.hpp"

namespace sparcs::core {
namespace {

TEST(GreedyBaselineTest, ProducesValidDesign) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("d", 200, 64, 50);
  for (const PointPolicy policy :
       {PointPolicy::kMinArea, PointPolicy::kMinLatency,
        PointPolicy::kMaxArea}) {
    const auto design = greedy_first_fit(g, dev, policy);
    ASSERT_TRUE(design.has_value());
    EXPECT_TRUE(validate_design(g, dev, *design).ok);
  }
}

TEST(GreedyBaselineTest, MinAreaUsesFewestPartitions) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  const auto small = greedy_first_fit(g, dev, PointPolicy::kMinArea);
  const auto fast = greedy_first_fit(g, dev, PointPolicy::kMinLatency);
  ASSERT_TRUE(small.has_value());
  ASSERT_TRUE(fast.has_value());
  EXPECT_LE(small->num_partitions_used, fast->num_partitions_used);
  // The min-area greedy respects the analytical lower bound.
  EXPECT_GE(small->num_partitions_used, min_area_partitions(g, dev));
}

TEST(GreedyBaselineTest, FailsWhenATaskCannotFit) {
  graph::TaskGraph g("big");
  g.add_task("huge", {{"m", 500, 10}});
  const arch::Device dev = arch::custom("d", 100, 64, 1);
  EXPECT_FALSE(greedy_first_fit(g, dev, PointPolicy::kMinArea).has_value());
}

TEST(GreedyBaselineTest, IterativePartitionerBeatsOrMatchesGreedy) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("d", 200, 64, 50);
  PartitionerOptions options;
  options.budget.delta = 10.0;
  const PartitionerReport report = TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(report.feasible);
  for (const PointPolicy policy :
       {PointPolicy::kMinArea, PointPolicy::kMinLatency}) {
    const auto greedy = greedy_first_fit(g, dev, policy);
    if (greedy.has_value()) {
      EXPECT_LE(report.achieved_latency,
                greedy->total_latency_ns + 1e-6);
    }
  }
}

// Packed to the levels of LB(N)'s relaxation optimum, the DCT of Table 3
// reaches LB(N) itself: 3170/3030/3030 ns at N = 5/6/7.
TEST(LevelFillTest, DctTable3LevelsReachTheBound) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  const double expected[] = {3170.0, 3030.0, 3030.0};
  for (int n = 5; n <= 7; ++n) {
    const LatencyBound bound = latency_relaxation_bound(g, dev, n);
    ASSERT_EQ(bound.source, LatencyBoundSource::kMilp) << "N=" << n;
    const auto design = level_fill(g, dev, n, bound.levels);
    ASSERT_TRUE(design.has_value()) << "N=" << n;
    EXPECT_TRUE(validate_design(g, dev, *design).ok) << "N=" << n;
    EXPECT_DOUBLE_EQ(design->total_latency_ns, expected[n - 5]) << "N=" << n;
    EXPECT_LE(design->num_partitions_used, n) << "N=" << n;
  }
}

// synth_wf's graph: first-fit in topological order at min-area points needs
// more than 10 partitions, while filling each partition with the ready
// tasks of longest area-weighted tail first fits in 10.
TEST(LevelFillTest, UnboundedFillPacksWhereFirstFitCannot) {
  workloads::RandomGraphOptions options;
  options.num_tasks = 40;
  options.num_layers = 10;
  options.num_design_points = 3;
  options.seed = 1274;
  const graph::TaskGraph g = workloads::random_task_graph(options);
  const arch::Device dev = arch::custom("wf", 400, 4096, 1e7);
  EXPECT_FALSE(greedy_first_fit(g, dev, PointPolicy::kMinArea, 10));
  const auto design = level_fill(g, dev, 10, {});
  ASSERT_TRUE(design.has_value());
  EXPECT_TRUE(validate_design(g, dev, *design).ok);
  EXPECT_EQ(design->num_partitions_used, 10);
}

// Running out of levels or partitions with tasks left fails cleanly.
TEST(LevelFillTest, FailsWhenTheLevelsRunOut) {
  graph::TaskGraph g("chain");
  const graph::TaskId a = g.add_task("a", {{"m", 60, 10}});
  const graph::TaskId b = g.add_task("b", {{"m", 60, 10}});
  g.add_edge(a, b, 1);
  const arch::Device dev = arch::custom("d", 100, 64, 1);
  EXPECT_FALSE(level_fill(g, dev, 2, {10.0}).has_value());
  EXPECT_FALSE(level_fill(g, dev, 1, {}).has_value());
  const auto design = level_fill(g, dev, 2, {10.0, 10.0});
  ASSERT_TRUE(design.has_value());
  EXPECT_DOUBLE_EQ(design->total_latency_ns, 22.0);
  // A level below every point of a ready task places nothing.
  EXPECT_FALSE(level_fill(g, dev, 2, {5.0, 10.0}).has_value());
}

TEST(ExhaustiveTest, FindsKnownOptimum) {
  // Two tasks, one partition each is forced by area; optimum picks the fast
  // points because reconfiguration is cheap.
  graph::TaskGraph g("t");
  const graph::TaskId a =
      g.add_task("a", {{"fast", 90, 50}, {"small", 50, 200}});
  const graph::TaskId b =
      g.add_task("b", {{"fast", 90, 60}, {"small", 50, 210}});
  g.add_edge(a, b, 1);
  const arch::Device dev = arch::custom("d", 100, 64, 5);
  const auto best = exhaustive_optimal(g, dev, 2);
  ASSERT_TRUE(best.has_value());
  // Options: both small in one partition: 200+210+5 = 415 (chained).
  // Fast in two partitions: 50+60+10 = 120. Mixed are worse.
  EXPECT_DOUBLE_EQ(best->total_latency_ns, 120.0);
  EXPECT_EQ(best->num_partitions_used, 2);
}

TEST(ExhaustiveTest, DetectsInfeasibility) {
  graph::TaskGraph g("t");
  g.add_task("a", {{"m", 500, 10}});
  const arch::Device dev = arch::custom("d", 100, 64, 1);
  EXPECT_FALSE(exhaustive_optimal(g, dev, 3).has_value());
}

TEST(ExhaustiveTest, RefusesLargeGraphs) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  EXPECT_THROW(exhaustive_optimal(g, dev, 4), InvalidArgumentError);
}

TEST(GreedyBaselineTest, HeuristicBoundsForAlphaGamma) {
  // Section 3.2.2: the greedy with min-area points gives N'; with max-area
  // points gives N''. These bracket the analytic bounds from below/above.
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 1024, 4096, 100);
  const auto n_prime = greedy_first_fit(g, dev, PointPolicy::kMinArea);
  const auto n_double_prime =
      greedy_first_fit(g, dev, PointPolicy::kMaxArea);
  ASSERT_TRUE(n_prime.has_value());
  ASSERT_TRUE(n_double_prime.has_value());
  EXPECT_GE(n_prime->num_partitions_used, min_area_partitions(g, dev));
  EXPECT_GE(n_double_prime->num_partitions_used,
            max_area_partitions(g, dev));
}

}  // namespace
}  // namespace sparcs::core
