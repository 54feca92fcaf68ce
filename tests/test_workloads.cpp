#include <gtest/gtest.h>

#include "arch/device.hpp"
#include "graph/algorithms.hpp"
#include "support/error.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/synthetic.hpp"

namespace sparcs::workloads {
namespace {

TEST(DeviceTest, PresetsAreValid) {
  EXPECT_NO_THROW(arch::wildforce_like().validate());
  EXPECT_NO_THROW(arch::time_multiplexed_like().validate());
  EXPECT_GT(arch::wildforce_like().reconfig_time_ns,
            1e3 * arch::time_multiplexed_like().reconfig_time_ns);
}

TEST(DeviceTest, InvalidDeviceRejected) {
  arch::Device d;
  d.resource_capacity = 0;
  EXPECT_THROW(d.validate(), InvalidArgumentError);
  EXPECT_THROW(arch::custom("x", 100, 10, -1), InvalidArgumentError);
}

TEST(ArFilterTest, PinnedStructure) {
  const graph::TaskGraph g = ar_filter_task_graph();
  EXPECT_EQ(g.num_tasks(), 6);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.task(g.find_task("T1")).design_points.size(), 3u);
  EXPECT_EQ(g.task(g.find_task("T3")).design_points.size(), 2u);
  EXPECT_EQ(g.task(g.find_task("T2")).design_points.size(), 1u);
}

TEST(ArFilterTest, EstimatedPointsAreParetoFronts) {
  const graph::TaskGraph g =
      ar_filter_task_graph(DesignPointSource::kEstimated);
  EXPECT_NO_THROW(g.validate());
  for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
    const auto& points = g.task(t).design_points;
    ASSERT_GE(points.size(), 1u);
    for (std::size_t i = 1; i < points.size(); ++i) {
      EXPECT_GT(points[i].area, points[i - 1].area);
      EXPECT_LT(points[i].latency_ns, points[i - 1].latency_ns);
    }
  }
}

TEST(DctTest, StructureMatchesPaper) {
  const graph::TaskGraph g = dct_task_graph();
  EXPECT_EQ(g.num_tasks(), 32);
  EXPECT_EQ(g.num_edges(), 64);  // 16 T2 tasks x 4 inputs
  const auto levels = graph::task_levels(g);
  int level0 = 0, level1 = 0;
  for (const int l : levels) {
    (l == 0 ? level0 : level1) += 1;
    EXPECT_LE(l, 1);
  }
  EXPECT_EQ(level0, 16);
  EXPECT_EQ(level1, 16);
}

TEST(DctTest, PinnedNumbersMatchDesignDoc) {
  const graph::TaskGraph g = dct_task_graph();
  // Serial worst case: 16*750 + 16*840 = 25440 ns (the paper's Dmax term).
  EXPECT_DOUBLE_EQ(graph::total_task_weight(
                       g, [&](graph::TaskId t) { return g.max_latency(t); }),
                   25440.0);
  // Fastest critical path: 375 + 420 = 795 ns (the paper's Dmin term).
  EXPECT_DOUBLE_EQ(graph::min_latency_critical_path(g), 795.0);
}

TEST(DctTest, EachT2DependsOnItsRow) {
  const graph::TaskGraph g = dct_task_graph();
  const graph::TaskId z = g.find_task("T2_23");
  ASSERT_NE(z, -1);
  ASSERT_EQ(g.predecessors(z).size(), 4u);
  for (const graph::TaskId p : g.predecessors(z)) {
    EXPECT_EQ(g.task(p).name.substr(0, 4), "T1_2");
  }
}

TEST(DctTest, EstimatedVariantValid) {
  const graph::TaskGraph g = dct_task_graph(DesignPointSource::kEstimated);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_tasks(), 32);
}

TEST(RandomGraphTest, DeterministicForSeed) {
  RandomGraphOptions options;
  options.seed = 42;
  const graph::TaskGraph a = random_task_graph(options);
  const graph::TaskGraph b = random_task_graph(options);
  EXPECT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (graph::TaskId t = 0; t < a.num_tasks(); ++t) {
    EXPECT_EQ(a.task(t).name, b.task(t).name);
    EXPECT_EQ(a.task(t).design_points, b.task(t).design_points);
  }
}

TEST(RandomGraphTest, RespectsShapeParameters) {
  RandomGraphOptions options;
  options.num_tasks = 20;
  options.num_layers = 5;
  options.num_design_points = 4;
  options.seed = 7;
  const graph::TaskGraph g = random_task_graph(options);
  EXPECT_EQ(g.num_tasks(), 20);
  EXPECT_NO_THROW(g.validate());
  const auto levels = graph::task_levels(g);
  EXPECT_LE(*std::max_element(levels.begin(), levels.end()), 4);
  for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(g.task(t).design_points.size(), 4u);
  }
}

TEST(RandomGraphTest, DifferentSeedsDiffer) {
  RandomGraphOptions a, b;
  a.seed = 1;
  b.seed = 2;
  const graph::TaskGraph ga = random_task_graph(a);
  const graph::TaskGraph gb = random_task_graph(b);
  bool any_diff = ga.num_edges() != gb.num_edges();
  for (graph::TaskId t = 0; !any_diff && t < ga.num_tasks(); ++t) {
    any_diff = !(ga.task(t).design_points == gb.task(t).design_points);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChainTest, StructureAndValidity) {
  const graph::TaskGraph g = chain_task_graph(6);
  EXPECT_EQ(g.num_tasks(), 6);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.roots().size(), 1u);
  EXPECT_EQ(g.leaves().size(), 1u);
}

TEST(ButterflyTest, StructureAndValidity) {
  const graph::TaskGraph g = butterfly_task_graph(3, 8);
  EXPECT_EQ(g.num_tasks(), 24);
  EXPECT_NO_THROW(g.validate());
  // Every non-first-stage task has exactly two predecessors.
  int two_pred = 0;
  for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
    if (g.predecessors(t).size() == 2u) ++two_pred;
  }
  EXPECT_EQ(two_pred, 16);
  EXPECT_THROW(butterfly_task_graph(3, 6), InvalidArgumentError);
}

}  // namespace
}  // namespace sparcs::workloads
