#include <gtest/gtest.h>

#include <vector>

#include "arch/device.hpp"
#include "core/solution.hpp"
#include "graph/task_graph.hpp"

namespace sparcs::core {
namespace {

std::vector<graph::DesignPoint> pt(double area, double latency) {
  return {{"m", area, latency}};
}

/// Scenario from Figure 3 of the paper: four tasks over three partitions
/// with data flowing across both adjacent and non-adjacent partitions.
struct Fig3 {
  graph::TaskGraph g{"fig3"};
  PartitionedDesign design;
  arch::Device dev = arch::custom("d", 1000, 100, 10);

  Fig3() {
    const graph::TaskId a = g.add_task("A", pt(10, 100));
    const graph::TaskId b = g.add_task("B", pt(10, 100));
    const graph::TaskId c = g.add_task("C", pt(10, 100));
    const graph::TaskId d = g.add_task("D", pt(10, 100));
    g.add_edge(a, b, 3);  // P1 -> P2: alive during P2
    g.add_edge(a, c, 5);  // P1 -> P3: alive during P2 and P3
    g.add_edge(b, c, 7);  // P2 -> P3: alive during P3
    g.add_edge(b, d, 2);  // P2 -> P2: never crosses
    design.num_partitions_allocated = 3;
    design.assignment = {{1, 0}, {2, 0}, {3, 0}, {2, 0}};
    recompute_latency(g, dev, design);
  }
};

TEST(SolutionTest, Fig3MemoryAccounting) {
  Fig3 f;
  EXPECT_DOUBLE_EQ(partition_memory(f.g, f.design, 1), 0.0);
  // During P2: A->B (3) and A->C (5) are alive.
  EXPECT_DOUBLE_EQ(partition_memory(f.g, f.design, 2), 8.0);
  // During P3: A->C (5) and B->C (7).
  EXPECT_DOUBLE_EQ(partition_memory(f.g, f.design, 3), 12.0);
}

TEST(SolutionTest, Fig3EnvironmentMemory) {
  Fig3 f;
  f.g.mutable_task(0).env_in = 11;   // consumed at P1
  f.g.mutable_task(2).env_in = 13;   // consumed at P3: alive P1..P3
  f.g.mutable_task(1).env_out = 4;   // produced at P2: alive P2..P3
  EXPECT_DOUBLE_EQ(partition_memory(f.g, f.design, 1), 11 + 13);
  EXPECT_DOUBLE_EQ(partition_memory(f.g, f.design, 2), 13 + 4 + 8);
  EXPECT_DOUBLE_EQ(partition_memory(f.g, f.design, 3), 13 + 4 + 12);
}

TEST(SolutionTest, Fig3ValidatesAgainstSufficientDevice) {
  Fig3 f;
  EXPECT_TRUE(validate_design(f.g, f.dev, f.design).ok);
  // Shrink the memory below the P3 requirement (12 units).
  f.dev.memory_capacity = 11;
  const DesignCheck check = validate_design(f.g, f.dev, f.design);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.violation.find("memory"), std::string::npos);
}

/// Scenario from Figure 4 of the paper: the latency of a partition is the
/// longest path among the task chains mapped to it (350 vs 400 vs 150 in
/// partition 1; 300 in partition 2).
struct Fig4 {
  graph::TaskGraph g{"fig4"};
  PartitionedDesign design;
  arch::Device dev = arch::custom("d", 1000, 1000, 25);

  Fig4() {
    const graph::TaskId a1 = g.add_task("a1", pt(10, 100));
    const graph::TaskId a2 = g.add_task("a2", pt(10, 250));
    const graph::TaskId b1 = g.add_task("b1", pt(10, 150));
    const graph::TaskId b2 = g.add_task("b2", pt(10, 250));
    const graph::TaskId c1 = g.add_task("c1", pt(10, 150));
    const graph::TaskId d1 = g.add_task("d1", pt(10, 300));
    g.add_edge(a1, a2, 1);
    g.add_edge(b1, b2, 1);
    g.add_edge(a2, d1, 1);
    g.add_edge(b2, d1, 1);
    g.add_edge(c1, d1, 1);
    design.num_partitions_allocated = 2;
    design.assignment = {{1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0}, {2, 0}};
    recompute_latency(g, dev, design);
  }
};

TEST(SolutionTest, Fig4PartitionLatencyIsLongestMappedPath) {
  Fig4 f;
  EXPECT_EQ(partition_path_latencies(f.g, f.design),
            (std::vector<double>{400.0, 300.0}));
  EXPECT_DOUBLE_EQ(f.design.execution_latency_ns, 700.0);
  EXPECT_EQ(f.design.num_partitions_used, 2);
  EXPECT_DOUBLE_EQ(f.design.total_latency_ns, 700.0 + 2 * 25.0);
}

TEST(SolutionTest, Fig4CrossPartitionEdgesDoNotChain) {
  Fig4 f;
  // Move a2 to partition 2: a1..a2 no longer chains inside partition 1, and
  // a2 chains with nothing in partition 2 except via d1.
  f.design.assignment[1] = {2, 0};
  recompute_latency(f.g, f.dev, f.design);
  // In partition 2: a2 (250) -> d1 (300) chains: 550.
  EXPECT_EQ(partition_path_latencies(f.g, f.design),
            (std::vector<double>{400.0, 550.0}));
}

TEST(SolutionTest, PartitionAreaSumsSelectedPoints) {
  graph::TaskGraph g("t");
  g.add_task("a", {{"small", 40, 200}, {"big", 90, 100}});
  g.add_task("b", {{"only", 60, 150}});
  PartitionedDesign design;
  design.num_partitions_allocated = 1;
  design.assignment = {{1, 1}, {1, 0}};
  EXPECT_DOUBLE_EQ(partition_area(g, design, 1), 150.0);
  design.assignment[0].design_point = 0;
  EXPECT_DOUBLE_EQ(partition_area(g, design, 1), 100.0);
}

TEST(SolutionTest, ValidateRejectsTemporalOrderViolation) {
  graph::TaskGraph g("t");
  const graph::TaskId a = g.add_task("a", pt(10, 10));
  const graph::TaskId b = g.add_task("b", pt(10, 10));
  g.add_edge(a, b, 1);
  const arch::Device dev = arch::custom("d", 100, 100, 1);
  PartitionedDesign design;
  design.num_partitions_allocated = 2;
  design.assignment = {{2, 0}, {1, 0}};
  recompute_latency(g, dev, design);
  const DesignCheck check = validate_design(g, dev, design);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.violation.find("order"), std::string::npos);
}

TEST(SolutionTest, ValidateRejectsAreaOverflowAndBadIndices) {
  graph::TaskGraph g("t");
  g.add_task("a", pt(80, 10));
  g.add_task("b", pt(80, 10));
  const arch::Device dev = arch::custom("d", 100, 100, 1);
  PartitionedDesign design;
  design.num_partitions_allocated = 1;
  design.assignment = {{1, 0}, {1, 0}};
  recompute_latency(g, dev, design);
  EXPECT_FALSE(validate_design(g, dev, design).ok);  // 160 > 100

  design.assignment = {{1, 0}, {1, 3}};
  EXPECT_FALSE(validate_design(g, dev, design).ok);  // bad point index
  design.assignment = {{0, 0}, {1, 0}};
  EXPECT_FALSE(validate_design(g, dev, design).ok);  // bad partition
}

TEST(SolutionTest, ValidateChecksStoredLatency) {
  Fig4 f;
  EXPECT_TRUE(validate_design(f.g, f.dev, f.design).ok);
  f.design.total_latency_ns += 100.0;
  EXPECT_FALSE(validate_design(f.g, f.dev, f.design).ok);
}

TEST(SolutionTest, ToStringMentionsPartitions) {
  Fig4 f;
  const std::string s = f.design.to_string(f.g);
  EXPECT_NE(s.find("P1"), std::string::npos);
  EXPECT_NE(s.find("P2"), std::string::npos);
  EXPECT_NE(s.find("d1"), std::string::npos);
}

}  // namespace
}  // namespace sparcs::core
