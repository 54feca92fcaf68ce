#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.hpp"
#include "graph/task_graph.hpp"
#include "support/error.hpp"

namespace sparcs::graph {
namespace {

std::vector<DesignPoint> one_point(double area, double latency) {
  return {DesignPoint{"m", area, latency}};
}

/// Diamond: a -> {b, c} -> d.
TaskGraph make_diamond() {
  TaskGraph g("diamond");
  const TaskId a = g.add_task("a", one_point(10, 100));
  const TaskId b = g.add_task("b", one_point(20, 200));
  const TaskId c = g.add_task("c", one_point(30, 300));
  const TaskId d = g.add_task("d", one_point(40, 400));
  g.add_edge(a, b, 4);
  g.add_edge(a, c, 8);
  g.add_edge(b, d, 2);
  g.add_edge(c, d, 1);
  return g;
}

TEST(TaskGraphTest, BasicAccessors) {
  TaskGraph g = make_diamond();
  EXPECT_EQ(g.num_tasks(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.task(0).name, "a");
  EXPECT_EQ(g.find_task("c"), 2);
  EXPECT_EQ(g.find_task("zzz"), -1);
}

TEST(TaskGraphTest, SuccessorsAndPredecessors) {
  TaskGraph g = make_diamond();
  EXPECT_EQ(g.successors(0).size(), 2u);
  EXPECT_EQ(g.predecessors(3).size(), 2u);
  EXPECT_TRUE(g.predecessors(0).empty());
  EXPECT_TRUE(g.successors(3).empty());
}

TEST(TaskGraphTest, RootsAndLeaves) {
  TaskGraph g = make_diamond();
  EXPECT_EQ(g.roots(), std::vector<TaskId>{0});
  EXPECT_EQ(g.leaves(), std::vector<TaskId>{3});
}

TEST(TaskGraphTest, ParallelEdgesMerge) {
  TaskGraph g("t");
  const TaskId a = g.add_task("a", one_point(1, 1));
  const TaskId b = g.add_task("b", one_point(1, 1));
  g.add_edge(a, b, 3);
  g.add_edge(a, b, 4);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edges()[0].data_units, 7.0);
}

TEST(TaskGraphTest, DuplicateNameRejected) {
  TaskGraph g("t");
  g.add_task("a", one_point(1, 1));
  EXPECT_THROW(g.add_task("a", one_point(1, 1)), InvalidArgumentError);
}

TEST(TaskGraphTest, SelfEdgeRejected) {
  TaskGraph g("t");
  const TaskId a = g.add_task("a", one_point(1, 1));
  EXPECT_THROW(g.add_edge(a, a, 1), InvalidArgumentError);
}

TEST(TaskGraphTest, MinMaxAreaLatency) {
  TaskGraph g("t");
  const TaskId a = g.add_task(
      "a", {DesignPoint{"fast", 100, 10}, DesignPoint{"small", 20, 90}});
  EXPECT_DOUBLE_EQ(g.min_area(a), 20);
  EXPECT_DOUBLE_EQ(g.max_area(a), 100);
  EXPECT_DOUBLE_EQ(g.min_latency(a), 10);
  EXPECT_DOUBLE_EQ(g.max_latency(a), 90);
}

TEST(TaskGraphTest, ValidateAcceptsDiamond) {
  EXPECT_NO_THROW(make_diamond().validate());
}

TEST(TaskGraphTest, ValidateRejectsEmptyGraph) {
  TaskGraph g("empty");
  EXPECT_THROW(g.validate(), InvalidArgumentError);
}

TEST(TaskGraphTest, ValidateRejectsMissingDesignPoints) {
  TaskGraph g("t");
  g.add_task(Task{"a", {}, 0, 0});
  EXPECT_THROW(g.validate(), InvalidArgumentError);
}

TEST(TaskGraphTest, ValidateRejectsNonPositiveArea) {
  TaskGraph g("t");
  g.add_task("a", one_point(0.0, 5.0));
  EXPECT_THROW(g.validate(), InvalidArgumentError);
}

TEST(AlgorithmsTest, IsDagDetectsCycle) {
  TaskGraph g("t");
  const TaskId a = g.add_task("a", one_point(1, 1));
  const TaskId b = g.add_task("b", one_point(1, 1));
  g.add_edge(a, b, 1);
  EXPECT_TRUE(is_dag(g));
  g.add_edge(b, a, 1);
  EXPECT_FALSE(is_dag(g));
  EXPECT_THROW(topological_order(g), InvalidArgumentError);
}

TEST(AlgorithmsTest, TopologicalOrderRespectsEdges) {
  TaskGraph g = make_diamond();
  const std::vector<TaskId> order = topological_order(g);
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](TaskId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  for (const DataEdge& e : g.edges()) EXPECT_LT(pos(e.from), pos(e.to));
}

TEST(AlgorithmsTest, TaskLevels) {
  TaskGraph g = make_diamond();
  const std::vector<int> levels = task_levels(g);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], 1);
  EXPECT_EQ(levels[2], 1);
  EXPECT_EQ(levels[3], 2);
}

TEST(AlgorithmsTest, Reachability) {
  TaskGraph g = make_diamond();
  const auto reach = reachability(g);
  EXPECT_TRUE(reach[0][3]);
  EXPECT_TRUE(reach[0][1]);
  EXPECT_FALSE(reach[1][2]);
  EXPECT_FALSE(reach[3][0]);
  EXPECT_FALSE(reach[0][0]);
}

TEST(AlgorithmsTest, CriticalPathWeights) {
  TaskGraph g = make_diamond();
  // Longest path a -> c -> d with single design points: 100 + 300 + 400.
  EXPECT_DOUBLE_EQ(min_latency_critical_path(g), 800.0);
  EXPECT_DOUBLE_EQ(max_latency_critical_path(g), 800.0);
  EXPECT_DOUBLE_EQ(
      critical_path_weight(g, [](TaskId) { return 1.0; }), 3.0);
}

TEST(AlgorithmsTest, CriticalPathWithAlternatives) {
  TaskGraph g("t");
  const TaskId a = g.add_task(
      "a", {DesignPoint{"fast", 100, 10}, DesignPoint{"slow", 10, 100}});
  const TaskId b = g.add_task(
      "b", {DesignPoint{"fast", 100, 20}, DesignPoint{"slow", 10, 200}});
  g.add_edge(a, b, 1);
  EXPECT_DOUBLE_EQ(min_latency_critical_path(g), 30.0);
  EXPECT_DOUBLE_EQ(max_latency_critical_path(g), 300.0);
}

TEST(AlgorithmsTest, TotalTaskWeight) {
  TaskGraph g = make_diamond();
  EXPECT_DOUBLE_EQ(
      total_task_weight(g, [&](TaskId id) { return g.min_area(id); }), 100.0);
}

TEST(AlgorithmsTest, TransitiveReductionDropsImpliedEdges) {
  TaskGraph g("t");
  const TaskId a = g.add_task("a", one_point(1, 1));
  const TaskId b = g.add_task("b", one_point(1, 1));
  const TaskId c = g.add_task("c", one_point(1, 1));
  g.add_edge(a, b, 1);
  g.add_edge(b, c, 1);
  g.add_edge(a, c, 1);  // implied by a->b->c
  const std::vector<int> kept = transitive_reduction_edges(g);
  ASSERT_EQ(kept.size(), 2u);
  for (const int e : kept) {
    const DataEdge& edge = g.edges()[static_cast<std::size_t>(e)];
    EXPECT_FALSE(edge.from == a && edge.to == c);
  }
}

TEST(AlgorithmsTest, TransitiveReductionKeepsDiamond) {
  const TaskGraph g = make_diamond();
  // No diamond edge is implied by the others.
  EXPECT_EQ(transitive_reduction_edges(g).size(), 4u);
}

TEST(AlgorithmsTest, TransitiveReductionPreservesReachability) {
  TaskGraph g("t");
  std::vector<TaskId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(g.add_task("t" + std::to_string(i), one_point(1, 1)));
  }
  // Dense-ish DAG: every earlier task points at every later one.
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) g.add_edge(ids[i], ids[j], 1);
  }
  const std::vector<int> kept = transitive_reduction_edges(g);
  EXPECT_EQ(kept.size(), 5u);  // a chain remains

  TaskGraph reduced("r");
  for (int i = 0; i < 6; ++i) {
    reduced.add_task("t" + std::to_string(i), one_point(1, 1));
  }
  for (const int e : kept) {
    const DataEdge& edge = g.edges()[static_cast<std::size_t>(e)];
    reduced.add_edge(edge.from, edge.to, edge.data_units);
  }
  EXPECT_EQ(reachability(reduced), reachability(g));
}

TEST(AlgorithmsTest, DisconnectedComponents) {
  TaskGraph g("t");
  g.add_task("a", one_point(1, 5));
  g.add_task("b", one_point(1, 9));
  EXPECT_EQ(g.roots().size(), 2u);
  EXPECT_EQ(g.leaves().size(), 2u);
  EXPECT_DOUBLE_EQ(min_latency_critical_path(g), 9.0);
}

}  // namespace
}  // namespace sparcs::graph
