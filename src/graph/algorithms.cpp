#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

#include "support/error.hpp"

namespace sparcs::graph {
namespace {

/// Kahn's algorithm; returns an empty vector when a cycle prevents completion.
std::vector<TaskId> kahn_order(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  std::vector<int> in_degree(static_cast<std::size_t>(n), 0);
  for (TaskId id = 0; id < n; ++id) {
    in_degree[static_cast<std::size_t>(id)] =
        static_cast<int>(graph.predecessors(id).size());
  }
  // Min-heap on task id keeps the order deterministic.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId id = 0; id < n; ++id) {
    if (in_degree[static_cast<std::size_t>(id)] == 0) ready.push(id);
  }
  std::vector<TaskId> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const TaskId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (const TaskId succ : graph.successors(id)) {
      if (--in_degree[static_cast<std::size_t>(succ)] == 0) ready.push(succ);
    }
  }
  if (static_cast<int>(order.size()) != n) order.clear();
  return order;
}

}  // namespace

bool is_dag(const TaskGraph& graph) {
  return graph.num_tasks() == 0 || !kahn_order(graph).empty();
}

std::vector<TaskId> topological_order(const TaskGraph& graph) {
  std::vector<TaskId> order = kahn_order(graph);
  SPARCS_REQUIRE(static_cast<int>(order.size()) == graph.num_tasks(),
                 "graph contains a cycle");
  return order;
}

std::vector<int> task_levels(const TaskGraph& graph) {
  const std::vector<TaskId> order = topological_order(graph);
  std::vector<int> level(static_cast<std::size_t>(graph.num_tasks()), 0);
  for (const TaskId id : order) {
    for (const TaskId pred : graph.predecessors(id)) {
      level[static_cast<std::size_t>(id)] =
          std::max(level[static_cast<std::size_t>(id)],
                   level[static_cast<std::size_t>(pred)] + 1);
    }
  }
  return level;
}

std::vector<std::vector<bool>> reachability(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  std::vector<std::vector<bool>> reach(
      static_cast<std::size_t>(n),
      std::vector<bool>(static_cast<std::size_t>(n), false));
  const std::vector<TaskId> order = topological_order(graph);
  // Process in reverse topological order so successor closures are complete.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId u = *it;
    auto& row = reach[static_cast<std::size_t>(u)];
    for (const TaskId succ : graph.successors(u)) {
      row[static_cast<std::size_t>(succ)] = true;
      const auto& succ_row = reach[static_cast<std::size_t>(succ)];
      for (int v = 0; v < n; ++v) {
        if (succ_row[static_cast<std::size_t>(v)]) {
          row[static_cast<std::size_t>(v)] = true;
        }
      }
    }
  }
  return reach;
}

double critical_path_weight(
    const TaskGraph& graph,
    const std::function<double(TaskId)>& task_weight) {
  const std::vector<TaskId> order = topological_order(graph);
  std::vector<double> finish(static_cast<std::size_t>(graph.num_tasks()), 0.0);
  double best = 0.0;
  for (const TaskId id : order) {
    double start = 0.0;
    for (const TaskId pred : graph.predecessors(id)) {
      start = std::max(start, finish[static_cast<std::size_t>(pred)]);
    }
    finish[static_cast<std::size_t>(id)] = start + task_weight(id);
    best = std::max(best, finish[static_cast<std::size_t>(id)]);
  }
  return best;
}

double min_latency_critical_path(const TaskGraph& graph) {
  return critical_path_weight(
      graph, [&](TaskId id) { return graph.min_latency(id); });
}

double max_latency_critical_path(const TaskGraph& graph) {
  return critical_path_weight(
      graph, [&](TaskId id) { return graph.max_latency(id); });
}

double total_task_weight(const TaskGraph& graph,
                         const std::function<double(TaskId)>& task_weight) {
  double total = 0.0;
  for (TaskId id = 0; id < graph.num_tasks(); ++id) total += task_weight(id);
  return total;
}

std::vector<int> transitive_reduction_edges(const TaskGraph& graph) {
  const auto reach = reachability(graph);
  std::vector<int> kept;
  for (int e = 0; e < graph.num_edges(); ++e) {
    const DataEdge& edge = graph.edges()[static_cast<std::size_t>(e)];
    // The edge u->v is redundant iff some direct successor w != v of u
    // reaches v (then u ->* v holds without this edge).
    bool redundant = false;
    for (const TaskId w : graph.successors(edge.from)) {
      if (w != edge.to &&
          reach[static_cast<std::size_t>(w)][static_cast<std::size_t>(edge.to)]) {
        redundant = true;
        break;
      }
    }
    if (!redundant) kept.push_back(e);
  }
  return kept;
}

}  // namespace sparcs::graph
