#include "core/baselines.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "graph/algorithms.hpp"
#include "support/error.hpp"

namespace sparcs::core {
namespace {

int pick_point(const graph::Task& task, PointPolicy policy) {
  const auto& points = task.design_points;
  int best = 0;
  for (int i = 1; i < static_cast<int>(points.size()); ++i) {
    const auto& cand = points[static_cast<std::size_t>(i)];
    const auto& incumbent = points[static_cast<std::size_t>(best)];
    bool better = false;
    switch (policy) {
      case PointPolicy::kMinArea:
        better = cand.area < incumbent.area;
        break;
      case PointPolicy::kMinLatency:
        better = cand.latency_ns < incumbent.latency_ns;
        break;
      case PointPolicy::kMaxArea:
        better = cand.area > incumbent.area;
        break;
    }
    if (better) best = i;
  }
  return best;
}

/// The least-area point of `task` no slower than `budget` (the faster one on
/// an area tie), or -1 when none is.
int cheapest_point_within(const graph::Task& task, double budget) {
  const auto& points = task.design_points;
  int best = -1;
  for (int i = 0; i < static_cast<int>(points.size()); ++i) {
    const auto& cand = points[static_cast<std::size_t>(i)];
    if (cand.latency_ns > budget + 1e-9 * std::max(1.0, budget)) continue;
    if (best < 0) {
      best = i;
      continue;
    }
    const auto& incumbent = points[static_cast<std::size_t>(best)];
    if (cand.area < incumbent.area ||
        (cand.area == incumbent.area &&
         cand.latency_ns < incumbent.latency_ns)) {
      best = i;
    }
  }
  return best;
}

}  // namespace

std::optional<PartitionedDesign> greedy_first_fit(
    const graph::TaskGraph& graph, const arch::Device& device,
    PointPolicy policy, int max_partitions) {
  graph.validate();
  device.validate();

  PartitionedDesign design;
  design.assignment.assign(static_cast<std::size_t>(graph.num_tasks()), {});
  std::vector<double> used_area(static_cast<std::size_t>(max_partitions),
                                0.0);
  int highest = 1;
  for (const graph::TaskId t : graph::topological_order(graph)) {
    const int point = pick_point(graph.task(t), policy);
    const double area =
        graph.task(t).design_points[static_cast<std::size_t>(point)].area;
    if (area > device.resource_capacity) return std::nullopt;
    int p_min = 1;
    for (const graph::TaskId pred : graph.predecessors(t)) {
      p_min = std::max(
          p_min,
          design.assignment[static_cast<std::size_t>(pred)].partition);
    }
    int placed = -1;
    for (int p = p_min; p <= max_partitions; ++p) {
      if (used_area[static_cast<std::size_t>(p - 1)] + area <=
          device.resource_capacity + 1e-9) {
        placed = p;
        break;
      }
    }
    if (placed < 0) return std::nullopt;
    design.assignment[static_cast<std::size_t>(t)] =
        TaskAssignment{placed, point};
    used_area[static_cast<std::size_t>(placed - 1)] += area;
    highest = std::max(highest, placed);
  }
  design.num_partitions_allocated = highest;
  recompute_latency(graph, device, design);
  if (!validate_design(graph, device, design).ok) {
    return std::nullopt;  // e.g. the frozen points violate the memory budget
  }
  return design;
}

std::optional<PartitionedDesign> level_fill(const graph::TaskGraph& graph,
                                            const arch::Device& device,
                                            int max_partitions,
                                            std::vector<double> levels) {
  graph.validate();
  device.validate();
  const auto n_tasks = static_cast<std::size_t>(graph.num_tasks());
  const bool unbounded = levels.empty();
  std::sort(levels.begin(), levels.end());

  // Placement priority: area-weighted tail, then min area, then id.
  const std::vector<graph::TaskId> topo = graph::topological_order(graph);
  std::vector<double> tail(n_tasks, 0.0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    double longest = 0.0;
    for (const graph::TaskId succ : graph.successors(*it)) {
      longest = std::max(longest, tail[static_cast<std::size_t>(succ)]);
    }
    tail[static_cast<std::size_t>(*it)] = graph.min_area(*it) + longest;
  }
  std::vector<graph::TaskId> order = topo;
  std::sort(order.begin(), order.end(),
            [&](graph::TaskId a, graph::TaskId b) {
              const auto ia = static_cast<std::size_t>(a);
              const auto ib = static_cast<std::size_t>(b);
              if (tail[ia] != tail[ib]) return tail[ia] > tail[ib];
              if (graph.min_area(a) != graph.min_area(b)) {
                return graph.min_area(a) > graph.min_area(b);
              }
              return a < b;
            });

  std::vector<TaskAssignment> assignment(n_tasks);
  std::vector<int> unplaced_preds(n_tasks, 0);
  for (const graph::TaskId t : topo) {
    unplaced_preds[static_cast<std::size_t>(t)] =
        static_cast<int>(graph.predecessors(t).size());
  }

  // The tasks (with points) one partition at `level` takes, highest priority
  // first among the ready tasks that fit; nothing is committed.
  auto fill = [&](double level) {
    std::vector<std::pair<graph::TaskId, int>> placed;
    std::vector<int> waiting = unplaced_preds;
    std::vector<double> finish(n_tasks, -1.0);  // -1: not in this partition
    double area = 0.0;
    for (bool grew = true; grew;) {
      grew = false;
      for (const graph::TaskId t : order) {
        const auto i = static_cast<std::size_t>(t);
        if (assignment[i].partition != 0 || finish[i] >= 0.0 ||
            waiting[i] > 0) {
          continue;
        }
        double start = 0.0;
        for (const graph::TaskId pred : graph.predecessors(t)) {
          start = std::max(start, finish[static_cast<std::size_t>(pred)]);
        }
        const graph::Task& task = graph.task(t);
        const int point = cheapest_point_within(task, level - start);
        if (point < 0) continue;
        const graph::DesignPoint& chosen =
            task.design_points[static_cast<std::size_t>(point)];
        if (area + chosen.area > device.resource_capacity + 1e-9) continue;
        area += chosen.area;
        finish[i] = start + chosen.latency_ns;
        placed.emplace_back(t, point);
        for (const graph::TaskId succ : graph.successors(t)) {
          --waiting[static_cast<std::size_t>(succ)];
        }
        grew = true;
        break;
      }
    }
    return placed;
  };

  std::size_t remaining = n_tasks;
  int partition = 0;
  while (remaining > 0) {
    if (partition == max_partitions || (!unbounded && levels.empty())) {
      return std::nullopt;
    }
    ++partition;
    std::vector<std::pair<graph::TaskId, int>> best;
    if (unbounded) {
      best = fill(std::numeric_limits<double>::infinity());
    } else {
      std::size_t best_level = 0;
      for (std::size_t l = 0; l < levels.size(); ++l) {
        if (l > 0 && levels[l] == levels[l - 1]) continue;
        std::vector<std::pair<graph::TaskId, int>> placed = fill(levels[l]);
        if (placed.size() > best.size()) {
          best = std::move(placed);
          best_level = l;
        }
      }
      levels.erase(levels.begin() + static_cast<std::ptrdiff_t>(best_level));
    }
    if (best.empty()) return std::nullopt;
    for (const auto& [t, point] : best) {
      assignment[static_cast<std::size_t>(t)] =
          TaskAssignment{partition, point};
      for (const graph::TaskId succ : graph.successors(t)) {
        --unplaced_preds[static_cast<std::size_t>(succ)];
      }
    }
    remaining -= best.size();
  }

  PartitionedDesign design;
  design.num_partitions_allocated = partition;
  design.assignment = std::move(assignment);
  recompute_latency(graph, device, design);
  if (!validate_design(graph, device, design).ok) return std::nullopt;
  return design;
}

std::optional<PartitionedDesign> exhaustive_optimal(
    const graph::TaskGraph& graph, const arch::Device& device,
    int max_partitions) {
  graph.validate();
  device.validate();
  const int n_tasks = graph.num_tasks();
  SPARCS_REQUIRE(n_tasks <= 8, "exhaustive_optimal is for tiny graphs only");

  PartitionedDesign current;
  current.num_partitions_allocated = max_partitions;
  current.assignment.assign(static_cast<std::size_t>(n_tasks), {});
  std::optional<PartitionedDesign> best;
  double best_latency = std::numeric_limits<double>::infinity();

  const std::vector<graph::TaskId> order = graph::topological_order(graph);

  // Depth-first enumeration over (partition, point) per task in topological
  // order; precedence lets us prune partitions before the predecessors'.
  auto recurse = [&](auto&& self, std::size_t depth) -> void {
    if (depth == order.size()) {
      recompute_latency(graph, device, current);
      if (current.total_latency_ns < best_latency &&
          validate_design(graph, device, current).ok) {
        best = current;
        best_latency = current.total_latency_ns;
      }
      return;
    }
    const graph::TaskId t = order[depth];
    int p_min = 1;
    for (const graph::TaskId pred : graph.predecessors(t)) {
      p_min = std::max(
          p_min,
          current.assignment[static_cast<std::size_t>(pred)].partition);
    }
    const int n_points =
        static_cast<int>(graph.task(t).design_points.size());
    for (int p = p_min; p <= max_partitions; ++p) {
      for (int k = 0; k < n_points; ++k) {
        current.assignment[static_cast<std::size_t>(t)] =
            TaskAssignment{p, k};
        // Cheap area prune on the partial assignment.
        if (partition_area(graph, current, p) >
            device.resource_capacity + 1e-9) {
          continue;
        }
        self(self, depth + 1);
      }
    }
    current.assignment[static_cast<std::size_t>(t)] = TaskAssignment{};
  };
  recurse(recurse, 0);
  return best;
}

}  // namespace sparcs::core
