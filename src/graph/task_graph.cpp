#include "graph/task_graph.hpp"

#include <algorithm>
#include <limits>

#include "graph/algorithms.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace sparcs::graph {

TaskId TaskGraph::add_task(Task task) {
  SPARCS_REQUIRE(!task.name.empty(), "task name must be non-empty");
  SPARCS_REQUIRE(find_task(task.name) == -1,
                 "duplicate task name: " + task.name);
  tasks_.push_back(std::move(task));
  successors_.emplace_back();
  predecessors_.emplace_back();
  return static_cast<TaskId>(tasks_.size() - 1);
}

TaskId TaskGraph::add_task(std::string name,
                           std::vector<DesignPoint> design_points,
                           double env_in, double env_out) {
  Task task;
  task.name = std::move(name);
  task.design_points = std::move(design_points);
  task.env_in = env_in;
  task.env_out = env_out;
  return add_task(std::move(task));
}

void TaskGraph::add_edge(TaskId from, TaskId to, double data_units) {
  check_task_id(from);
  check_task_id(to);
  SPARCS_REQUIRE(from != to, "self edges are not allowed");
  SPARCS_REQUIRE(data_units >= 0.0, "edge data units must be non-negative");
  for (auto& edge : edges_) {
    if (edge.from == from && edge.to == to) {
      edge.data_units += data_units;
      return;
    }
  }
  edges_.push_back(DataEdge{from, to, data_units});
  successors_[static_cast<std::size_t>(from)].push_back(to);
  predecessors_[static_cast<std::size_t>(to)].push_back(from);
}

const Task& TaskGraph::task(TaskId id) const {
  check_task_id(id);
  return tasks_[static_cast<std::size_t>(id)];
}

Task& TaskGraph::mutable_task(TaskId id) {
  check_task_id(id);
  return tasks_[static_cast<std::size_t>(id)];
}

const std::vector<TaskId>& TaskGraph::successors(TaskId id) const {
  check_task_id(id);
  return successors_[static_cast<std::size_t>(id)];
}

const std::vector<TaskId>& TaskGraph::predecessors(TaskId id) const {
  check_task_id(id);
  return predecessors_[static_cast<std::size_t>(id)];
}

std::vector<TaskId> TaskGraph::roots() const {
  std::vector<TaskId> out;
  for (TaskId id = 0; id < num_tasks(); ++id) {
    if (predecessors_[static_cast<std::size_t>(id)].empty()) out.push_back(id);
  }
  return out;
}

std::vector<TaskId> TaskGraph::leaves() const {
  std::vector<TaskId> out;
  for (TaskId id = 0; id < num_tasks(); ++id) {
    if (successors_[static_cast<std::size_t>(id)].empty()) out.push_back(id);
  }
  return out;
}

TaskId TaskGraph::find_task(const std::string& name) const {
  for (TaskId id = 0; id < num_tasks(); ++id) {
    if (tasks_[static_cast<std::size_t>(id)].name == name) return id;
  }
  return -1;
}

double TaskGraph::min_area(TaskId id) const {
  const Task& t = task(id);
  SPARCS_REQUIRE(!t.design_points.empty(), "task has no design points");
  double best = std::numeric_limits<double>::infinity();
  for (const auto& dp : t.design_points) best = std::min(best, dp.area);
  return best;
}

double TaskGraph::max_area(TaskId id) const {
  const Task& t = task(id);
  SPARCS_REQUIRE(!t.design_points.empty(), "task has no design points");
  double best = 0.0;
  for (const auto& dp : t.design_points) best = std::max(best, dp.area);
  return best;
}

double TaskGraph::min_latency(TaskId id) const {
  const Task& t = task(id);
  SPARCS_REQUIRE(!t.design_points.empty(), "task has no design points");
  double best = std::numeric_limits<double>::infinity();
  for (const auto& dp : t.design_points) best = std::min(best, dp.latency_ns);
  return best;
}

double TaskGraph::max_latency(TaskId id) const {
  const Task& t = task(id);
  SPARCS_REQUIRE(!t.design_points.empty(), "task has no design points");
  double best = 0.0;
  for (const auto& dp : t.design_points) best = std::max(best, dp.latency_ns);
  return best;
}

void TaskGraph::validate() const {
  // Every generated workload, sweep and service job validates its graph, so
  // the per-task messages are formatted only on failure.
  require_input(num_tasks() > 0, "task graph is empty");
  for (TaskId id = 0; id < num_tasks(); ++id) {
    const Task& t = tasks_[static_cast<std::size_t>(id)];
    if (t.design_points.empty()) {
      throw InvalidArgumentError("task " + t.name + " has no design points");
    }
    for (const auto& dp : t.design_points) {
      if (!(dp.area > 0.0)) {
        throw InvalidArgumentError(
            str_format("task %s design point %s has non-positive area",
                       t.name.c_str(), dp.module_set.c_str()));
      }
      if (!(dp.latency_ns >= 0.0)) {
        throw InvalidArgumentError(
            str_format("task %s design point %s has negative latency",
                       t.name.c_str(), dp.module_set.c_str()));
      }
    }
    require_input(t.env_in >= 0.0 && t.env_out >= 0.0,
                  "environment transfer volumes must be non-negative");
  }
  require_input(is_dag(*this), "task graph contains a cycle");
}

void TaskGraph::check_task_id(TaskId id) const {
  SPARCS_REQUIRE(id >= 0 && id < num_tasks(),
                 str_format("task id %d out of range [0, %d)", id, num_tasks()));
}

}  // namespace sparcs::graph
