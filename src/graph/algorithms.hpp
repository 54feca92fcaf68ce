// DAG algorithms over TaskGraph: topological order, level assignment,
// reachability, critical paths and the transitive reduction. (The
// root->leaf paths of eq. (7) are counted and walked by milp::PathFamily.)
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/task_graph.hpp"

namespace sparcs::graph {

/// True when the graph has no directed cycle.
bool is_dag(const TaskGraph& graph);

/// Topological order of all tasks (stable: ready tasks are emitted in id
/// order). Throws InvalidArgumentError when the graph has a cycle.
std::vector<TaskId> topological_order(const TaskGraph& graph);

/// ASAP level of every task: roots get level 0, every other task one more
/// than its deepest predecessor.
std::vector<int> task_levels(const TaskGraph& graph);

/// reachable[u][v] is true when a directed path u ->* v exists (u != v).
std::vector<std::vector<bool>> reachability(const TaskGraph& graph);

/// Longest root-to-leaf path weight where each task contributes
/// task_weight(id); linear-time DP over the DAG.
double critical_path_weight(const TaskGraph& graph,
                            const std::function<double(TaskId)>& task_weight);

/// Critical path using each task's minimum-latency design point: the paper's
/// MinLatency path term (Section 3.1).
double min_latency_critical_path(const TaskGraph& graph);

/// Critical path using each task's maximum-latency design point.
double max_latency_critical_path(const TaskGraph& graph);

/// Sum over tasks of the given per-task weight.
double total_task_weight(const TaskGraph& graph,
                         const std::function<double(TaskId)>& task_weight);

/// Indices (into graph.edges()) of the transitive reduction: the minimal
/// edge subset with the same reachability. Temporal-order constraints only
/// need these edges — an edge implied by a two-hop path is redundant in the
/// partitioning model (data volumes on skipped edges still matter for the
/// memory constraint, so this must only be used for ordering).
std::vector<int> transitive_reduction_edges(const TaskGraph& graph);

}  // namespace sparcs::graph
