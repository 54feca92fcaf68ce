#include "core/solution.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "graph/algorithms.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace sparcs::core {
namespace {

constexpr double kTol = 1e-6;

double task_latency(const graph::TaskGraph& graph,
                    const PartitionedDesign& design, graph::TaskId t) {
  const TaskAssignment& a = design.assignment[static_cast<std::size_t>(t)];
  return graph.task(t)
      .design_points[static_cast<std::size_t>(a.design_point)]
      .latency_ns;
}

}  // namespace

std::string PartitionedDesign::to_string(const graph::TaskGraph& graph) const {
  std::ostringstream os;
  os << "partitions used: " << num_partitions_used << "/"
     << num_partitions_allocated << ", total latency "
     << trim_double(total_latency_ns) << " ns (execution "
     << trim_double(execution_latency_ns) << " ns)\n";
  for (int p = 1; p <= num_partitions_allocated; ++p) {
    std::vector<std::string> names;
    for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
      const TaskAssignment& a = assignment[static_cast<std::size_t>(t)];
      if (a.partition == p) {
        const auto& dp =
            graph.task(t).design_points[static_cast<std::size_t>(a.design_point)];
        names.push_back(graph.task(t).name + "(" + dp.module_set + ")");
      }
    }
    if (names.empty()) continue;
    os << "  P" << p << " [d=" << trim_double(partition_latency_ns.empty()
                                                  ? 0.0
                                                  : partition_latency_ns
                                                        [static_cast<std::size_t>(
                                                            p - 1)])
       << " ns]: " << join(names, ", ") << "\n";
  }
  return os.str();
}

double partition_area(const graph::TaskGraph& graph,
                      const PartitionedDesign& design, int p) {
  double area = 0.0;
  for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
    const TaskAssignment& a = design.assignment[static_cast<std::size_t>(t)];
    if (a.partition == p) {
      area += graph.task(t)
                  .design_points[static_cast<std::size_t>(a.design_point)]
                  .area;
    }
  }
  return area;
}

double partition_memory(const graph::TaskGraph& graph,
                        const PartitionedDesign& design, int p) {
  double memory = 0.0;
  for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
    const TaskAssignment& a = design.assignment[static_cast<std::size_t>(t)];
    const graph::Task& task = graph.task(t);
    if (a.partition >= p) memory += task.env_in;   // input still pending
    if (a.partition <= p) memory += task.env_out;  // output already produced
  }
  for (const graph::DataEdge& e : graph.edges()) {
    const int p1 =
        design.assignment[static_cast<std::size_t>(e.from)].partition;
    const int p2 = design.assignment[static_cast<std::size_t>(e.to)].partition;
    if (p1 < p && p <= p2) memory += e.data_units;
  }
  return memory;
}

double max_live_memory(const graph::TaskGraph& graph) {
  double memory = 0.0;
  for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
    memory += graph.task(t).env_in + graph.task(t).env_out;
  }
  for (const graph::DataEdge& e : graph.edges()) memory += e.data_units;
  return memory;
}

std::vector<double> partition_path_latencies(const graph::TaskGraph& graph,
                                             const PartitionedDesign& design) {
  // Longest chain within each partition's induced subgraph, all partitions
  // in one topological pass.
  std::vector<double> latency(
      static_cast<std::size_t>(std::max(0, design.num_partitions_allocated)),
      0.0);
  std::vector<double> finish(static_cast<std::size_t>(graph.num_tasks()), 0.0);
  for (const graph::TaskId t : graph::topological_order(graph)) {
    const int p = design.assignment[static_cast<std::size_t>(t)].partition;
    if (p < 1 || p > design.num_partitions_allocated) continue;
    double start = 0.0;
    for (const graph::TaskId pred : graph.predecessors(t)) {
      if (design.assignment[static_cast<std::size_t>(pred)].partition == p) {
        start = std::max(start, finish[static_cast<std::size_t>(pred)]);
      }
    }
    finish[static_cast<std::size_t>(t)] =
        start + task_latency(graph, design, t);
    double& d = latency[static_cast<std::size_t>(p - 1)];
    d = std::max(d, finish[static_cast<std::size_t>(t)]);
  }
  return latency;
}

void recompute_latency(const graph::TaskGraph& graph,
                       const arch::Device& device, PartitionedDesign& design) {
  int eta = 0;
  for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
    eta = std::max(eta,
                   design.assignment[static_cast<std::size_t>(t)].partition);
  }
  design.num_partitions_used = eta;
  design.partition_latency_ns = partition_path_latencies(graph, design);
  double total = 0.0;
  for (const double d : design.partition_latency_ns) total += d;
  design.execution_latency_ns = total;
  design.total_latency_ns = total + eta * device.reconfig_time_ns;
}

DesignCheck validate_design(const graph::TaskGraph& graph,
                            const arch::Device& device,
                            const PartitionedDesign& design) {
  DesignCheck check;
  auto fail = [&](std::string why) {
    check.ok = false;
    check.violation = std::move(why);
    return check;
  };

  if (static_cast<int>(design.assignment.size()) != graph.num_tasks()) {
    return fail("assignment does not cover all tasks");
  }
  const int n_parts = design.num_partitions_allocated;
  if (n_parts < 1) return fail("no partitions allocated");

  for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
    const TaskAssignment& a = design.assignment[static_cast<std::size_t>(t)];
    if (a.partition < 1 || a.partition > n_parts) {
      return fail(str_format("task %s assigned to invalid partition %d",
                             graph.task(t).name.c_str(), a.partition));
    }
    const int n_points =
        static_cast<int>(graph.task(t).design_points.size());
    if (a.design_point < 0 || a.design_point >= n_points) {
      return fail(str_format("task %s uses invalid design point %d",
                             graph.task(t).name.c_str(), a.design_point));
    }
  }

  // Temporal order along every edge.
  for (const graph::DataEdge& e : graph.edges()) {
    const int p1 =
        design.assignment[static_cast<std::size_t>(e.from)].partition;
    const int p2 = design.assignment[static_cast<std::size_t>(e.to)].partition;
    if (p1 > p2) {
      return fail(str_format(
          "temporal order violated: %s (P%d) precedes %s (P%d)",
          graph.task(e.from).name.c_str(), p1, graph.task(e.to).name.c_str(),
          p2));
    }
  }

  for (int p = 1; p <= n_parts; ++p) {
    const double area = partition_area(graph, design, p);
    if (area > device.resource_capacity + kTol) {
      return fail(str_format("partition %d area %.3f exceeds R_max %.3f", p,
                             area, device.resource_capacity));
    }
    const double memory = partition_memory(graph, design, p);
    if (memory > device.memory_capacity + kTol) {
      return fail(str_format("partition %d memory %.3f exceeds M_max %.3f", p,
                             memory, device.memory_capacity));
    }
  }

  // Latency bookkeeping must match a recomputation.
  PartitionedDesign copy = design;
  recompute_latency(graph, device, copy);
  if (copy.num_partitions_used != design.num_partitions_used) {
    return fail("stored eta does not match recomputation");
  }
  if (std::abs(copy.total_latency_ns - design.total_latency_ns) >
      kTol * std::max(1.0, copy.total_latency_ns)) {
    return fail(str_format("stored total latency %.3f != recomputed %.3f",
                           design.total_latency_ns, copy.total_latency_ns));
  }
  return check;
}

}  // namespace sparcs::core
