#include "sim/executor.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace sparcs::sim {
namespace {

/// Memory occupancy while partition p is resident, matching the analytic
/// model of core::partition_memory.
double live_memory(const graph::TaskGraph& graph,
                   const core::PartitionedDesign& design, int p) {
  return core::partition_memory(graph, design, p);
}

}  // namespace

SimulationResult simulate(const graph::TaskGraph& graph,
                          const arch::Device& device,
                          const core::PartitionedDesign& design,
                          const SimulationOptions& options) {
  const core::DesignCheck check = core::validate_design(graph, device, design);
  SPARCS_REQUIRE(check.ok, "cannot simulate invalid design: " +
                               check.violation);

  SimulationResult result;
  result.tasks.assign(static_cast<std::size_t>(graph.num_tasks()), {});

  const std::vector<graph::TaskId> topo = graph::topological_order(graph);
  double clock_ns = 0.0;
  double loader_free_ns = 0.0;  // the single configuration loader port

  for (int p = 1; p <= design.num_partitions_allocated; ++p) {
    // Collect this partition's tasks in topological order.
    std::vector<graph::TaskId> members;
    for (const graph::TaskId t : topo) {
      if (design.assignment[static_cast<std::size_t>(t)].partition == p) {
        members.push_back(t);
      }
    }
    if (members.empty()) continue;

    PartitionTrace trace;
    trace.partition = p;
    if (options.prefetch_configurations) {
      // The load may overlap the previous configuration's execution but
      // loads serialize on the loader.
      trace.reconfig_start_ns = loader_free_ns;
      loader_free_ns += device.reconfig_time_ns;
      clock_ns = std::max(clock_ns, loader_free_ns);
    } else {
      trace.reconfig_start_ns = clock_ns;
      clock_ns += device.reconfig_time_ns;
    }
    result.total_reconfig_ns += device.reconfig_time_ns;
    trace.exec_start_ns = clock_ns;

    // Task-level dataflow inside the partition: a task starts when its
    // same-partition predecessors finish (cross-partition inputs were
    // buffered before the configuration loaded).
    double finish_max = clock_ns;
    for (const graph::TaskId t : members) {
      double start = clock_ns;
      for (const graph::TaskId pred : graph.predecessors(t)) {
        if (design.assignment[static_cast<std::size_t>(pred)].partition == p) {
          start = std::max(
              start, result.tasks[static_cast<std::size_t>(pred)].finish_ns);
        }
      }
      const core::TaskAssignment& a =
          design.assignment[static_cast<std::size_t>(t)];
      const double latency =
          graph.task(t)
              .design_points[static_cast<std::size_t>(a.design_point)]
              .latency_ns;
      TaskTrace& tt = result.tasks[static_cast<std::size_t>(t)];
      tt.task = t;
      tt.partition = p;
      tt.start_ns = start;
      tt.finish_ns = start + latency;
      finish_max = std::max(finish_max, tt.finish_ns);
      trace.area_used +=
          graph.task(t)
              .design_points[static_cast<std::size_t>(a.design_point)]
              .area;
    }
    clock_ns = finish_max;
    trace.exec_finish_ns = finish_max;
    trace.peak_memory = live_memory(graph, design, p);
    result.peak_memory = std::max(result.peak_memory, trace.peak_memory);
    result.partitions.push_back(trace);
  }

  result.makespan_ns = clock_ns;
  return result;
}

double estimated_makespan(const graph::TaskGraph& graph,
                          const arch::Device& device,
                          const core::PartitionedDesign& design,
                          bool prefetch_configurations) {
  const double ct = device.reconfig_time_ns;
  double exec_finish = 0.0;
  double loader_free = 0.0;
  const std::vector<double> latency =
      core::partition_path_latencies(graph, design);
  for (int p = 1; p <= design.num_partitions_allocated; ++p) {
    const double d = latency[static_cast<std::size_t>(p - 1)];
    bool used = false;
    for (const core::TaskAssignment& a : design.assignment) {
      if (a.partition == p) {
        used = true;
        break;
      }
    }
    if (!used) continue;
    if (prefetch_configurations) {
      loader_free += ct;
      exec_finish = std::max(exec_finish, loader_free) + d;
    } else {
      exec_finish += ct + d;
    }
  }
  return exec_finish;
}

std::string SimulationResult::to_string(const graph::TaskGraph& graph) const {
  std::ostringstream os;
  os << "makespan " << trim_double(makespan_ns) << " ns ("
     << trim_double(total_reconfig_ns) << " ns reconfiguration, peak memory "
     << trim_double(peak_memory) << ")\n";
  for (const PartitionTrace& p : partitions) {
    os << "  config " << p.partition << ": load @"
       << trim_double(p.reconfig_start_ns) << ", run ["
       << trim_double(p.exec_start_ns) << ", "
       << trim_double(p.exec_finish_ns) << "] area "
       << trim_double(p.area_used) << " mem " << trim_double(p.peak_memory)
       << "\n";
    for (const TaskTrace& t : tasks) {
      if (t.partition != p.partition || t.task < 0) continue;
      os << "    " << graph.task(t.task).name << " ["
         << trim_double(t.start_ns) << ", " << trim_double(t.finish_ns)
         << "]\n";
    }
  }
  return os.str();
}

}  // namespace sparcs::sim
