// Partitioned design: the output of the temporal partitioner, plus an
// independent validator that re-checks every constraint of Section 3.2.3
// directly against the task graph and device (without trusting the solver).
#pragma once

#include <string>
#include <vector>

#include "arch/device.hpp"
#include "graph/task_graph.hpp"

namespace sparcs::core {

/// Placement of one task: its temporal partition (1-based) and the index of
/// the selected design point within the task's design_points vector.
struct TaskAssignment {
  int partition = 0;
  int design_point = -1;
};

/// A complete temporal partitioning + design point selection.
struct PartitionedDesign {
  int num_partitions_allocated = 0;  ///< N given to the formulation
  int num_partitions_used = 0;       ///< eta: highest partition actually used
  std::vector<TaskAssignment> assignment;  ///< indexed by TaskId

  /// Recomputed per-partition critical-path latencies d_p, 1-based partition
  /// p stored at index p-1; size == num_partitions_allocated.
  std::vector<double> partition_latency_ns;
  double execution_latency_ns = 0.0;  ///< sum of partition latencies
  double total_latency_ns = 0.0;      ///< execution + eta * C_T

  [[nodiscard]] std::string to_string(const graph::TaskGraph& graph) const;
};

/// Area occupied in partition p (1-based) under `design`.
double partition_area(const graph::TaskGraph& graph,
                      const PartitionedDesign& design, int p);

/// Memory alive while partition p executes: environment inputs not yet
/// consumed, environment outputs already produced, and edge data crossing
/// the partition (produced before p, consumed at or after p).
double partition_memory(const graph::TaskGraph& graph,
                        const PartitionedDesign& design, int p);

/// Upper bound on partition_memory over every design and partition: all
/// environment inputs and outputs plus all edge data. When M_max is at least
/// this, the memory constraint cannot bind.
double max_live_memory(const graph::TaskGraph& graph);

/// Critical-path latency of the tasks mapped to each partition (edges
/// between co-located tasks chain; cross-partition edges do not): partition
/// p at index p-1, num_partitions_allocated entries.
std::vector<double> partition_path_latencies(const graph::TaskGraph& graph,
                                             const PartitionedDesign& design);

/// Recomputes partition_latency_ns / execution / total / eta fields from the
/// assignment. Called by decoders after the solver returns.
void recompute_latency(const graph::TaskGraph& graph,
                       const arch::Device& device, PartitionedDesign& design);

/// Result of validating a partitioned design.
struct DesignCheck {
  bool ok = true;
  std::string violation;
};

/// Independently verifies: every task assigned exactly once to a valid
/// partition and design point, temporal order along every edge, per-partition
/// area <= R_max, per-partition live memory <= M_max, and that the stored
/// latency fields match a recomputation.
DesignCheck validate_design(const graph::TaskGraph& graph,
                            const arch::Device& device,
                            const PartitionedDesign& design);

}  // namespace sparcs::core
