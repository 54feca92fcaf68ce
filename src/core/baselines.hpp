// Baseline partitioners for comparison:
//  - greedy first-fit with a fixed design-point policy, the "partition after
//    synthesis" approach of gate/RT-level temporal partitioners ([5],[11]):
//    design points are frozen before partitioning, so no design space
//    exploration happens;
//  - a level fill that packs ready tasks into partitions of given latency
//    levels, seeding the search with the shape of the LB(N) relaxation's
//    optimum (core/bounds);
//  - exhaustive enumeration for tiny instances, used by the property tests
//    as ground truth for the combined problem.
#pragma once

#include <optional>
#include <vector>

#include "arch/device.hpp"
#include "core/solution.hpp"
#include "graph/task_graph.hpp"

namespace sparcs::core {

/// How the greedy baseline freezes each task's design point.
enum class PointPolicy {
  kMinArea,     ///< smallest area (fewest partitions, slowest tasks)
  kMinLatency,  ///< fastest (largest area, most partitions)
  kMaxArea,     ///< largest area (for the N''/gamma heuristic of §3.2.2)
};

/// Greedy first-fit temporal partitioning with frozen design points: tasks in
/// topological order, each placed into the lowest-indexed partition that is
/// at or after all its predecessors and still has area for it. Returns
/// nullopt when no placement within `max_partitions` satisfies area and
/// memory constraints.
std::optional<PartitionedDesign> greedy_first_fit(
    const graph::TaskGraph& graph, const arch::Device& device,
    PointPolicy policy, int max_partitions = 64);

/// Fills partitions 1, 2, ... in order, each at one latency level taken from
/// the multiset `levels` (e.g. LatencyBound::levels): the level whose fill
/// places the most tasks, the lowest on a tie. A fill places ready tasks
/// (every predecessor already placed) by largest area-weighted tail first
/// (longest min-area path to a sink), then larger min area, then lower id;
/// each at its cheapest point whose chain finish inside the partition stays
/// within the level, when that area still fits. An empty `levels` means
/// unbounded levels, i.e. min-area points. Returns nullopt when tasks remain
/// after `max_partitions` partitions or the levels run out, or when the
/// result fails validate_design (e.g. the memory budget).
std::optional<PartitionedDesign> level_fill(const graph::TaskGraph& graph,
                                            const arch::Device& device,
                                            int max_partitions,
                                            std::vector<double> levels);

/// Exhaustively enumerates every (partition, design point) assignment with at
/// most `max_partitions` partitions and returns a minimum-total-latency valid
/// design (nullopt when none exists). Exponential: tiny graphs only.
std::optional<PartitionedDesign> exhaustive_optimal(
    const graph::TaskGraph& graph, const arch::Device& device,
    int max_partitions);

}  // namespace sparcs::core
