// Partition-count and latency bounds (Section 3.1 of the paper), and the
// latency relaxation bound LB(N) that refutes windows below it.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/device.hpp"
#include "graph/task_graph.hpp"
#include "milp/types.hpp"

namespace sparcs::core {

/// MinAreaPartitions(): lower bound N^l_min on the number of partitions —
/// total area of the minimum-area design point of every task divided by the
/// device capacity, rounded up (at least 1).
int min_area_partitions(const graph::TaskGraph& graph,
                        const arch::Device& device);

/// MaxAreaPartitions(): N^u_min — the partition count needed if every task
/// used its maximum-area design point. Together with the ending partition
/// relaxation gamma this caps the partition-space sweep.
int max_area_partitions(const graph::TaskGraph& graph,
                        const arch::Device& device);

/// MaxLatency(N): all tasks serialized at their slowest design points, plus
/// the reconfiguration overhead of N partitions (upper bound, eq. in §3.1).
double max_latency(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions);

/// MinLatency(N): the critical path using each task's fastest design point,
/// plus the reconfiguration overhead of N partitions (lower bound).
double min_latency(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions);

/// How latency_relaxation_bound reached LB(N). The enumerators are ordered
/// by the strength of the bound.
enum class LatencyBoundSource : std::uint8_t {
  /// MinLatency(N): the relaxation was skipped as too large, or its LP did
  /// not rise above MinLatency(N).
  kMinLatency,
  kLp,    ///< the relaxation's LP: its MILP was not run, or did not close
  kMilp,  ///< the relaxation's MILP optimum
};

/// LB(N) and how it was reached.
struct LatencyBound {
  double ns = 0.0;
  LatencyBoundSource source = LatencyBoundSource::kMinLatency;
  /// kMilp only: the optimum's partition levels, each level l repeated c_l
  /// times, ascending. level_fill (core/baselines) packs a design to them.
  std::vector<double> levels;
};

/// LB(N): a lower bound on the latency of every design with at most N
/// partitions, max(MinLatency(N), optimum of the level-packing relaxation).
/// The relaxation gives each used partition a level, the largest D(m) of its
/// tasks, charges it level + C_T, and packs the tasks' cheapest areas at
/// their level into c_l * R_max per level l, ignoring precedence and memory
/// (DESIGN.md §10, "Latency relaxation LB(N)"):
///   min sum_l c_l (l + C_T)  s.t.  sum_k a_k(l) x_kl <= c_l R_max per level,
///   sum_l x_kl = |class k| per class of tasks with identical design points,
///   MinAreaPartitions <= sum_l c_l <= N,  c_l integer,  x_kl >= 0 continuous.
/// Its LP always runs. When the LP beats MinLatency(N) and `solve_milp` is
/// set, the MILP runs under `solver`'s limits at one thread, and the LP value
/// stands in when it does not close. Above milp::kLpBoundingMaxVars
/// variables the relaxation is skipped and LB(N) = MinLatency(N).
LatencyBound latency_relaxation_bound(const graph::TaskGraph& graph,
                                      const arch::Device& device,
                                      int num_partitions,
                                      const milp::SolverParams& solver = {},
                                      bool solve_milp = true);

/// The exact-checkable form of "no design with at most N partitions has
/// latency <= target": the relaxation above plus the row
/// sum_l c_l (l + C_T) <= target, solved for feasibility with
/// CertifyMode::kFull under `solver`'s limits at one thread. A kInfeasible
/// verdict that is kCertified proves target < LB(N).
milp::MilpSolution certify_latency_bound(const graph::TaskGraph& graph,
                                         const arch::Device& device,
                                         int num_partitions, double target,
                                         const milp::SolverParams& solver = {});

}  // namespace sparcs::core
