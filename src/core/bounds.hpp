// Partition-count and latency bounds (Section 3.1 of the paper), and the
// latency relaxation bound LB(N) that refutes windows below it.
#pragma once

#include <cstdint>
#include <memory>
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

/// True when MaxAreaPartitions() fits in int, and so MinAreaPartitions()
/// too: both require it. A tiny capacity (Rmax) can push the area quotient
/// past it, so input handling checks this first.
bool area_partitions_fit(const graph::TaskGraph& graph,
                         const arch::Device& device);

/// MaxLatency(N): all tasks serialized at their slowest design points, plus
/// the reconfiguration overhead of N partitions (upper bound, eq. in §3.1).
double max_latency(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions);

/// MinLatency(N): the critical path using each task's fastest design point,
/// plus the reconfiguration overhead of N partitions (lower bound).
double min_latency(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions);

/// How LB(N) was reached. The enumerators are ordered by the strength of
/// the bound.
enum class LatencyBoundSource : std::uint8_t {
  /// MinLatency(N): the relaxation was skipped as too large, or its LP did
  /// not rise above MinLatency(N).
  kMinLatency,
  kLp,    ///< the relaxation's LP: its optimum was not sought, or not reached
  /// The relaxation's exact optimum R(N): the first feasible multiset of the
  /// level walk, or the relaxation's MILP when the walk stopped.
  kMilp,
};

/// LB(N) and how it was reached.
struct LatencyBound {
  double ns = 0.0;
  LatencyBoundSource source = LatencyBoundSource::kMinLatency;
  /// kMilp only: the optimum's partition levels, each level l repeated c_l
  /// times, ascending. level_fill (core/baselines) packs a design to them.
  std::vector<double> levels;
};

/// Slack around LB(N) for the floating-point arithmetic that computed it,
/// 1e-6 * max(1, LB(N)): it keeps a bound rounded up from refuting a target
/// that touches the true bound, and a bound rounded down from passing over a
/// design at the true bound.
[[nodiscard]] double bound_slack(double bound);

/// The most multisets one LatencyBoundWalk pops over its life. A stage that
/// needs more falls back to the relaxation's MILP.
inline constexpr std::int64_t kLevelWalkMaxPops = 50000;

/// LB(N) for every stage of one sweep, from one walk over the multisets of
/// levels in nondecreasing cost (DESIGN.md §10, "Latency relaxation LB(N)").
/// A multiset of s levels answers every N >= s, so bound(N) continues the
/// walk where the previous call stopped. Owned by one run; not shared.
class LatencyBoundWalk {
 public:
  LatencyBoundWalk(const graph::TaskGraph& graph, const arch::Device& device);
  ~LatencyBoundWalk();
  LatencyBoundWalk(const LatencyBoundWalk&) = delete;
  LatencyBoundWalk& operator=(const LatencyBoundWalk&) = delete;

  /// LB(N), as latency_relaxation_bound below defines it. R(N) comes from
  /// the walk; past kLevelWalkMaxPops pops, or when `solver`'s time limit or
  /// cancel token stops the walk, from the relaxation's MILP.
  LatencyBound bound(int num_partitions, const milp::SolverParams& solver = {},
                     bool solve_milp = true);

  /// Multisets popped so far.
  [[nodiscard]] std::int64_t popped() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
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
/// set, R(N) is sought exactly (LatencyBoundWalk), and the LP value stands
/// in when that does not finish. Above milp::kLpBoundingMaxVars variables
/// the relaxation is skipped and LB(N) = MinLatency(N). One-shot: a sweep
/// asks one LatencyBoundWalk for all its stages.
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
