// Public façade of the temporal partitioning system: the iterative
// partitioner (the paper's contribution) and the optimal-ILP reference mode
// used for the AR-filter comparison and the "optimality does not scale"
// experiment.
#pragma once

#include <optional>

#include <functional>
#include <string>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "core/checkpoint.hpp"
#include "core/refine_partitions.hpp"
#include "core/solution.hpp"
#include "core/trace.hpp"
#include "graph/task_graph.hpp"
#include "milp/types.hpp"

namespace sparcs::core {

struct PartitionerOptions {
  int alpha = 0;  ///< starting partition relaxation
  int gamma = 1;  ///< ending partition relaxation
  /// Shared tolerance/limit/formulation block. budget.delta is the absolute
  /// latency tolerance (ns); when <= 0, delta is 2% of MaxLatency(N_start)
  /// (the paper's "small percentage of MaxLatency" guidance).
  SearchBudget budget;
  /// Hard cap on N in case a pathological instance never becomes feasible.
  int max_partitions = 64;

  /// Crash-safe checkpoint/resume of the sweep (core/checkpoint).
  struct CheckpointOptions {
    /// Snapshot file; empty disables checkpointing entirely.
    std::string path;
    /// Throttle for mid-refinement snapshots (stage completions always
    /// write). <= 0 writes on every probe.
    double min_interval_sec = 5.0;
    /// Load `path` before solving and continue from it. A missing file
    /// falls back to a fresh run; a damaged or mismatched one is rejected
    /// (diagnostic in PartitionerReport::resume_error) and the run starts
    /// fresh rather than trusting it.
    bool resume = false;
    /// Test hook forwarded to the CheckpointWriter: observes every snapshot
    /// that landed on disk.
    std::function<void(const SweepCheckpoint&)> observer;
  };
  CheckpointOptions checkpoint;
};

/// Combined temporal partitioning and design space exploration.
class TemporalPartitioner {
 public:
  TemporalPartitioner(const graph::TaskGraph& graph,
                      const arch::Device& device,
                      PartitionerOptions options = {});

  /// Runs Refine_Partitions_Bound over Reduce_Latency over the ILP: the one
  /// entry to the sweep, defined in core/refine_partitions.cpp.
  [[nodiscard]] PartitionerReport run() const;

 private:
  const graph::TaskGraph& graph_;
  const arch::Device& device_;
  PartitionerOptions options_;
};

/// The largest partition bound N whose MaxLatency(N) a sweep with these
/// options computes: the phase-1 cap, or the start bound when alpha puts it
/// higher. MaxLatency grows with N, so a finite value there covers the
/// whole sweep.
[[nodiscard]] int max_latency_partitions(const graph::TaskGraph& graph,
                                         const arch::Device& device,
                                         const PartitionerOptions& options);

/// Result of an optimal-ILP reference solve.
struct OptimalResult {
  milp::SolveStatus status = milp::SolveStatus::kLimitReached;
  std::optional<PartitionedDesign> best;
  double latency_ns = 0.0;
  double seconds = 0.0;
  std::int64_t nodes = 0;
  milp::SolverStats solver_stats;  ///< aggregate over the reference solves
};

/// Solves the full model at a fixed N to optimality (minimize
/// sum_p d_p + C_T * eta), subject to the given solver limits, which bound
/// the whole solve. One session races propagation-only rounds against
/// LP-bounded ones under doubling node budgets; each round searches below
/// the best latency found so far, and the first round that exhausts its
/// window proves the optimum (DESIGN §9). The caller's use_lp_bounding,
/// stop_at_first_feasible and num_threads are ignored (the rounds run on
/// one worker, so the result does not depend on thread timing), and the
/// incumbent-improvement step is raised to 1 ns (latencies are integral
/// nanoseconds in every workload here). `nodes` and `solver_stats` sum over
/// the rounds.
OptimalResult solve_optimal(const graph::TaskGraph& graph,
                            const arch::Device& device, int num_partitions,
                            milp::SolverParams solver_params = {},
                            FormulationOptions formulation = {});

/// Optimal reference over the same partition range the iterative procedure
/// explores (N^l_min + alpha .. N^u_min + gamma); returns the best proven
/// design, or the limit status when no N finished.
OptimalResult solve_optimal_over_range(const graph::TaskGraph& graph,
                                       const arch::Device& device,
                                       int alpha = 0, int gamma = 1,
                                       milp::SolverParams solver_params = {},
                                       FormulationOptions formulation = {});

}  // namespace sparcs::core
