// Algorithm Refine_Partitions_Bound (Figure 2): the partition-space sweep,
// run by TemporalPartitioner::run() (core/partitioner.hpp) and defined next
// to the records below in core/refine_partitions.cpp.
//
// Starting from N = N^l_min + alpha, the sweep calls Reduce_Latency per
// partition bound. Infeasible bounds increase N until a first solution
// exists or N passes the largest of the task count, N^u_min + gamma and the
// start N (and max_partitions caps them all); afterwards N keeps relaxing (up to N^u_min + gamma or the time
// budget), each time searching only below the best achieved latency Da, and
// stops early as soon as MinLatency(N) >= Da — for large reconfiguration
// overheads that fires immediately after the first solution.
//
// The sweep is one serial loop over N that carries Da forward; the phase is
// derived from whether a design exists yet. Each stage computes LB(N) once,
// before its Reduce_Latency call, from the one LatencyBoundWalk the run owns,
// and the trace rows follow in (N, iteration) order because every stage
// appends its own rows as it runs.
//
// The loop's state is one SweepCheckpoint (core/checkpoint): restored on
// resume, committed only when a stage completes, and written out as it
// stands. A running stage's BisectionWindow lives in that state and is
// passed by reference to Reduce_Latency. The report is built once, at the
// end: the committed state, this run's trace and solver stats, the stage the
// budget cut short (if any) and the bounds it never started.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/reduce_latency.hpp"
#include "core/solution.hpp"
#include "core/trace.hpp"
#include "graph/task_graph.hpp"

namespace sparcs::core {

/// Per-partition-bound account of the sweep, the basis of the anytime
/// degradation report: on budget expiry the caller can see exactly which N
/// values were probed, which were cut short, and which never ran.
struct StageAccount {
  int num_partitions = 0;
  StageStatus status = StageStatus::kProbed;
  int solves = 0;        ///< ILP solves spent on this bound
  /// Wall time of this bound's LB(N) and of its trace rows' probes.
  double seconds = 0.0;
};

/// The part of a sweep's outcome that a checkpoint stores and a resume
/// restores (core/checkpoint). SweepCheckpoint and PartitionerReport both
/// derive from it: the report starts as one assignment from the sweep's
/// committed state.
struct SweepOutcome {
  std::optional<PartitionedDesign> best;
  double achieved_latency = 0.0;  ///< Da of the returned design; 0 if none
  int best_num_partitions = 0;    ///< N at which `best` was found
  int ilp_solves = 0;
  double seconds = 0.0;  ///< sweep wall time, summed over resumed runs
  /// True when the sweep ended because MinLatency(N) >= Da.
  bool stopped_by_lower_bound = false;
  /// One entry per partition bound the nominal sweep range covers, in N
  /// order: probed, cut short, or skipped (see StageStatus).
  std::vector<StageAccount> stages;
};

/// Everything a run learned, including the paper-table trace. Every field is
/// filled by TemporalPartitioner::run().
struct PartitionerReport : SweepOutcome {
  bool feasible = false;  ///< `best` holds a design
  Trace trace;            ///< all SolveModel() calls, in order
  milp::SolverStats solver_stats;  ///< aggregate over the whole sweep
  /// True when the sweep stopped on a time budget / deadline / cancellation
  /// before natural termination, or a stage stopped on an uncertified
  /// verdict: `best` (when present) is an anytime incumbent, not the
  /// converged answer.
  bool degraded = false;
  /// Derived inputs, for reporting.
  int n_min_lower = 0;
  int n_min_upper = 0;
  double delta_used = 0.0;
  /// True when the run continued from a loaded checkpoint: the trace covers
  /// only the resumed portion, while counters span the whole logical run.
  bool resumed = false;
  /// Why a requested --resume did not restore (empty when it did, or when no
  /// resume was requested). The run proceeded fresh.
  std::string resume_error;

  /// True when a solver verdict stayed uncertified after the distrust retry.
  [[nodiscard]] bool uncertified() const {
    return solver_stats.uncertified_verdicts > 0;
  }

  /// Renders the report as a JSON object (shared ReportWriter schema); the
  /// CLI's --report-json output.
  [[nodiscard]] std::string to_json() const;
};

/// Exit code of a finished run, shared by the CLI and the solve service:
/// 7 when a verdict stayed uncertified, else 3 when degraded, else 2 when
/// no design was found, else 0.
[[nodiscard]] int run_exit_code(const PartitionerReport& report);

}  // namespace sparcs::core
