// Algorithm Reduce_Latency (Figure 1): binary subdivision on the latency
// window for a fixed partition bound N. Each probe re-forms the ILP with a
// tighter upper bound and asks the solver for any feasible solution; a
// feasible probe moves the upper bound down to the achieved latency, an
// infeasible probe moves the lower bound up to the probed midpoint, until
// the window (or the gap to the incumbent) is below the latency tolerance
// delta. A probe is settled one of three ways: refuted by LB(N) when its
// target lies below the bound; answered by a warm-start design that fits the
// target and costs LB(N) (the stage's optimum); or searched. A stage builds
// one IlpFormulation and one milp::Solver session, at its first searched
// probe, or at its first answered one under --certify, whose design the
// exact checker verifies against the model; every searched probe moves the
// window on that model (IlpFormulation::set_window) and re-solves the
// session.
#pragma once

#include <functional>
#include <optional>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "core/search_budget.hpp"
#include "core/solution.hpp"
#include "core/trace.hpp"
#include "graph/task_graph.hpp"
#include "milp/types.hpp"

namespace sparcs::core {

/// Window state of a refinement between two probes: what a checkpoint saves
/// (ReduceLatencyParams::on_progress) and what a resume re-enters
/// (ReduceLatencyParams::resume). On resume the refinement skips the initial
/// full-window probe and re-enters the subdivision loop exactly where the
/// interrupted run left it: same window, same incumbent, and iteration
/// numbering continuing from the saved count (so the resumed trace and solve
/// totals line up with an uninterrupted run's).
struct BisectionWindow {
  double d_max = 0.0;
  double d_min = 0.0;
  int iteration = 0;  ///< probes already recorded
  PartitionedDesign incumbent;
};

struct ReduceLatencyParams {
  /// Shared tolerance/limit/formulation block (delta, solver, formulation).
  SearchBudget budget;
  /// LB(N) (core/bounds latency_relaxation_bound): a probe whose target lies
  /// below it is refuted without a search, a warm start that costs it
  /// answers a probe without one, and its levels seed the warm-start
  /// portfolio through level_fill. 0 ns = no bound.
  LatencyBound latency_bound;
  /// Optional warm start for the first probe (e.g. the best design from a
  /// smaller partition bound); a greedy first-fit placement is used when
  /// absent or unusable within the window.
  std::optional<PartitionedDesign> warm_start;
  /// Re-enter an interrupted refinement instead of starting the window from
  /// scratch (the caller's d_max/d_min arguments are superseded).
  std::optional<BisectionWindow> resume;
  /// Observed after every probe that left an incumbent in hand, with the
  /// current window state — everything a checkpoint needs to re-enter here.
  /// Runs on the refinement's own thread; keep it cheap and exception-free.
  std::function<void(BisectionWindow window)> on_progress;
};

struct ReduceLatencyResult {
  /// Best design found, or nullopt when the partition bound is infeasible
  /// (the paper's "Da = 0" case).
  std::optional<PartitionedDesign> best;
  double achieved_latency = 0.0;  ///< Da; 0 when infeasible
  int ilp_solves = 0;
  milp::SolverStats solver_stats;  ///< aggregate over all probes
  /// True when the refinement stopped early (deadline/cancellation) instead
  /// of converging the window to delta: `best` is an anytime result.
  bool cut_short = false;
  /// True when a probe's verdict stayed uncertified after the distrust
  /// retry: the subdivision stopped on a conservative window (no bound was
  /// moved on the distrusted verdict) and `best` is the last certified
  /// incumbent. See DESIGN.md, "Certified verdicts".
  bool degraded = false;
};

/// Runs the latency refinement for `num_partitions`, appending one
/// IterationRecord per solve to `trace`.
ReduceLatencyResult reduce_latency(const graph::TaskGraph& graph,
                                   const arch::Device& device,
                                   int num_partitions, double d_max,
                                   double d_min,
                                   const ReduceLatencyParams& params,
                                   Trace& trace);

}  // namespace sparcs::core
