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
// session. The stage's state is one BisectionWindow, passed by reference:
// the caller owns it, so a checkpoint can store it and a resume can hand it
// back. A search that a deadline or cancellation cuts short settles nothing:
// it leaves no trace row and does not move the window, so a resume re-enters
// that probe.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "core/search_budget.hpp"
#include "core/solution.hpp"
#include "core/trace.hpp"
#include "graph/task_graph.hpp"
#include "milp/types.hpp"

namespace sparcs::core {

/// The whole state of one Reduce_Latency(N) stage between two probes: the
/// window [d_min, d_max], the probes recorded so far, and the stage's
/// incumbent once a probe found one. reduce_latency() moves it in place; a
/// checkpoint stores it as it stands after a probe, and a resume passes the
/// restored window back in.
struct BisectionWindow {
  double d_max = 0.0;
  double d_min = 0.0;
  int iteration = 0;  ///< probes recorded; the stage's ILP solve count
  /// The stage's best design (Da = its latency), or nullopt before the first
  /// feasible probe or when the bound is infeasible (the paper's "Da = 0").
  std::optional<PartitionedDesign> incumbent;
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
  /// Observed after every probe that left an incumbent in hand, with the
  /// window as it stands: everything a checkpoint needs to re-enter here.
  /// Runs on the refinement's own thread; keep it cheap and exception-free.
  std::function<void(const BisectionWindow& window)> on_progress;
};

/// How a stage ended; its design and solve count are in the window, its
/// trace rows in the caller's trace.
enum class StageStatus : std::uint8_t {
  kProbed,    ///< Reduce_Latency ran to natural termination
  /// Reduce_Latency started but was interrupted (deadline or cancellation)
  /// mid-refinement: the incumbent, if any, is an anytime result.
  kCutShort,
  kSkipped,   ///< never started: the budget/deadline expired first
  /// An uncertified solver verdict stopped the stage's refinement on a
  /// conservative window (no bound was moved on the distrusted verdict); its
  /// incumbent (if any) is the last certified one, but the window did not
  /// converge to delta. See DESIGN.md, "Certified verdicts".
  kDegraded,
};

[[nodiscard]] std::string to_string(StageStatus status);

/// Runs the latency refinement for `num_partitions` on `window`, appending
/// one IterationRecord per settled probe to `trace` (the stage's solver
/// stats are the merge of those rows' stats). A window without an incumbent
/// is probed whole first; a window restored from a checkpoint already has
/// one and goes straight to the subdivision.
StageStatus reduce_latency(const graph::TaskGraph& graph,
                           const arch::Device& device, int num_partitions,
                           BisectionWindow& window,
                           const ReduceLatencyParams& params, Trace& trace);

}  // namespace sparcs::core
