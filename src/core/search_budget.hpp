// The slice of search configuration shared by every layer of the paper's
// procedure. PartitionerOptions and ReduceLatencyParams both embed one
// SearchBudget instead of re-declaring the same fields, so a budget
// configured once (CLI, service, benches, tests) flows unchanged from
// TemporalPartitioner::run(), the one entry to the sweep, down to each
// SolveModel() call.
#pragma once

#include <algorithm>

#include "core/deadline.hpp"
#include "core/formulation.hpp"
#include "milp/types.hpp"

namespace sparcs::core {

struct SearchBudget {
  /// Latency tolerance delta (same unit as latencies: ns).
  double delta = 0.0;
  /// Wall-clock deadline for the whole run (inert by default). Every solve's
  /// time limit is clamped to the remaining budget via clamped_solver(), so
  /// an expired deadline unwinds from inside a solve, not just between them.
  Deadline deadline;
  /// Per-SolveModel limits, thread count and cancellation token.
  milp::SolverParams solver;
  FormulationOptions formulation;

  /// True when a cancellation was requested through the solver token; the
  /// sweep layers poll this between probes to unwind promptly.
  [[nodiscard]] bool cancelled() const { return solver.cancel.cancelled(); }

  /// True when the run should stop producing new work: cancelled or past the
  /// deadline.
  [[nodiscard]] bool interrupted() const {
    return cancelled() || deadline.expired();
  }

  /// Solver parameters with time_limit_sec clamped to the deadline's
  /// remaining wall clock (a small floor keeps an almost-expired deadline
  /// from producing a zero-length, status-ambiguous solve).
  [[nodiscard]] milp::SolverParams clamped_solver() const {
    milp::SolverParams out = solver;
    if (deadline.valid()) {
      const double remaining = std::max(0.001, deadline.remaining_sec());
      out.time_limit_sec = std::min(out.time_limit_sec, remaining);
    }
    return out;
  }
};

}  // namespace sparcs::core
