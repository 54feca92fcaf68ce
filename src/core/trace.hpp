// Iteration trace records, mirroring the columns of the paper's result
// tables (N, I, Dmax, Dmin, Da / "Inf.").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "milp/types.hpp"

namespace sparcs::core {

/// Outcome of one SolveModel() call inside the refinement loops.
enum class IterationOutcome : std::uint8_t {
  kFeasible,
  kInfeasible,
  kLimit,  ///< solver hit its node/time budget without an answer
  /// The verdict failed exact certification even after the distrust retry:
  /// the refinement treats the probe as inconclusive (no window movement).
  kUncertified,
};

/// Label of an outcome, shared by the report JSON and the trace CSV.
[[nodiscard]] constexpr const char* to_string(IterationOutcome outcome) {
  switch (outcome) {
    case IterationOutcome::kFeasible:
      return "feasible";
    case IterationOutcome::kInfeasible:
      return "infeasible";
    case IterationOutcome::kLimit:
      return "limit";
    case IterationOutcome::kUncertified:
      return "uncertified";
  }
  return "unknown";
}

/// What established a probe's verdict.
enum class VerdictSource : std::uint8_t {
  kSearch,  ///< the branch & bound solve of the probe's window
  /// The window lies below LB(N) (core/bounds): no design with at most N
  /// partitions reaches its target, so no search ran.
  kLatencyBound,
  /// A warm-start design fits the window and meets LB(N): it is the
  /// stage's optimum, so no search ran.
  kWarmStart,
};

/// Label of a verdict source, shared by the report JSON and the trace CSV.
[[nodiscard]] constexpr const char* to_string(VerdictSource source) {
  switch (source) {
    case VerdictSource::kSearch:
      return "search";
    case VerdictSource::kLatencyBound:
      return "latency bound";
    case VerdictSource::kWarmStart:
      return "warm start";
  }
  return "unknown";
}

/// One row of the paper-style trace tables.
struct IterationRecord {
  int num_partitions = 0;       ///< N
  int iteration = 0;            ///< I (1-based within this N)
  double d_max_bound = 0.0;     ///< latency upper bound used by the solve
  double d_min_bound = 0.0;     ///< latency lower bound used by the solve
  IterationOutcome outcome = IterationOutcome::kInfeasible;
  VerdictSource verdict_source = VerdictSource::kSearch;
  double achieved_latency = 0.0;  ///< Da (recomputed), valid when feasible
  double seconds = 0.0;           ///< wall time of the solve
  std::int64_t nodes = 0;         ///< branch & bound nodes explored
  milp::SolverStats stats;        ///< full per-layer stats of the solve
  /// Exact-certificate status of the probe's verdict (kNotRequested unless
  /// the solve ran with --certify).
  milp::CertifyStatus certified = milp::CertifyStatus::kNotRequested;
};

using Trace = std::vector<IterationRecord>;

}  // namespace sparcs::core
