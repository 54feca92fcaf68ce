// Solver session: the single entry point the rest of the system uses,
// mirroring the narrow slice of a commercial ILP solver's API the paper
// depends on (CPLEX-style "build model, create solver, solve, re-solve").
//
// A Solver owns a reference to the model plus a mutable copy of the solve
// parameters, so one session can be re-solved several times with tightened
// limits between calls. Reduce_Latency keeps one session per partition bound
// N: between probes it moves the latency window on the model
// (IlpFormulation::set_window), re-hints it and installs the probe's
// parameters through params(). An in-flight solve() is cancelled from
// another thread through the SolverParams::cancel token.
//
// The session caches the model's compiled form (CSR rows, reader lists,
// branch order), which every worker of a solve shares read-only. Before
// each solve() it refreshes the cached bounds, right-hand sides and branch
// hints from the model, in time linear in its variables and rows; it
// recompiles when the model's structure revision moved, i.e. after an
// add_var/add_binary/add_integer/add_continuous, add_constraint,
// add_path_family, set_objective or set_branch_priority. Either way the
// solve sees the model exactly as a fresh Solver would.
#pragma once

#include <optional>

#include "milp/compiled.hpp"
#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// One solving session over a fixed model.
///
/// Thread-safety contract: solve() itself may spin up worker threads
/// (SolverParams::num_threads), but the session object is externally
/// synchronized — at most one solve() may be in flight at a time, and
/// params() must not be mutated while one is. Cancelling through the
/// SolverParams::cancel token is safe from any thread at any time.
class Solver {
 public:
  /// Binds the session to `model`, which must outlive the Solver and stay
  /// unmodified while any solve() is in flight; between solves it may
  /// change in any way.
  explicit Solver(const Model& model, SolverParams params = {});

  /// Runs the search with the current parameters. Reusable: later calls see
  /// any parameter changes made through params() in between.
  MilpSolution solve();

  /// Mutable parameters, applied to the next solve() call. Typical re-solve
  /// pattern: tighten time_limit_sec / node_limit, flip
  /// stop_at_first_feasible, then call solve() again.
  [[nodiscard]] SolverParams& params() { return params_; }
  [[nodiscard]] const SolverParams& params() const { return params_; }

  [[nodiscard]] const Model& model() const { return model_; }

 private:
  /// The compiled model, brought up to date with model_ (see above).
  const CompiledModel& compile();

  const Model& model_;
  SolverParams params_;
  std::optional<CompiledModel> compiled_;
};

/// Parameter preset for constraint-satisfaction queries (the paper's
/// SolveModel()): stop at the first feasible assignment.
[[nodiscard]] SolverParams first_feasible_params(SolverParams base = {});

/// Parameter preset for optimality queries, with LP bounding enabled for
/// models small enough to afford it.
[[nodiscard]] SolverParams optimality_params(SolverParams base = {});

}  // namespace sparcs::milp
