// Solver session: the single entry point the rest of the system uses,
// mirroring the narrow slice of a commercial ILP solver's API the paper
// depends on (CPLEX-style "build model, create solver, solve, re-solve").
//
// A Solver owns a reference to the model plus a mutable copy of the solve
// parameters, so one session can be re-solved several times with tightened
// limits or bounds between calls (the paper's Reduce_Latency loop re-probes
// the same formulation with shrinking latency windows). cancel() aborts an
// in-flight solve() from another thread; set_incumbent_callback() observes
// every accepted incumbent as it is found.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// Owned copy of the best incumbent a solve has accepted so far: the carried
/// upper bound plus the full assignment (decodable into a design and reusable
/// as a warm-start hint). Unlike IncumbentEvent, the storage is the caller's.
struct IncumbentSnapshot {
  double objective = 0.0;
  std::vector<double> values;
  std::int64_t nodes_explored = 0;
};

/// One solving session over a fixed model.
///
/// Thread-safety contract: solve() itself may spin up worker threads
/// (SolverParams::num_threads), but the session object is externally
/// synchronized — at most one solve() may be in flight at a time, and
/// params() must not be mutated while one is. cancel() is the exception:
/// it is safe to call from any thread at any time.
class Solver {
 public:
  /// Binds the session to `model`, which must outlive the Solver and stay
  /// unmodified while any solve() is in flight.
  explicit Solver(const Model& model, SolverParams params = {});

  /// Runs the search with the current parameters. Reusable: later calls see
  /// any parameter changes made through params() in between.
  MilpSolution solve();

  /// Requests cooperative cancellation of the in-flight solve (it returns
  /// kLimitReached, or kFeasible when an incumbent is already in hand).
  /// Sticky: cancels every later solve() too, until reset_cancel().
  void cancel();

  /// Re-arms a session whose cancel() was used, allowing further solves.
  /// The session keeps one cancellation flag for its whole lifetime (the
  /// flag is cleared in place), so a cancel() racing a reset from another
  /// thread is never dropped: it either cancels the finishing solve or the
  /// next one, never neither.
  void reset_cancel();

  [[nodiscard]] bool cancel_requested() const { return cancel_.cancelled(); }

  /// Observes every accepted incumbent. In multi-threaded solves the
  /// callback runs on a worker thread under the incumbent lock: keep it
  /// cheap, and only call back into the solver via cancel().
  void set_incumbent_callback(IncumbentCallback callback);

  /// The best incumbent of the in-flight (or most recent) solve(), copied
  /// when the search accepted it. Safe from any thread at any time — this is
  /// how a checkpointer exports the carried upper bound and its assignment
  /// out of a long solve without waiting for it to return. nullopt until the
  /// current solve accepts a first incumbent (cleared when solve() starts).
  [[nodiscard]] std::optional<IncumbentSnapshot> incumbent_snapshot() const;

  /// Mutable parameters, applied to the next solve() call. Typical re-solve
  /// pattern: tighten time_limit_sec / node_limit, flip
  /// stop_at_first_feasible, then call solve() again.
  [[nodiscard]] SolverParams& params() { return params_; }
  [[nodiscard]] const SolverParams& params() const { return params_; }

  [[nodiscard]] const Model& model() const { return model_; }

 private:
  const Model& model_;
  SolverParams params_;
  CancelToken cancel_;
  IncumbentCallback on_incumbent_;
  /// Guards snapshot_ against concurrent incumbent_snapshot() readers while
  /// solver workers publish new incumbents.
  mutable std::mutex snapshot_mu_;
  std::optional<IncumbentSnapshot> snapshot_;
};

/// Parameter preset for constraint-satisfaction queries (the paper's
/// SolveModel()): stop at the first feasible assignment.
[[nodiscard]] SolverParams first_feasible_params(SolverParams base = {});

/// Parameter preset for optimality queries, with LP bounding enabled for
/// models small enough to afford it.
[[nodiscard]] SolverParams optimality_params(SolverParams base = {});

}  // namespace sparcs::milp
