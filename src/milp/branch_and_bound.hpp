// Branch & bound over propagated domains, single- or multi-threaded.
//
// Search skeleton: propagate to a fixpoint; if a conflict arises backtrack;
// if integral variables remain, branch on the highest-priority one (value
// enumeration for small domains, interval bisection for large ones, the
// model's branch hint tried first); once every integral variable is fixed,
// the remaining continuous variables are completed exactly with a small LP.
// Optimality is enforced through a dynamic objective-cutoff row, so the same
// machinery serves both the paper's constraint-satisfaction mode
// (stop_at_first_feasible) and the optimal reference runs.
//
// Every solve runs a worker pool fed from a rank-ordered subproblem pool
// (ranks are branch-index paths, so rank order == depth-first order).
// SolverParams::num_threads sets the worker count; worker 0 runs on the
// calling thread, so a one-thread solve starts no thread and explores the
// tree in plain DFS order. With more workers, each donates untried sibling
// branches whenever the pool runs low, the incumbent is shared through an
// atomic objective, and first-feasible candidates are accepted in rank order
// — which makes the returned solution identical to the one-worker one.
#pragma once

#include "milp/compiled.hpp"
#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::telemetry {
struct LiveSolve;
}  // namespace sparcs::telemetry

namespace sparcs::milp {

/// The number of workers a solve runs: SolverParams::num_threads (0 = one
/// per hardware thread), capped at `hardware_threads`, and 1 for a model of
/// under 48 variables. An unknown hardware count (0) counts as 1.
[[nodiscard]] int worker_count(int num_threads, int num_vars,
                               unsigned hardware_threads);

/// Solves `model` with propagation-based branch & bound over `compiled`, its
/// compiled form with the objective-cutoff row (CompiledModel(model,
/// model.has_objective()), refreshed since the model last changed). Every
/// worker reads `compiled` and nothing writes it. `live` is the live
/// telemetry slot of the enclosing solve (owned by the Solver session's
/// telemetry::SolveScope); null when the run is not sampled.
MilpSolution solve_branch_and_bound(const Model& model,
                                    const CompiledModel& compiled,
                                    const SolverParams& params,
                                    telemetry::LiveSolve* live = nullptr);

/// The same for a one-off solve: compiles `model` first.
MilpSolution solve_branch_and_bound(const Model& model,
                                    const SolverParams& params,
                                    telemetry::LiveSolve* live = nullptr);

}  // namespace sparcs::milp
