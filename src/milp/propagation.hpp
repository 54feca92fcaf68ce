// Trail-based variable domains and activity-based bound propagation.
//
// The propagation engine implements the classic MIP "bound strengthening"
// rule: for a row  sum_j a_j x_j (<=|>=|=) b  it computes the row's minimum
// and maximum activity from the current bounds, detects conflicts, and
// tightens every variable's bound implied by the other terms. Run to a
// fixpoint it subsumes unit propagation on the 0/1 structure of the temporal
// partitioning model (uniqueness rows fix siblings to 0, temporal-order rows
// prune partitions of successors, area/latency rows prune design points).
//
// The rows a PathFamily owns are never propagated one by one: the family is
// one unit that a forward and a backward longest-path pass propagate to the
// bounds its rows would give — lb(target) is the longest path, and each
// term's bound comes from the longest path through its node. One family
// visit counts as one visit in PropagationStats::constraints_processed.
//
// Propagation is lazy in two exact ways. A tightening queues only the units
// that read the bound it moved (CompiledModel::lb_readers / ub_readers),
// so every unit left unqueued would derive nothing. And a visit skips each
// term whose span |a|*(ub - lb) fits in the slack its activity leaves, since
// that term could not move, returning before the per-term loop when even
// the widest one fits; a family skips each node whose widest term fits in
// ub(target) minus the longest path through it. Every derivation and
// conflict is the one the full rule gives (DESIGN §10, "What propagation
// queues and skips").
#pragma once

#include <cstdint>
#include <vector>

#include "milp/certificate.hpp"
#include "milp/compiled.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// Current bounds of every variable plus an undo trail for backtracking.
class Domains {
 public:
  explicit Domains(const CompiledModel& model);

  [[nodiscard]] double lb(VarId v) const { return lb_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] double ub(VarId v) const { return ub_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] bool is_fixed(VarId v) const {
    return lb_[static_cast<std::size_t>(v)] >= ub_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] int num_vars() const { return static_cast<int>(lb_.size()); }

  /// Raises the lower bound (no-op when not an improvement). Returns true
  /// when the bound actually changed. Records the old value on the trail.
  bool set_lb(VarId v, double value);
  /// Lowers the upper bound, symmetric to set_lb.
  bool set_ub(VarId v, double value);

  /// Trail position to roll back to later.
  [[nodiscard]] std::size_t checkpoint() const { return trail_.size(); }
  /// Restores all bounds recorded after `mark`.
  void rollback(std::size_t mark);

  /// Replaces every bound and clears the trail. Used by branch & bound
  /// workers to seat a subproblem snapshot taken on another thread.
  void reset_to(const std::vector<double>& lb, const std::vector<double>& ub);

 private:
  struct TrailEntry {
    VarId var;
    bool is_lb;
    double old_value;
  };
  std::vector<double> lb_, ub_;
  std::vector<TrailEntry> trail_;
};

/// Statistics accumulated over propagate() calls.
struct PropagationStats {
  std::int64_t constraints_processed = 0;  ///< unit visits (rows, families)
  std::int64_t bounds_tightened = 0;
  std::int64_t vars_fixed = 0;  ///< tightenings that emptied a var's slack
  std::int64_t conflicts = 0;
};

/// Activity-based bound propagation over a compiled model.
class Propagator {
 public:
  Propagator(const CompiledModel& model, double feasibility_tol,
             int max_rounds);

  /// Propagates to a fixpoint starting from the units that read the moved
  /// bounds of `seed_vars` (lb when `lb_moved`, ub when `ub_moved`), or from
  /// all units when it is empty. Returns false on conflict (some constraint
  /// proved unsatisfiable or a domain emptied).
  bool propagate(Domains& domains, const std::vector<VarId>& seed_vars,
                 PropagationStats& stats, bool lb_moved = true,
                 bool ub_moved = true);

  /// Installs a derivation log (nullptr to detach). While attached, every
  /// bound tightening appends a Derivation and a conflict records its row or
  /// emptied variable, giving the certificate checker a replayable trace. A
  /// family's tightening or conflict cites the row of the path behind it.
  /// The caller clears the log between propagate() calls.
  void set_log(DerivationLog* log) { log_ = log; }

  /// Tightens the model's objective-cutoff row to `obj <= value` for this
  /// propagator only (the compiled model keeps it inactive, at +inf, so the
  /// workers of one solve can share it).
  void set_cutoff(double value) { cutoff_rhs_ = value; }
  /// Right-hand side of row c as this propagator reads it: the cutoff set
  /// above for the cutoff row, the compiled one otherwise.
  [[nodiscard]] double row_rhs(int c) const {
    return c == cutoff_row_ ? cutoff_rhs_ : model_.constraint(c).rhs;
  }

 private:
  bool process_constraint(int c, Domains& domains, PropagationStats& stats);
  bool process_family(int f, Domains& domains, PropagationStats& stats);
  /// Fills the longest-path scratch below for `fam` under `domains`.
  void longest_paths(const PathFamily& fam, const Domains& domains);
  /// Row of family f's longest path through node u, as longest_paths() last
  /// found it for f.
  ConstraintId path_row(int f, std::int32_t u) const;
  /// Records a tightening of v (derived from `row`); false when it emptied
  /// v's domain.
  bool tightened(ConstraintId row, VarId v, bool is_lb, Domains& domains,
                 PropagationStats& stats);
  /// Queues the units that read the changed bounds of v.
  void enqueue_var(VarId v, bool lb_changed, bool ub_changed);
  /// Queues each of `units` that is not queued already.
  void enqueue(const std::vector<std::int32_t>& units);
  void enqueue_all();

  const CompiledModel& model_;
  double tol_;
  int max_rounds_;
  DerivationLog* log_ = nullptr;
  int cutoff_row_;                 ///< CompiledModel::cutoff_row()
  double cutoff_rhs_ = kInfinity;  ///< see set_cutoff()
  /// Units to visit. Between calls it holds only what a conflict or the
  /// round budget left queued, whose in_queue_ flags the next call clears.
  std::vector<std::int32_t> queue_;
  std::vector<std::uint8_t> in_queue_;  ///< 1 while the unit is in queue_

  // Longest-path scratch, indexed by family node: node weight, widest term
  // a*(ub - lb), longest path into the node (excluding it) and its argmax
  // predecessor, longest path from the node (including it) and its argmax
  // successor; -1 links end a path.
  std::vector<double> weight_, span_, into_, from_;
  std::vector<std::int32_t> prev_, next_;
};

}  // namespace sparcs::milp
