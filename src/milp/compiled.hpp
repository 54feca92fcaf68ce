// Compiled (solver-internal) form of a Model: CSR constraint storage,
// the propagation units that read each variable bound, and an optional
// objective-cutoff row through which branch & bound turns incumbent
// objectives into a constraint (each worker's Propagator holds its rhs).
//
// The structure (rows, coefficients, families, reader lists, objective,
// branch order) is fixed at compile time; refresh() re-reads the values a
// model may change without bumping its structure revision: variable bounds,
// branch hints and right-hand sides.
//
// Propagation visits units: every row that no PathFamily owns, plus one
// unit per family in place of all the rows it owns. Unit ids below
// num_constraints() are rows; num_constraints() + f is family f.
//
// A unit reads only some bounds of its variables. A <= row's minimum
// activity, the only thing its propagation derives from, reads lb of its
// positive terms and ub of its negative ones; a >= row reads the mirror
// image and an = row both. A family reads what its rows read: lb of its
// terms and ub of its target. A unit is listed under exactly the bounds it
// reads, so a bound change queues only units that can derive from it.
#pragma once

#include <cstdint>
#include <vector>

#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// One compiled constraint; its terms live in the shared CSR arrays.
struct CompiledConstraint {
  std::int32_t begin = 0;  ///< first term index
  std::int32_t end = 0;    ///< one past the last term index
  Sense sense = Sense::kLessEqual;
  std::int32_t family = -1;  ///< PathFamily owning the row, or -1
  double rhs = 0.0;
};

/// Compiled model, read-only during a solve.
class CompiledModel {
 public:
  /// Compiles `model`, which must outlive the compiled form (its path
  /// families are read in place, not copied). When `with_objective_cutoff`
  /// is true and the model has an objective, an extra row `obj <= +inf` is
  /// appended whose rhs the search tightens as incumbents are found (the
  /// objective is negated first for maximization so the compiled problem
  /// always minimizes).
  explicit CompiledModel(const Model& model, bool with_objective_cutoff = false);

  /// Re-reads the bounds, branch hints and right-hand sides of `model`, the
  /// model this was compiled from, which must still be at revision(). After
  /// it this equals a fresh compile of `model`.
  void refresh(const Model& model);
  /// Model::structure_revision() of the model this was compiled from.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  [[nodiscard]] int num_vars() const { return static_cast<int>(types_.size()); }
  [[nodiscard]] int num_constraints() const {
    return static_cast<int>(constraints_.size());
  }

  [[nodiscard]] const CompiledConstraint& constraint(int c) const {
    return constraints_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const double* coefs(const CompiledConstraint& c) const {
    return coef_.data() + c.begin;
  }
  [[nodiscard]] const VarId* vars(const CompiledConstraint& c) const {
    return var_.data() + c.begin;
  }
  [[nodiscard]] int size(const CompiledConstraint& c) const {
    return c.end - c.begin;
  }

  [[nodiscard]] bool is_integral(VarId v) const {
    return types_[static_cast<std::size_t>(v)] != VarType::kContinuous;
  }
  [[nodiscard]] double lb(VarId v) const { return lb_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] double ub(VarId v) const { return ub_[static_cast<std::size_t>(v)]; }

  /// Propagation units that read lb(v), in the order of their first rows.
  [[nodiscard]] const std::vector<std::int32_t>& lb_readers(VarId v) const {
    return lb_readers_[static_cast<std::size_t>(v)];
  }
  /// Propagation units that read ub(v), in the order of their first rows.
  [[nodiscard]] const std::vector<std::int32_t>& ub_readers(VarId v) const {
    return ub_readers_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] int num_families() const {
    return static_cast<int>(families_->size());
  }
  [[nodiscard]] const PathFamily& family(int f) const {
    return (*families_)[static_cast<std::size_t>(f)];
  }
  /// Rows plus families: one past the largest unit id.
  [[nodiscard]] int num_units() const {
    return num_constraints() + num_families();
  }
  /// Units propagated once per round: the unowned rows and the families.
  [[nodiscard]] int num_round_units() const { return num_round_units_; }
  /// The unit that propagates row c: c itself, or its owning family's unit.
  [[nodiscard]] std::int32_t unit_of_row(int c) const {
    const std::int32_t f = constraint(c).family;
    return f < 0 ? c : num_constraints() + f;
  }

  /// Minimization objective (already sign-normalized); empty terms when the
  /// model is a pure feasibility problem.
  [[nodiscard]] const std::vector<LinTerm>& objective_terms() const {
    return obj_terms_;
  }
  [[nodiscard]] bool objective_flipped() const { return obj_flipped_; }

  [[nodiscard]] bool has_cutoff_row() const { return cutoff_row_ >= 0; }
  /// The cutoff row `obj <= +inf` (inactive here; Propagator::set_cutoff
  /// tightens it per worker), or -1.
  [[nodiscard]] int cutoff_row() const { return cutoff_row_; }

  /// Variable ids ordered by descending branch priority (ties: ascending id).
  [[nodiscard]] const std::vector<VarId>& branch_order() const {
    return branch_order_;
  }
  [[nodiscard]] double branch_hint(VarId v) const {
    return hints_[static_cast<std::size_t>(v)];
  }

 private:
  std::vector<double> coef_;
  std::vector<VarId> var_;
  std::vector<CompiledConstraint> constraints_;
  std::vector<std::vector<std::int32_t>> lb_readers_, ub_readers_;
  const std::vector<PathFamily>* families_ = nullptr;
  int num_round_units_ = 0;
  std::vector<VarType> types_;
  std::vector<double> lb_, ub_;
  std::vector<double> hints_;
  std::vector<LinTerm> obj_terms_;
  std::vector<VarId> branch_order_;
  bool obj_flipped_ = false;
  int cutoff_row_ = -1;
  std::uint64_t revision_ = 0;
};

}  // namespace sparcs::milp
