// Compiled (solver-internal) form of a Model: CSR constraint storage,
// variable -> constraint adjacency, and an optional dynamic objective-cutoff
// row used by branch & bound to turn incumbent objectives into a constraint.
#pragma once

#include <vector>

#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// One compiled constraint; its terms live in the shared CSR arrays.
struct CompiledConstraint {
  std::int32_t begin = 0;  ///< first term index
  std::int32_t end = 0;    ///< one past the last term index
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

/// Immutable-by-convention compiled model (the cutoff rhs is the one mutable
/// field, owned by the branch & bound).
class CompiledModel {
 public:
  /// Compiles `model`. When `with_objective_cutoff` is true and the model has
  /// an objective, an extra row `obj <= +inf` is appended whose rhs the
  /// search tightens as incumbents are found (the objective is negated first
  /// for maximization so the compiled problem always minimizes).
  explicit CompiledModel(const Model& model, bool with_objective_cutoff = false);

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

  /// Constraints containing variable v.
  [[nodiscard]] const std::vector<std::int32_t>& constraints_of(VarId v) const {
    return vadj_[static_cast<std::size_t>(v)];
  }

  /// Minimization objective (already sign-normalized); empty terms when the
  /// model is a pure feasibility problem.
  [[nodiscard]] const std::vector<LinTerm>& objective_terms() const {
    return obj_terms_;
  }
  [[nodiscard]] bool objective_flipped() const { return obj_flipped_; }

  [[nodiscard]] bool has_cutoff_row() const { return cutoff_row_ >= 0; }
  /// Tightens the cutoff row to `obj <= value`.
  void set_cutoff(double value) {
    constraints_[static_cast<std::size_t>(cutoff_row_)].rhs = value;
  }

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
  std::vector<std::vector<std::int32_t>> vadj_;
  std::vector<VarType> types_;
  std::vector<double> lb_, ub_;
  std::vector<double> hints_;
  std::vector<LinTerm> obj_terms_;
  std::vector<VarId> branch_order_;
  bool obj_flipped_ = false;
  int cutoff_row_ = -1;
};

}  // namespace sparcs::milp
