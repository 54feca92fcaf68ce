#include "milp/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "support/error.hpp"

namespace sparcs::milp {

namespace {

/// A variable's compiled box: an integral one rounded inward to integers.
std::pair<double, double> compiled_box(const VarInfo& v) {
  if (v.type == VarType::kContinuous) return {v.lb, v.ub};
  return {std::ceil(v.lb - 1e-9), std::floor(v.ub + 1e-9)};
}

}  // namespace

CompiledModel::CompiledModel(const Model& model, bool with_objective_cutoff)
    : revision_(model.structure_revision()) {
  model.validate();
  const int n = model.num_vars();
  types_.reserve(static_cast<std::size_t>(n));
  lb_.reserve(static_cast<std::size_t>(n));
  ub_.reserve(static_cast<std::size_t>(n));
  hints_.reserve(static_cast<std::size_t>(n));
  for (const VarInfo& v : model.vars()) {
    types_.push_back(v.type);
    const auto [lo, hi] = compiled_box(v);
    lb_.push_back(lo);
    ub_.push_back(hi);
    hints_.push_back(v.branch_hint);
  }

  auto append_row = [&](const std::vector<LinTerm>& terms, Sense sense,
                        double rhs) {
    CompiledConstraint cc;
    cc.begin = static_cast<std::int32_t>(var_.size());
    for (const LinTerm& t : terms) {
      if (t.coef == 0.0) continue;
      var_.push_back(t.var);
      coef_.push_back(t.coef);
    }
    cc.end = static_cast<std::int32_t>(var_.size());
    cc.sense = sense;
    cc.rhs = rhs;
    constraints_.push_back(cc);
  };

  for (const ConstraintInfo& c : model.constraints()) {
    append_row(c.terms, c.sense, c.rhs);
  }

  // Sign-normalize the objective to minimization.
  obj_flipped_ = model.has_objective() && !model.minimize();
  if (model.has_objective()) {
    const double sign = obj_flipped_ ? -1.0 : 1.0;
    for (const LinTerm& t : model.objective().terms()) {
      if (t.coef != 0.0) obj_terms_.push_back({t.var, sign * t.coef});
    }
  }

  if (with_objective_cutoff && !obj_terms_.empty()) {
    cutoff_row_ = static_cast<int>(constraints_.size());
    append_row(obj_terms_, Sense::kLessEqual, kInfinity);
  }

  // A family's unit takes the place of its owned rows in the reader lists.
  families_ = &model.path_families();
  for (int f = 0; f < num_families(); ++f) {
    for (const ConstraintId c : family(f).rows) {
      constraints_[static_cast<std::size_t>(c)].family = f;
    }
  }

  // Per term, a row's unit reads lb(x) on its <= side when a > 0 and ub(x)
  // when a < 0, and the other bound on its >= side. A family's rows are one
  // contiguous block, so a repeat of its unit sits at the back of the list.
  lb_readers_.assign(static_cast<std::size_t>(n), {});
  ub_readers_.assign(static_cast<std::size_t>(n), {});
  for (int c = 0; c < num_constraints(); ++c) {
    const CompiledConstraint& cc = constraints_[static_cast<std::size_t>(c)];
    const std::int32_t unit = unit_of_row(c);
    if (unit == c) ++num_round_units_;
    for (std::int32_t k = cc.begin; k < cc.end; ++k) {
      const auto v =
          static_cast<std::size_t>(var_[static_cast<std::size_t>(k)]);
      const bool positive = coef_[static_cast<std::size_t>(k)] > 0.0;
      const auto read = [&](bool is_lb) {
        auto& units = (is_lb ? lb_readers_ : ub_readers_)[v];
        if (units.empty() || units.back() != unit) units.push_back(unit);
      };
      if (cc.sense != Sense::kGreaterEqual) read(positive);
      if (cc.sense != Sense::kLessEqual) read(!positive);
    }
  }
  num_round_units_ += num_families();

  branch_order_.reserve(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    if (is_integral(v)) branch_order_.push_back(v);
  }
  std::stable_sort(branch_order_.begin(), branch_order_.end(),
                   [&](VarId a, VarId b) {
                     return model.var(a).branch_priority >
                            model.var(b).branch_priority;
                   });
}

void CompiledModel::refresh(const Model& model) {
  SPARCS_CHECK(model.structure_revision() == revision_,
               "refreshing a compiled model whose structure changed");
  model.validate_values();
  for (std::size_t v = 0; v < types_.size(); ++v) {
    const VarInfo& info = model.vars()[v];
    std::tie(lb_[v], ub_[v]) = compiled_box(info);
    hints_[v] = info.branch_hint;
  }
  const std::vector<ConstraintInfo>& rows = model.constraints();
  for (std::size_t c = 0; c < rows.size(); ++c) {
    constraints_[c].rhs = rows[c].rhs;
  }
}

}  // namespace sparcs::milp
