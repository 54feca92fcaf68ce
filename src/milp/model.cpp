#include "milp/model.hpp"

#include <cmath>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace sparcs::milp {
namespace {

std::size_t at(std::int32_t i) { return static_cast<std::size_t>(i); }

[[noreturn]] void reject_path_family(int index, const std::string& what) {
  throw InvalidArgumentError("path family " + std::to_string(index) + ": " +
                             what);
}

/// Checks that `f` is well formed over `model` and that its rows are
/// exactly  sum(path terms) - target <= 0  for each root->leaf path, in path
/// order. `row_family` (one slot per model row) catches rows claimed twice;
/// `coef_on_path` (one zero per model variable) is scratch.
void validate_path_family(const Model& model, const PathFamily& f, int index,
                          std::vector<int>& row_family,
                          std::vector<double>& coef_on_path) {
  const auto require = [index](bool ok, const char* what) {
    if (!ok) reject_path_family(index, what);
  };
  const int n = f.num_nodes();
  require(f.target >= 0 && f.target < model.num_vars(), "unknown target");
  require(n >= 1 && f.term_begin.size() == f.succ_begin.size() &&
              f.topo_order.size() == at(n) && f.succ_begin.front() == 0 &&
              at(f.succ_begin.back()) == f.succ.size() &&
              f.term_begin.front() == 0 &&
              at(f.term_begin.back()) == f.terms.size(),
          "inconsistent node arrays");
  std::vector<int> position(at(n), -1);
  for (int i = 0; i < n; ++i) {
    const std::int32_t u = f.topo_order[at(i)];
    require(u >= 0 && u < n && position[at(u)] < 0,
            "topo_order is not a permutation of the nodes");
    position[at(u)] = i;
  }
  std::vector<bool> has_pred(at(n), false);
  for (std::int32_t u = 0; u < n; ++u) {
    require(f.succ_begin[at(u)] <= f.succ_begin[at(u) + 1] &&
                f.term_begin[at(u)] <= f.term_begin[at(u) + 1],
            "malformed offsets");
    for (std::int32_t e = f.succ_begin[at(u)]; e < f.succ_begin[at(u) + 1];
         ++e) {
      const std::int32_t s = f.succ[at(e)];
      require(s >= 0 && s < n && position[at(s)] > position[at(u)],
              "an edge runs against topo_order");
      has_pred[at(s)] = true;
    }
  }
  for (const LinTerm& t : f.terms) {
    require(t.var >= 0 && t.var < model.num_vars() && t.var != f.target &&
                std::isfinite(model.var(t.var).lb) && std::isfinite(t.coef) &&
                t.coef > 0.0,
            "terms need positive coefficients on non-target variables with "
            "finite lower bounds");
  }

  // Depth-first path enumeration in path order; at each leaf the next row
  // must hold exactly the terms of the nodes on the stack plus -target.
  std::size_t path = 0;
  int path_terms = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> stack;  // node, next edge
  const auto mark = [&](std::int32_t u, bool on) {
    for (std::int32_t k = f.term_begin[at(u)]; k < f.term_begin[at(u) + 1];
         ++k) {
      const LinTerm& t = f.terms[at(k)];
      coef_on_path[at(t.var)] = on ? t.coef : 0.0;
      path_terms += on ? 1 : -1;
    }
  };
  for (std::int32_t root = 0; root < n; ++root) {
    if (has_pred[at(root)]) continue;
    stack.emplace_back(root, f.succ_begin[at(root)]);
    mark(root, true);
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const std::int32_t end = f.succ_begin[at(u) + 1];
      if (next == f.succ_begin[at(u)] && next == end) {  // u is a leaf
        require(path < f.rows.size(), "fewer rows than root->leaf paths");
        const ConstraintId c = f.rows[path++];
        require(c >= 0 && c < model.num_constraints() && row_family[at(c)] < 0,
                "a row is unknown or owned twice");
        row_family[at(c)] = index;
        const ConstraintInfo& row = model.constraint(c);
        bool match = row.sense == Sense::kLessEqual && row.rhs == 0.0 &&
                     row.terms.size() == at(path_terms) + 1;
        for (const LinTerm& t : row.terms) {
          match = match && (t.var == f.target
                                ? t.coef == -1.0
                                : coef_on_path[at(t.var)] == t.coef);
        }
        if (!match) {
          reject_path_family(index, "row " + row.name + " is not its path's");
        }
      }
      if (next < end) {
        const std::int32_t s = f.succ[at(next++)];
        stack.emplace_back(s, f.succ_begin[at(s)]);
        mark(s, true);
      } else {
        mark(u, false);
        stack.pop_back();
      }
    }
  }
  require(path == f.rows.size(), "more rows than root->leaf paths");
}

}  // namespace

VarId Model::add_var(VarType type, double lb, double ub, std::string name) {
  SPARCS_REQUIRE(lb <= ub, "variable " + name + " has empty bound box");
  SPARCS_REQUIRE(!std::isnan(lb) && !std::isnan(ub),
                 "variable bounds must not be NaN");
  VarInfo info;
  info.name = std::move(name);
  info.type = type;
  info.lb = lb;
  info.ub = ub;
  if (type == VarType::kBinary) {
    info.lb = std::max(lb, 0.0);
    info.ub = std::min(ub, 1.0);
    SPARCS_REQUIRE(info.lb <= info.ub, "binary variable bounds exclude {0,1}");
  }
  vars_.push_back(std::move(info));
  return static_cast<VarId>(vars_.size() - 1);
}

VarId Model::add_binary(std::string name) {
  return add_var(VarType::kBinary, 0.0, 1.0, std::move(name));
}

VarId Model::add_integer(double lb, double ub, std::string name) {
  return add_var(VarType::kInteger, lb, ub, std::move(name));
}

VarId Model::add_continuous(double lb, double ub, std::string name) {
  return add_var(VarType::kContinuous, lb, ub, std::move(name));
}

const VarInfo& Model::var(VarId id) const {
  SPARCS_REQUIRE(id >= 0 && id < num_vars(), "variable id out of range");
  return vars_[static_cast<std::size_t>(id)];
}

void Model::tighten_bounds(VarId id, double lb, double ub) {
  SPARCS_REQUIRE(id >= 0 && id < num_vars(), "variable id out of range");
  VarInfo& info = vars_[static_cast<std::size_t>(id)];
  info.lb = std::max(info.lb, lb);
  info.ub = std::min(info.ub, ub);
  SPARCS_REQUIRE(info.lb <= info.ub,
                 "tighten_bounds made variable " + info.name + " infeasible");
}

void Model::set_branch_priority(VarId id, int priority) {
  SPARCS_REQUIRE(id >= 0 && id < num_vars(), "variable id out of range");
  vars_[static_cast<std::size_t>(id)].branch_priority = priority;
}

void Model::set_branch_hint(VarId id, double value) {
  SPARCS_REQUIRE(id >= 0 && id < num_vars(), "variable id out of range");
  vars_[static_cast<std::size_t>(id)].branch_hint = value;
}

ConstraintId Model::add_constraint(Relation relation, std::string name) {
  ConstraintInfo info;
  info.name = std::move(name);
  LinExpr lhs = std::move(relation.lhs);
  lhs.normalize();
  info.terms = lhs.terms();
  info.sense = relation.sense;
  info.rhs = relation.rhs - lhs.constant();
  constraints_.push_back(std::move(info));
  return static_cast<ConstraintId>(constraints_.size() - 1);
}

ConstraintId Model::add_constraint(const LinExpr& lhs, Sense sense, double rhs,
                                   std::string name) {
  Relation relation;
  relation.lhs = lhs;
  relation.sense = sense;
  relation.rhs = rhs;
  return add_constraint(std::move(relation), std::move(name));
}

int Model::add_path_family(PathFamily family) {
  path_families_.push_back(std::move(family));
  return static_cast<int>(path_families_.size()) - 1;
}

const ConstraintInfo& Model::constraint(ConstraintId id) const {
  SPARCS_REQUIRE(id >= 0 && id < num_constraints(),
                 "constraint id out of range");
  return constraints_[static_cast<std::size_t>(id)];
}

void Model::set_objective(LinExpr objective, bool minimize) {
  objective.normalize();
  objective_ = std::move(objective);
  minimize_ = minimize;
  has_objective_ = true;
}

ModelStats Model::stats() const {
  ModelStats s;
  s.num_vars = num_vars();
  for (const VarInfo& v : vars_) {
    switch (v.type) {
      case VarType::kBinary:
        ++s.num_binary;
        break;
      case VarType::kInteger:
        ++s.num_integer;
        break;
      case VarType::kContinuous:
        ++s.num_continuous;
        break;
    }
  }
  s.num_constraints = num_constraints();
  for (const ConstraintInfo& c : constraints_) {
    s.num_nonzeros += static_cast<std::int64_t>(c.terms.size());
  }
  return s;
}

void Model::validate() const {
  for (int i = 0; i < num_vars(); ++i) {
    const VarInfo& v = vars_[static_cast<std::size_t>(i)];
    SPARCS_REQUIRE(v.lb <= v.ub, "variable " + v.name + " has empty bounds");
    if (v.type != VarType::kContinuous) {
      SPARCS_REQUIRE(std::isfinite(v.lb) && std::isfinite(v.ub),
                     "integer variable " + v.name + " must have finite bounds");
    }
  }
  auto check_terms = [&](const std::vector<LinTerm>& terms,
                         const std::string& where) {
    for (const LinTerm& t : terms) {
      SPARCS_REQUIRE(t.var >= 0 && t.var < num_vars(),
                     where + " references unknown variable");
      SPARCS_REQUIRE(std::isfinite(t.coef),
                     where + " has a non-finite coefficient");
    }
  };
  for (const ConstraintInfo& c : constraints_) {
    check_terms(c.terms, "constraint " + c.name);
    SPARCS_REQUIRE(std::isfinite(c.rhs),
                   "constraint " + c.name + " has non-finite rhs");
  }
  check_terms(objective_.terms(), "objective");
  std::vector<int> row_family(constraints_.size(), -1);
  std::vector<double> coef_on_path(vars_.size(), 0.0);
  for (std::size_t i = 0; i < path_families_.size(); ++i) {
    validate_path_family(*this, path_families_[i], static_cast<int>(i),
                         row_family, coef_on_path);
  }
}

}  // namespace sparcs::milp
