#include "milp/model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
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

/// Checks that `f` is a well-formed family over `model`: consistent CSR
/// arrays, edges along topo_order, and positive terms on distinct
/// non-target variables with finite lower bounds.
void check_path_family(const Model& model, const PathFamily& f, int index) {
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
  for (std::int32_t u = 0; u < n; ++u) {
    require(f.succ_begin[at(u)] <= f.succ_begin[at(u) + 1] &&
                f.term_begin[at(u)] <= f.term_begin[at(u) + 1],
            "malformed offsets");
    for (std::int32_t e = f.succ_begin[at(u)]; e < f.succ_begin[at(u) + 1];
         ++e) {
      const std::int32_t s = f.succ[at(e)];
      require(s >= 0 && s < n && position[at(s)] > position[at(u)],
              "an edge runs against topo_order");
    }
  }
  // A row concatenates its path's terms, so a variable used twice could
  // land in one row twice.
  std::vector<bool> used(at(model.num_vars()), false);
  for (const LinTerm& t : f.terms) {
    require(t.var >= 0 && t.var < model.num_vars() && t.var != f.target &&
                std::isfinite(model.var(t.var).lb) && std::isfinite(t.coef) &&
                t.coef > 0.0,
            "terms need positive coefficients on non-target variables with "
            "finite lower bounds");
    require(!used[at(t.var)], "a variable appears in two terms");
    used[at(t.var)] = true;
  }
}

/// a + b for counts in [0, kPathCountCap], saturating at the cap.
std::int64_t add_counts(std::int64_t a, std::int64_t b) {
  return a > kPathCountCap - b ? kPathCountCap : a + b;
}

}  // namespace

std::uint64_t Model::fresh_revision() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

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
  structure_revision_ = fresh_revision();
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

void Model::set_bounds(VarId id, double lb, double ub) {
  SPARCS_REQUIRE(id >= 0 && id < num_vars(), "variable id out of range");
  VarInfo& info = vars_[static_cast<std::size_t>(id)];
  SPARCS_REQUIRE(lb <= ub, "variable " + info.name + " has empty bound box");
  info.lb = lb;
  info.ub = ub;
}

void Model::set_branch_priority(VarId id, int priority) {
  SPARCS_REQUIRE(id >= 0 && id < num_vars(), "variable id out of range");
  vars_[static_cast<std::size_t>(id)].branch_priority = priority;
  structure_revision_ = fresh_revision();
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
  structure_revision_ = fresh_revision();
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

void PathFamily::count_paths() {
  const int n = num_nodes();
  paths_from.assign(at(n), 0);
  first_path.assign(at(n), 0);
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    std::int64_t count = 0;
    for (std::int32_t e = succ_begin[at(*it)]; e < succ_begin[at(*it) + 1];
         ++e) {
      count = add_counts(count, paths_from[at(succ[at(e)])]);
      first_path[at(succ[at(e)])] = -1;
    }
    paths_from[at(*it)] = std::max<std::int64_t>(count, 1);
  }
  num_paths = 0;
  for (std::int32_t r = 0; r < n; ++r) {
    if (first_path[at(r)] < 0) continue;
    first_path[at(r)] = num_paths;
    num_paths = add_counts(num_paths, paths_from[at(r)]);
  }
}

// Depth-first from each root in path order; at each leaf, the terms of the
// nodes on the stack plus -target make the next row.
int Model::add_path_family(PathFamily family, std::string_view row_prefix,
                           std::string_view row_suffix) {
  const int index = static_cast<int>(path_families_.size());
  check_path_family(*this, family, index);
  family.count_paths();
  if (family.num_paths >
      std::numeric_limits<ConstraintId>::max() - num_constraints()) {
    reject_path_family(index, "too many root->leaf paths to build their rows");
  }
  const PathFamily& f = family;
  const ConstraintId first = num_constraints();
  std::vector<LinTerm> path;  // terms of the nodes on the stack
  std::vector<std::pair<std::int32_t, std::int32_t>> stack;  // node, next edge
  const auto push = [&](std::int32_t u) {
    stack.emplace_back(u, f.succ_begin[at(u)]);
    path.insert(path.end(), f.terms.begin() + f.term_begin[at(u)],
                f.terms.begin() + f.term_begin[at(u) + 1]);
  };
  for (std::int32_t root = 0; root < f.num_nodes(); ++root) {
    if (f.first_path[at(root)] < 0) continue;
    push(root);
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const std::int32_t end = f.succ_begin[at(u) + 1];
      if (next == f.succ_begin[at(u)] && next == end) {  // u is a leaf
        ConstraintInfo row;
        row.name = std::string(row_prefix) +
                   std::to_string(num_constraints() - first) +
                   std::string(row_suffix);
        row.terms.reserve(path.size() + 1);
        row.terms.assign(path.begin(), path.end());
        row.terms.push_back({f.target, -1.0});
        constraints_.push_back(std::move(row));
      }
      if (next < end) {
        push(f.succ[at(next++)]);
      } else {
        path.resize(path.size() -
                    at(f.term_begin[at(u) + 1] - f.term_begin[at(u)]));
        stack.pop_back();
      }
    }
  }
  family.rows = std::views::iota(first, num_constraints());
  path_families_.push_back(std::move(family));
  structure_revision_ = fresh_revision();
  return index;
}

const ConstraintInfo& Model::constraint(ConstraintId id) const {
  SPARCS_REQUIRE(id >= 0 && id < num_constraints(),
                 "constraint id out of range");
  return constraints_[static_cast<std::size_t>(id)];
}

void Model::set_rhs(ConstraintId id, double rhs) {
  SPARCS_REQUIRE(id >= 0 && id < num_constraints(),
                 "constraint id out of range");
  constraints_[static_cast<std::size_t>(id)].rhs = rhs;
}

void Model::set_objective(LinExpr objective, bool minimize) {
  objective.normalize();
  objective_ = std::move(objective);
  minimize_ = minimize;
  has_objective_ = true;
  structure_revision_ = fresh_revision();
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
  validate_values();
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
  }
  check_terms(objective_.terms(), "objective");
}

void Model::validate_values() const {
  for (const VarInfo& v : vars_) {
    SPARCS_REQUIRE(v.lb <= v.ub, "variable " + v.name + " has empty bounds");
    if (v.type != VarType::kContinuous) {
      SPARCS_REQUIRE(std::isfinite(v.lb) && std::isfinite(v.ub),
                     "integer variable " + v.name + " must have finite bounds");
    }
  }
  for (const ConstraintInfo& c : constraints_) {
    SPARCS_REQUIRE(std::isfinite(c.rhs),
                   "constraint " + c.name + " has non-finite rhs");
  }
}

}  // namespace sparcs::milp
