// MILP model container: variables, linear constraints, objective, and the
// search annotations (branching priorities and hints) the temporal
// partitioning formulation uses to direct the solver.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

#include "milp/expr.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// A decision variable's static description.
struct VarInfo {
  std::string name;
  VarType type = VarType::kContinuous;
  double lb = -kInfinity;
  double ub = kInfinity;
  /// Higher priority variables are branched on first (default 0).
  int branch_priority = 0;
  /// Preferred branching value (tried first); NaN when unset.
  double branch_hint = std::numeric_limits<double>::quiet_NaN();
};

/// A stored linear constraint (expression terms are normalized and the
/// constant folded into rhs).
struct ConstraintInfo {
  std::string name;
  std::vector<LinTerm> terms;
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

/// Path counts saturate at this cap instead of overflowing; a count at the
/// cap only says that the family has far too many paths to build its rows.
inline constexpr std::int64_t kPathCountCap =
    std::numeric_limits<std::int64_t>::max();

/// A family of rows, one per root->leaf path P of a DAG:
///   sum_{u in P} sum_{(x, a) in terms(u)} a*x - target <= 0
/// (the paper's eq. (7) for one partition: target is d_p, node u is a task,
/// its terms are D(m)*Y_ptm). Model::add_path_family builds the rows from the
/// DAG and the terms, one contiguous block in path order: roots (nodes
/// without predecessors) by ascending id, each extended depth-first through
/// its successors in CSR order. They are ordinary model rows that the LP,
/// the certificate checker and certificates read one by one; only bound
/// propagation visits the family as one longest-path constraint instead
/// (milp::Propagator), which reaches the same bounds in O(V+E) per visit.
struct PathFamily {
  VarId target = -1;
  /// DAG over nodes 0..n-1 in CSR form: the successors of node u are
  /// succ[succ_begin[u] .. succ_begin[u+1]).
  std::vector<std::int32_t> succ_begin{0};
  std::vector<std::int32_t> succ;
  /// Every node once, each before all its successors.
  std::vector<std::int32_t> topo_order;
  /// Terms of node u: terms[term_begin[u] .. term_begin[u+1]), with positive
  /// coefficients, each on its own variable other than the target (a path's
  /// row is its nodes' terms concatenated).
  std::vector<std::int32_t> term_begin{0};
  std::vector<LinTerm> terms;

  /// Filled by count_paths(), saturating at kPathCountCap: the number of
  /// paths from node u to a leaf, the rank in path order of root r's first
  /// path (-1 for nodes with predecessors), and the number of paths.
  std::vector<std::int64_t> paths_from;
  std::vector<std::int64_t> first_path;
  std::int64_t num_paths = 0;
  /// Set by Model::add_path_family: the row of the path of rank i is
  /// rows[i].
  std::ranges::iota_view<ConstraintId, ConstraintId> rows;

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(succ_begin.size()) - 1;
  }
  /// Counts the paths of a well-formed DAG in one reverse topological pass.
  void count_paths();
};

/// Summary statistics of a model.
struct ModelStats {
  int num_vars = 0;
  int num_binary = 0;
  int num_integer = 0;
  int num_continuous = 0;
  int num_constraints = 0;
  std::int64_t num_nonzeros = 0;
};

/// A mixed-integer linear program: min (or max) c'x subject to linear
/// constraints and variable bounds/integrality.
class Model {
 public:
  Model() = default;
  explicit Model(std::string name) : name_(std::move(name)) {}

  // ---- Variables -------------------------------------------------------
  VarId add_var(VarType type, double lb, double ub, std::string name);
  VarId add_binary(std::string name);
  VarId add_integer(double lb, double ub, std::string name);
  VarId add_continuous(double lb, double ub, std::string name);

  [[nodiscard]] int num_vars() const { return static_cast<int>(vars_.size()); }
  [[nodiscard]] const VarInfo& var(VarId id) const;
  [[nodiscard]] const std::vector<VarInfo>& vars() const { return vars_; }

  /// Replaces a variable's bounds; throws InvalidArgumentError on an empty
  /// or NaN box.
  void set_bounds(VarId id, double lb, double ub);
  void set_branch_priority(VarId id, int priority);
  void set_branch_hint(VarId id, double value);

  // ---- Constraints -----------------------------------------------------
  /// Adds `relation` (built with <=, >=, == on LinExpr) under `name`.
  ConstraintId add_constraint(Relation relation, std::string name);
  ConstraintId add_constraint(const LinExpr& lhs, Sense sense, double rhs,
                              std::string name);

  [[nodiscard]] int num_constraints() const {
    return static_cast<int>(constraints_.size());
  }
  [[nodiscard]] const ConstraintInfo& constraint(ConstraintId id) const;
  /// Replaces a constraint's right-hand side.
  void set_rhs(ConstraintId id, double rhs);
  [[nodiscard]] const std::vector<ConstraintInfo>& constraints() const {
    return constraints_;
  }

  /// Registers `family` and appends its rows (see PathFamily), naming the
  /// row of path i  row_prefix + i + row_suffix. Throws InvalidArgumentError
  /// on a malformed family or one with too many paths to build.
  int add_path_family(PathFamily family, std::string_view row_prefix,
                      std::string_view row_suffix);
  [[nodiscard]] const std::vector<PathFamily>& path_families() const {
    return path_families_;
  }

  // ---- Objective -------------------------------------------------------
  /// Sets the objective; `minimize` false means maximize. Without a call the
  /// model is a pure feasibility problem (objective identically 0).
  void set_objective(LinExpr objective, bool minimize = true);
  [[nodiscard]] const LinExpr& objective() const { return objective_; }
  [[nodiscard]] bool minimize() const { return minimize_; }
  [[nodiscard]] bool has_objective() const { return has_objective_; }

  // ---- Misc ------------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ModelStats stats() const;

  /// Throws InvalidArgumentError on malformed models (empty bounds boxes,
  /// terms referencing unknown variables, non-finite coefficients).
  void validate() const;
  /// The part of validate() that set_bounds and set_rhs can break: bound
  /// boxes and right-hand sides.
  void validate_values() const;

  /// Changes whenever the structure changes: add_var, add_constraint,
  /// add_path_family, set_objective and set_branch_priority each draw a new
  /// value, unique across all models. Bounds, hints and right-hand sides do
  /// not count (CompiledModel::refresh re-reads those), so a compiled form
  /// of this model stays valid while the revision holds.
  [[nodiscard]] std::uint64_t structure_revision() const {
    return structure_revision_;
  }

 private:
  /// A revision no model has had yet.
  static std::uint64_t fresh_revision();

  std::uint64_t structure_revision_ = fresh_revision();
  std::string name_;
  std::vector<VarInfo> vars_;
  std::vector<ConstraintInfo> constraints_;
  std::vector<PathFamily> path_families_;
  LinExpr objective_;
  bool minimize_ = true;
  bool has_objective_ = false;
};

}  // namespace sparcs::milp
