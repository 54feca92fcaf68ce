#include "milp/certify.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "support/rational.hpp"
#include "support/strings.hpp"

namespace sparcs::milp {
namespace {

using support::Rational;

/// A variable bound that may be absent (infinite).
using Bound = std::optional<Rational>;

/// One model row with duplicate terms merged and everything exact. Merging
/// makes activity ranges as tight as possible (a +a/-a duplicate pair would
/// otherwise widen them), so the checker is never weaker than it has to be.
struct ExactRow {
  std::vector<std::pair<VarId, Rational>> terms;
  Sense sense = Sense::kLessEqual;
  Rational rhs;
};

ExactRow make_exact_row(const ConstraintInfo& info) {
  ExactRow row;
  row.sense = info.sense;
  row.rhs = Rational::from_double(info.rhs);
  row.terms.reserve(info.terms.size());
  for (const LinTerm& t : info.terms) {
    row.terms.emplace_back(t.var, Rational::from_double(t.coef));
  }
  // Sort by variable and merge each run of duplicates into its first term.
  std::sort(row.terms.begin(), row.terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < row.terms.size(); ++i) {
    if (kept > 0 && row.terms[kept - 1].first == row.terms[i].first) {
      row.terms[kept - 1].second += row.terms[i].second;
    } else {
      row.terms[kept++] = std::move(row.terms[i]);
    }
  }
  row.terms.resize(kept);
  std::erase_if(row.terms, [](const auto& t) { return t.second.is_zero(); });
  return row;
}

/// Exact variable box with an undo trail (mirrors milp::Domains, but over
/// rationals and with absent-as-infinite bounds).
class ExactDomains {
 public:
  explicit ExactDomains(const Model& model) {
    const auto n = static_cast<std::size_t>(model.num_vars());
    lb_.resize(n);
    ub_.resize(n);
    for (VarId v = 0; v < model.num_vars(); ++v) {
      const VarInfo& info = model.var(v);
      const auto i = static_cast<std::size_t>(v);
      if (std::isfinite(info.lb)) lb_[i] = Rational::from_double(info.lb);
      if (std::isfinite(info.ub)) ub_[i] = Rational::from_double(info.ub);
    }
  }

  /// The bound, or null when it is absent (infinite).
  [[nodiscard]] const Rational* lb(VarId v) const {
    const Bound& b = lb_[static_cast<std::size_t>(v)];
    return b.has_value() ? &*b : nullptr;
  }
  [[nodiscard]] const Rational* ub(VarId v) const {
    const Bound& b = ub_[static_cast<std::size_t>(v)];
    return b.has_value() ? &*b : nullptr;
  }
  /// True when the variable's lower bound exceeds its upper bound.
  [[nodiscard]] bool empty(VarId v) const {
    const Rational* lo = lb(v);
    const Rational* hi = ub(v);
    return lo != nullptr && hi != nullptr && *lo > *hi;
  }

  /// Raises the lower bound when `value` is stronger (trail-recorded).
  void tighten_lb(VarId v, Rational value) {
    Bound& slot = lb_[static_cast<std::size_t>(v)];
    if (slot.has_value() && *slot >= value) return;
    trail_.push_back({v, true, std::move(slot)});
    slot = std::move(value);
  }

  void tighten_ub(VarId v, Rational value) {
    Bound& slot = ub_[static_cast<std::size_t>(v)];
    if (slot.has_value() && *slot <= value) return;
    trail_.push_back({v, false, std::move(slot)});
    slot = std::move(value);
  }

  [[nodiscard]] std::size_t checkpoint() const { return trail_.size(); }

  void rollback(std::size_t mark) {
    while (trail_.size() > mark) {
      TrailEntry& e = trail_.back();
      if (e.is_lb) {
        lb_[static_cast<std::size_t>(e.var)] = std::move(e.old_value);
      } else {
        ub_[static_cast<std::size_t>(e.var)] = std::move(e.old_value);
      }
      trail_.pop_back();
    }
  }

 private:
  struct TrailEntry {
    VarId var;
    bool is_lb;
    Bound old_value;
  };
  std::vector<Bound> lb_, ub_;
  std::vector<TrailEntry> trail_;
};

/// The bound of `var` that minimizes coef*x over its box (null: unbounded).
const Rational* min_bound(const ExactDomains& box, VarId var,
                          const Rational& coef) {
  return coef.sign() > 0 ? box.lb(var) : box.ub(var);
}

/// The bound of `var` that maximizes coef*x over its box (null: unbounded).
const Rational* max_bound(const ExactDomains& box, VarId var,
                          const Rational& coef) {
  return coef.sign() > 0 ? box.ub(var) : box.lb(var);
}

/// Adds to `sum` each of the row's terms, `skip` left out, at its minimum (or
/// maximum) over the box; false when a term is unbounded that way.
bool add_activity(const ExactRow& row, const ExactDomains& box, bool min_side,
                  Rational& sum, VarId skip = -1) {
  for (const auto& [var, coef] : row.terms) {
    if (var == skip) continue;
    const Rational* b =
        min_side ? min_bound(box, var, coef) : max_bound(box, var, coef);
    if (b == nullptr) return false;
    sum.add_product(coef, *b);
  }
  return true;
}

/// True when the row is exactly violated over the whole box (its minimum
/// activity exceeds the rhs, or its maximum activity falls short of it).
bool row_conflicts(const ExactRow& row, const ExactDomains& box) {
  if (row.sense == Sense::kLessEqual || row.sense == Sense::kEqual) {
    Rational min_act;
    if (add_activity(row, box, true, min_act) && min_act > row.rhs) {
      return true;
    }
  }
  if (row.sense == Sense::kGreaterEqual || row.sense == Sense::kEqual) {
    Rational max_act;
    if (add_activity(row, box, false, max_act) && max_act < row.rhs) {
      return true;
    }
  }
  return false;
}

/// Replays one recorded derivation: recomputes the implied bound of
/// (row, var) exactly from the current box and applies it when it tightens.
/// The recorded floating-point bound is never used, which makes the replay
/// sound by construction — at worst the exact bound is weaker and a later
/// conflict fails to verify.
void replay_derivation(const ExactRow& row, const Derivation& d,
                       bool integral, ExactDomains& box) {
  const auto term =
      std::find_if(row.terms.begin(), row.terms.end(),
                   [&d](const auto& t) { return t.first == d.var; });
  if (term == row.terms.end()) return;  // derivation names an absent var
  const Rational& a = term->second;
  const int sa = a.sign();
  // Which activity side implies this bound is determined by the recorded
  // side and the coefficient sign: a lower bound on var comes from the
  // row's max-activity side when a > 0 and min-activity side when a < 0.
  const bool use_min_side = d.is_lb ? (sa < 0) : (sa > 0);
  if (use_min_side &&
      !(row.sense == Sense::kLessEqual || row.sense == Sense::kEqual)) {
    return;
  }
  if (!use_min_side &&
      !(row.sense == Sense::kGreaterEqual || row.sense == Sense::kEqual)) {
    return;
  }
  Rational residual;
  if (!add_activity(row, box, use_min_side, residual, d.var)) {
    return;  // residual unbounded: nothing implied
  }
  // The implied bound is (rhs - residual) / a; an integral variable rounds
  // it inward.
  const Rational slack = row.rhs - residual;
  if (d.is_lb) {
    box.tighten_lb(d.var, integral ? slack.ceil_quotient(a) : slack / a);
  } else {
    box.tighten_ub(d.var, integral ? slack.floor_quotient(a) : slack / a);
  }
}

/// Exact Farkas check of a dual ray over the node's box: with w = sum_i
/// y_i * A_i, infeasibility of {A x (sense) b, x in box} follows when
/// min_{x in box} w.x  >  sum_i y_i b_i, provided every multiplier respects
/// its row's sign condition (y_i >= 0 for <=, y_i <= 0 for >=, free for =).
CertifyCheck check_farkas(const std::vector<ExactRow>& rows,
                          const std::vector<ConstraintId>& ids,
                          const std::vector<double>& y,
                          const ExactDomains& box, int num_rows) {
  CertifyCheck out;
  if (ids.size() != y.size()) {
    out.detail = "farkas ray/row arity mismatch";
    return out;
  }
  std::map<VarId, Rational> w;
  Rational yb;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ConstraintId c = ids[i];
    if (c < 0 || c >= num_rows) {
      out.detail = sparcs::str_format("farkas ray references row %d", c);
      return out;
    }
    if (!std::isfinite(y[i])) {
      out.detail = "farkas multiplier not finite";
      return out;
    }
    const Rational yi = Rational::from_double(y[i]);
    if (yi.is_zero()) continue;
    const ExactRow& row = rows[static_cast<std::size_t>(c)];
    if (row.sense == Sense::kLessEqual && yi.sign() < 0) {
      out.detail = sparcs::str_format("negative multiplier on <= row %d", c);
      return out;
    }
    if (row.sense == Sense::kGreaterEqual && yi.sign() > 0) {
      out.detail = sparcs::str_format("positive multiplier on >= row %d", c);
      return out;
    }
    for (const auto& [var, coef] : row.terms) w[var].add_product(yi, coef);
    yb.add_product(yi, row.rhs);
  }
  Rational box_min;
  for (const auto& [var, coef] : w) {
    if (coef.is_zero()) continue;
    const Rational* b = min_bound(box, var, coef);
    if (b == nullptr) {
      out.detail =
          sparcs::str_format("farkas aggregate unbounded on var %d", var);
      return out;
    }
    box_min.add_product(coef, *b);
  }
  if (box_min > yb) {
    out.ok = true;
    return out;
  }
  out.detail = sparcs::str_format(
      "farkas product not positive: min %s <= rhs %s",
      box_min.to_string().c_str(), yb.to_string().c_str());
  return out;
}

/// Verifies that the branch boxes cover every integer of the branch
/// variable's exact domain, so refuting all children refutes the node.
CertifyCheck check_branch_coverage(const ProofNode& node,
                                   const ExactDomains& box) {
  CertifyCheck out;
  const Rational* lo = box.lb(node.var);
  const Rational* hi = box.ub(node.var);
  if (lo == nullptr || hi == nullptr) {
    out.detail = sparcs::str_format(
        "branched var %d has an unbounded domain", node.var);
    return out;
  }
  const Rational first = lo->ceil();
  const Rational last = hi->floor();
  if (first > last) {
    out.ok = true;  // empty integral domain: nothing to cover
    return out;
  }
  std::vector<std::pair<Rational, Rational>> intervals;
  intervals.reserve(node.branches.size());
  for (const auto& [blo, bhi] : node.branches) {
    if (!std::isfinite(blo) || !std::isfinite(bhi)) {
      out.detail = "non-finite branch box";
      return out;
    }
    intervals.emplace_back(Rational::from_double(blo).ceil(),
                           Rational::from_double(bhi).floor());
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Rational next = first;  // smallest integer not yet covered
  for (const auto& [ilo, ihi] : intervals) {
    if (next > last) break;
    if (ilo > next) {
      out.detail = sparcs::str_format(
          "branch boxes of var %d leave value %s uncovered", node.var,
          next.to_string().c_str());
      return out;
    }
    const Rational follow = ihi + Rational(1);
    if (follow > next) next = follow;
  }
  if (next <= last) {
    out.detail = sparcs::str_format(
        "branch boxes of var %d end before value %s", node.var,
        next.to_string().c_str());
    return out;
  }
  out.ok = true;
  return out;
}

std::string rank_string(const std::vector<std::int32_t>& rank) {
  if (rank.empty()) return "root";
  std::string out;
  for (const std::int32_t digit : rank) {
    if (!out.empty()) out += '.';
    out += std::to_string(digit);
  }
  return out;
}

/// True when `rank` orders before `parent` extended by `last` (the rank of
/// child `last` of `parent`), without building that rank.
bool rank_before_child(const std::vector<std::int32_t>& rank,
                       const std::vector<std::int32_t>& parent,
                       std::int32_t last) {
  const std::size_t n = parent.size();
  const std::size_t common = std::min(rank.size(), n);
  for (std::size_t i = 0; i < common; ++i) {
    if (rank[i] != parent[i]) return rank[i] < parent[i];
  }
  if (rank.size() <= n) return true;  // a prefix of the child's rank
  return rank[n] < last;
}

bool is_child_rank(const std::vector<std::int32_t>& rank,
                   const std::vector<std::int32_t>& parent,
                   std::int32_t last) {
  return rank.size() == parent.size() + 1 && rank.back() == last &&
         std::equal(parent.begin(), parent.end(), rank.begin());
}

}  // namespace

const char* to_string(CertifyStatus status) {
  switch (status) {
    case CertifyStatus::kNotRequested:
      return "not-requested";
    case CertifyStatus::kCertified:
      return "certified";
    case CertifyStatus::kUncertified:
      return "uncertified";
  }
  return "unknown";
}

const char* to_string(CertifyMode mode) {
  switch (mode) {
    case CertifyMode::kOff:
      return "off";
    case CertifyMode::kIncumbents:
      return "incumbents";
    case CertifyMode::kFull:
      return "full";
  }
  return "unknown";
}

std::optional<CertifyMode> parse_certify_mode(std::string_view name) {
  for (const CertifyMode mode :
       {CertifyMode::kOff, CertifyMode::kIncumbents, CertifyMode::kFull}) {
    if (name == to_string(mode)) return mode;
  }
  return std::nullopt;
}

CertifyCheck certify_feasible(const Model& model,
                              const std::vector<double>& values) {
  CertifyCheck out;
  if (static_cast<int>(values.size()) != model.num_vars()) {
    out.detail = sparcs::str_format("assignment has %zu values for %d vars",
                                     values.size(), model.num_vars());
    return out;
  }
  for (const double v : values) {
    if (!std::isfinite(v)) {
      out.detail = "assignment contains a non-finite value";
      return out;
    }
  }
  std::vector<Rational> x;
  x.reserve(values.size());
  for (const double v : values) x.push_back(Rational::from_double(v));

  // Bounds and integrality, exactly.
  for (VarId v = 0; v < model.num_vars(); ++v) {
    const VarInfo& info = model.var(v);
    const auto i = static_cast<std::size_t>(v);
    if (std::isfinite(info.lb) && x[i] < Rational::from_double(info.lb)) {
      out.detail = sparcs::str_format("var %s below its lower bound",
                                       info.name.c_str());
      return out;
    }
    if (std::isfinite(info.ub) && x[i] > Rational::from_double(info.ub)) {
      out.detail = sparcs::str_format("var %s above its upper bound",
                                       info.name.c_str());
      return out;
    }
    if (info.type != VarType::kContinuous && !x[i].is_integer()) {
      out.detail =
          sparcs::str_format("var %s is not integral", info.name.c_str());
      return out;
    }
  }

  std::vector<ExactRow> rows;
  rows.reserve(static_cast<std::size_t>(model.num_constraints()));
  for (ConstraintId c = 0; c < model.num_constraints(); ++c) {
    rows.push_back(make_exact_row(model.constraint(c)));
  }

  auto violated_row = [&](const std::vector<Rational>& point) -> int {
    for (ConstraintId c = 0; c < model.num_constraints(); ++c) {
      const ExactRow& row = rows[static_cast<std::size_t>(c)];
      Rational lhs;
      for (const auto& [var, coef] : row.terms) {
        lhs.add_product(coef, point[static_cast<std::size_t>(var)]);
      }
      const int cmp = lhs.compare(row.rhs);
      const bool bad = (row.sense == Sense::kLessEqual && cmp > 0) ||
                       (row.sense == Sense::kGreaterEqual && cmp < 0) ||
                       (row.sense == Sense::kEqual && cmp != 0);
      if (bad) return c;
    }
    return -1;
  };

  const int direct = violated_row(x);
  if (direct < 0) {
    out.ok = true;
    return out;
  }

  // Exact repair of the continuous completion: the integral assignment (the
  // part the partitioner decodes into a design) is kept verbatim; continuous
  // variables are re-derived by exact bound tightening and clamped into
  // their exact intervals. The final re-evaluation decides — the repair is a
  // heuristic, the acceptance is exact.
  ExactDomains box(model);
  for (VarId v = 0; v < model.num_vars(); ++v) {
    if (model.var(v).type == VarType::kContinuous) continue;
    const auto i = static_cast<std::size_t>(v);
    box.tighten_lb(v, x[i]);
    box.tighten_ub(v, x[i]);
  }
  constexpr int kRepairSweeps = 8;
  for (int sweep = 0; sweep < kRepairSweeps; ++sweep) {
    const std::size_t before = box.checkpoint();
    for (ConstraintId c = 0; c < model.num_constraints(); ++c) {
      const ExactRow& row = rows[static_cast<std::size_t>(c)];
      for (const auto& [var, coef] : row.terms) {
        if (model.var(var).type != VarType::kContinuous) continue;
        Derivation d;
        d.constraint = c;
        d.var = var;
        d.is_lb = false;
        replay_derivation(row, d, /*integral=*/false, box);
        d.is_lb = true;
        replay_derivation(row, d, /*integral=*/false, box);
        if (box.empty(var)) {
          out.detail = sparcs::str_format(
              "no exact completion: var %s interval is empty",
              model.var(var).name.c_str());
          return out;
        }
      }
    }
    if (box.checkpoint() == before) break;  // fixpoint
  }
  std::vector<Rational> repaired = x;
  int repairs = 0;
  for (VarId v = 0; v < model.num_vars(); ++v) {
    if (model.var(v).type != VarType::kContinuous) continue;
    const auto i = static_cast<std::size_t>(v);
    const Rational* lo = box.lb(v);
    const Rational* hi = box.ub(v);
    if (lo != nullptr && repaired[i] < *lo) {
      repaired[i] = *lo;
      ++repairs;
    } else if (hi != nullptr && repaired[i] > *hi) {
      repaired[i] = *hi;
      ++repairs;
    }
  }
  if (repairs > 0 && violated_row(repaired) < 0) {
    out.ok = true;
    out.detail = sparcs::str_format("repaired %d continuous values", repairs);
    return out;
  }
  out.detail = sparcs::str_format(
      "constraint %s exactly violated by the assignment",
      model.constraint(direct).name.c_str());
  return out;
}

CertifyCheck certify_infeasible(const Model& model,
                                const InfeasibilityProof& proof) {
  CertifyCheck out;
  if (proof.overflowed) {
    out.detail = "proof recording overflowed its size cap";
    return out;
  }
  if (proof.nodes.empty()) {
    out.detail = "empty infeasibility proof";
    return out;
  }
  // Node pointers sorted by rank (lexicographic, so the root comes first):
  // the walk looks each child up in it.
  std::vector<const ProofNode*> by_rank;
  by_rank.reserve(proof.nodes.size());
  for (const ProofNode& node : proof.nodes) by_rank.push_back(&node);
  const auto rank_less = [](const ProofNode* a, const ProofNode* b) {
    return a->rank < b->rank;
  };
  // A lone worker records its nodes in depth-first order, already sorted.
  if (!std::is_sorted(by_rank.begin(), by_rank.end(), rank_less)) {
    std::stable_sort(by_rank.begin(), by_rank.end(), rank_less);
  }
  // Of several duplicates, name the one that comes first in node order
  // after its twin.
  const ProofNode* duplicate = nullptr;
  for (std::size_t i = 1; i < by_rank.size(); ++i) {
    if (by_rank[i]->rank == by_rank[i - 1]->rank &&
        (duplicate == nullptr || by_rank[i] < duplicate)) {
      duplicate = by_rank[i];
    }
  }
  if (duplicate != nullptr) {
    out.detail = sparcs::str_format("duplicate proof node %s",
                                     rank_string(duplicate->rank).c_str());
    return out;
  }
  if (!by_rank.front()->rank.empty()) {
    out.detail = "proof has no root node";
    return out;
  }

  std::vector<ExactRow> rows;
  rows.reserve(static_cast<std::size_t>(model.num_constraints()));
  for (ConstraintId c = 0; c < model.num_constraints(); ++c) {
    rows.push_back(make_exact_row(model.constraint(c)));
  }
  ExactDomains box(model);

  // Iterative DFS; each entry's trail mark is taken BEFORE its branch box is
  // applied, so popping the entry undoes both its derivations and the branch
  // bounds — siblings start from the parent's box, not each other's.
  struct WalkItem {
    const ProofNode* node;
    std::size_t trail_mark;
    std::size_t next_child = 0;
    bool entered = false;
  };
  std::vector<WalkItem> stack;
  stack.push_back({by_rank.front(), box.checkpoint()});
  // The depth-first walk visits ranks in sorted order, so each child is
  // usually the node after the one entered last.
  std::size_t next = 1;

  auto fail_at = [&out](const ProofNode& node, std::string reason) {
    out.ok = false;
    out.detail = sparcs::str_format("node %s: %s",
                                     rank_string(node.rank).c_str(),
                                     reason.c_str());
    return out;
  };

  while (!stack.empty()) {
    WalkItem& item = stack.back();
    const ProofNode& node = *item.node;
    if (!item.entered) {
      item.entered = true;
      // Replay this node's propagation derivations on the current box.
      for (const Derivation& d : node.derivations) {
        if (d.constraint < 0 || d.constraint >= model.num_constraints() ||
            d.var < 0 || d.var >= model.num_vars()) {
          return fail_at(node, "derivation references unknown row/var");
        }
        replay_derivation(rows[static_cast<std::size_t>(d.constraint)], d,
                          model.var(d.var).type != VarType::kContinuous, box);
      }
      switch (node.kind) {
        case ProofNode::Kind::kBranched: {
          if (node.var < 0 || node.var >= model.num_vars() ||
              model.var(node.var).type == VarType::kContinuous) {
            return fail_at(node, "branched on a non-integral variable");
          }
          if (node.branches.empty()) {
            return fail_at(node, "branched node has no branches");
          }
          CertifyCheck coverage = check_branch_coverage(node, box);
          if (!coverage.ok) return fail_at(node, coverage.detail);
          break;  // children visited below
        }
        case ProofNode::Kind::kConflict: {
          bool proven = false;
          if (node.conflict_row >= 0 &&
              node.conflict_row < model.num_constraints()) {
            proven = row_conflicts(
                rows[static_cast<std::size_t>(node.conflict_row)], box);
          } else if (node.conflict_var >= 0 &&
                     node.conflict_var < model.num_vars()) {
            proven = box.empty(node.conflict_var);
          }
          if (!proven) {
            return fail_at(node, "conflict does not hold exactly");
          }
          break;
        }
        case ProofNode::Kind::kEmptyBox: {
          if (node.var < 0 || node.var >= model.num_vars()) {
            return fail_at(node, "empty-box leaf names an unknown var");
          }
          if (!box.empty(node.var)) {
            return fail_at(node, "domain is not exactly empty");
          }
          break;
        }
        case ProofNode::Kind::kFarkas: {
          CertifyCheck farkas = check_farkas(rows, node.rows, node.y, box,
                                             model.num_constraints());
          if (!farkas.ok) return fail_at(node, farkas.detail);
          break;
        }
        case ProofNode::Kind::kUnproven:
          return fail_at(node, "leaf carries no certificate");
      }
    }
    if (node.kind != ProofNode::Kind::kBranched ||
        item.next_child >= node.branches.size()) {
      box.rollback(item.trail_mark);
      stack.pop_back();
      continue;
    }
    // Descend into the next child: apply its branch box, then look it up.
    const std::size_t j = item.next_child++;
    const auto last = static_cast<std::int32_t>(j);
    auto child_it = by_rank.begin() + static_cast<std::ptrdiff_t>(next);
    if (child_it == by_rank.end() ||
        !is_child_rank((*child_it)->rank, node.rank, last)) {
      child_it = std::lower_bound(
          by_rank.begin(), by_rank.end(), last,
          [&node](const ProofNode* other, std::int32_t index) {
            return rank_before_child(other->rank, node.rank, index);
          });
      if (child_it == by_rank.end() ||
          !is_child_rank((*child_it)->rank, node.rank, last)) {
        return fail_at(node, sparcs::str_format("child %zu has no proof", j));
      }
    }
    next = static_cast<std::size_t>(child_it - by_rank.begin()) + 1;
    const auto [blo, bhi] = node.branches[j];
    const std::size_t mark = box.checkpoint();
    box.tighten_lb(node.var, Rational::from_double(blo));
    box.tighten_ub(node.var, Rational::from_double(bhi));
    stack.push_back({*child_it, mark});
  }
  out.ok = true;
  return out;
}

}  // namespace sparcs::milp
