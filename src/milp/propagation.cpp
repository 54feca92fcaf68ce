#include "milp/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace sparcs::milp {
namespace {

std::size_t at(std::int32_t i) { return static_cast<std::size_t>(i); }

}  // namespace

Domains::Domains(const CompiledModel& model) {
  const int n = model.num_vars();
  lb_.reserve(static_cast<std::size_t>(n));
  ub_.reserve(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    lb_.push_back(model.lb(v));
    ub_.push_back(model.ub(v));
  }
}

bool Domains::set_lb(VarId v, double value) {
  double& slot = lb_[static_cast<std::size_t>(v)];
  if (value <= slot) return false;
  trail_.push_back({v, true, slot});
  slot = value;
  return true;
}

bool Domains::set_ub(VarId v, double value) {
  double& slot = ub_[static_cast<std::size_t>(v)];
  if (value >= slot) return false;
  trail_.push_back({v, false, slot});
  slot = value;
  return true;
}

void Domains::reset_to(const std::vector<double>& lb,
                       const std::vector<double>& ub) {
  SPARCS_CHECK(lb.size() == lb_.size() && ub.size() == ub_.size(),
               "domain snapshot arity mismatch");
  lb_ = lb;
  ub_ = ub;
  trail_.clear();
}

void Domains::rollback(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    if (e.is_lb) {
      lb_[static_cast<std::size_t>(e.var)] = e.old_value;
    } else {
      ub_[static_cast<std::size_t>(e.var)] = e.old_value;
    }
    trail_.pop_back();
  }
}

Propagator::Propagator(const CompiledModel& model, double feasibility_tol,
                       int max_rounds)
    : model_(model),
      tol_(feasibility_tol),
      max_rounds_(max_rounds),
      cutoff_row_(model.cutoff_row()),
      in_queue_(static_cast<std::size_t>(model.num_units()), 0) {
  std::size_t nodes = 0;
  for (int f = 0; f < model.num_families(); ++f) {
    nodes = std::max(nodes, at(model.family(f).num_nodes()));
  }
  weight_.resize(nodes);
  span_.resize(nodes);
  into_.resize(nodes);
  from_.resize(nodes);
  prev_.resize(nodes);
  next_.resize(nodes);
}

void Propagator::enqueue_var(VarId v, bool lb_changed, bool ub_changed) {
  if (lb_changed) enqueue(model_.lb_readers(v));
  if (ub_changed) enqueue(model_.ub_readers(v));
}

void Propagator::enqueue(const std::vector<std::int32_t>& units) {
  for (const std::int32_t unit : units) {
    if (in_queue_[at(unit)] != 0) continue;
    in_queue_[at(unit)] = 1;
    queue_.push_back(unit);
  }
}

void Propagator::enqueue_all() {
  for (int c = 0; c < model_.num_constraints(); ++c) {
    const std::int32_t unit = model_.unit_of_row(c);
    if (in_queue_[at(unit)] == 0) {
      in_queue_[at(unit)] = 1;
      queue_.push_back(unit);
    }
  }
}

bool Propagator::propagate(Domains& domains,
                           const std::vector<VarId>& seed_vars,
                           PropagationStats& stats, bool lb_moved,
                           bool ub_moved) {
  // Every flag is clear but those of the units a conflict or the round
  // budget left queued in the last call, which queue_ still holds.
  for (const std::int32_t unit : queue_) in_queue_[at(unit)] = 0;
  queue_.clear();
  if (seed_vars.empty()) {
    enqueue_all();
  } else {
    for (const VarId v : seed_vars) enqueue_var(v, lb_moved, ub_moved);
  }

  const std::int64_t budget =
      static_cast<std::int64_t>(max_rounds_) *
      std::max(1, model_.num_round_units());
  const int num_rows = model_.num_constraints();
  std::int64_t processed = 0;
  std::size_t head = 0;
  bool ok = true;
  while (head < queue_.size()) {
    const int unit = queue_[head++];
    in_queue_[at(unit)] = 0;
    ++processed;
    if (!(unit < num_rows
              ? process_constraint(unit, domains, stats)
              : process_family(unit - num_rows, domains, stats))) {
      ++stats.conflicts;
      ok = false;
      break;
    }
    if (processed > budget) break;  // settle for the bounds found so far
    // Compact the consumed prefix occasionally to bound memory.
    if (head > 4096 && head * 2 > queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
  // Keep only the units still queued (and flagged) for the next call.
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(head));
  stats.constraints_processed += processed;
  return ok;
}

bool Propagator::process_constraint(int c, Domains& domains,
                                    PropagationStats& stats) {
  const CompiledConstraint& cc = model_.constraint(c);
  const double* coefs = model_.coefs(cc);
  const VarId* vars = model_.vars(cc);
  const int len = model_.size(cc);
  const double rhs = row_rhs(c);
  if (!std::isfinite(rhs)) return true;  // inactive cutoff row

  // Row activity bounds with infinite-contribution counters, and the widest
  // term |a|*(ub - lb).
  double min_act = 0.0, max_act = 0.0, max_span = 0.0;
  int min_infs = 0, max_infs = 0;
  for (int k = 0; k < len; ++k) {
    const double a = coefs[k];
    const double lo = domains.lb(vars[k]);
    const double hi = domains.ub(vars[k]);
    const double contrib_min = a > 0.0 ? a * lo : a * hi;
    const double contrib_max = a > 0.0 ? a * hi : a * lo;
    if (std::isfinite(contrib_min)) min_act += contrib_min; else ++min_infs;
    if (std::isfinite(contrib_max)) max_act += contrib_max; else ++max_infs;
    max_span = std::max(max_span, contrib_max - contrib_min);
  }

  const bool need_le =
      cc.sense == Sense::kLessEqual || cc.sense == Sense::kEqual;
  const bool need_ge =
      cc.sense == Sense::kGreaterEqual || cc.sense == Sense::kEqual;

  if ((need_le && min_infs == 0 && min_act > rhs + tol_) ||
      (need_ge && max_infs == 0 && max_act < rhs - tol_)) {
    if (log_ != nullptr) log_->conflict_row = c;
    return false;
  }
  // A term's new bound lies its side's slack (rhs - min_act, or
  // max_act - rhs) beyond the bound it already has, so a term cannot move
  // when its span contrib_max - contrib_min fits in the slack of every side
  // the row has; a side with an infinite contribution fits none. No term
  // moves when even the widest one fits.
  double fits = kInfinity;
  if (need_le) fits = min_infs == 0 ? rhs - min_act : -kInfinity;
  if (need_ge) {
    fits = std::min(fits, max_infs == 0 ? max_act - rhs : -kInfinity);
  }
  if (max_span <= fits) return true;

  // Tighten each variable from the residual activity of the others.
  for (int k = 0; k < len; ++k) {
    const VarId v = vars[k];
    const double a = coefs[k];
    const double lo = domains.lb(v);
    const double hi = domains.ub(v);
    const double contrib_min = a > 0.0 ? a * lo : a * hi;
    const double contrib_max = a > 0.0 ? a * hi : a * lo;
    if (contrib_max - contrib_min <= fits) continue;
    const bool self_min_inf = !std::isfinite(contrib_min);
    const bool self_max_inf = !std::isfinite(contrib_max);

    if (need_le && (min_infs == 0 || (min_infs == 1 && self_min_inf))) {
      // residual = min activity of the other terms
      const double residual = self_min_inf ? min_act : min_act - contrib_min;
      const double slack = rhs - residual;
      // a*x <= slack
      double new_bound = slack / a;
      bool changed = false;
      if (a > 0.0) {
        if (model_.is_integral(v)) new_bound = std::floor(new_bound + tol_);
        if (new_bound < hi - tol_) changed = domains.set_ub(v, new_bound);
      } else {
        if (model_.is_integral(v)) new_bound = std::ceil(new_bound - tol_);
        if (new_bound > lo + tol_) changed = domains.set_lb(v, new_bound);
      }
      if (changed && !tightened(c, v, /*is_lb=*/a <= 0.0, domains, stats)) {
        return false;
      }
    }
    if (need_ge && (max_infs == 0 || (max_infs == 1 && self_max_inf))) {
      const double residual = self_max_inf ? max_act : max_act - contrib_max;
      const double slack = rhs - residual;
      // a*x >= slack
      double new_bound = slack / a;
      bool changed = false;
      if (a > 0.0) {
        if (model_.is_integral(v)) new_bound = std::ceil(new_bound - tol_);
        if (new_bound > domains.lb(v) + tol_) changed = domains.set_lb(v, new_bound);
      } else {
        if (model_.is_integral(v)) new_bound = std::floor(new_bound + tol_);
        if (new_bound < domains.ub(v) - tol_) changed = domains.set_ub(v, new_bound);
      }
      if (changed && !tightened(c, v, /*is_lb=*/a > 0.0, domains, stats)) {
        return false;
      }
    }
  }
  return true;
}

bool Propagator::tightened(ConstraintId row, VarId v, bool is_lb,
                           Domains& domains, PropagationStats& stats) {
  ++stats.bounds_tightened;
  if (log_ != nullptr) log_->derivations.push_back({row, v, is_lb});
  if (domains.lb(v) > domains.ub(v) + tol_) {
    if (log_ != nullptr) log_->conflict_var = v;
    return false;
  }
  if (domains.ub(v) - domains.lb(v) <= tol_) ++stats.vars_fixed;
  enqueue_var(v, is_lb, !is_lb);
  return true;
}

void Propagator::longest_paths(const PathFamily& fam, const Domains& domains) {
  const int n = fam.num_nodes();
  for (std::int32_t u = 0; u < n; ++u) {
    double w = 0.0, span = 0.0;
    for (std::int32_t k = fam.term_begin[at(u)]; k < fam.term_begin[at(u) + 1];
         ++k) {
      const LinTerm& t = fam.terms[at(k)];
      w += t.coef * domains.lb(t.var);
      span = std::max(span, t.coef * (domains.ub(t.var) - domains.lb(t.var)));
    }
    weight_[at(u)] = w;
    span_[at(u)] = span;
    into_[at(u)] = 0.0;
    prev_[at(u)] = -1;
  }
  // Forward pass: the longest path into each node; roots keep prev_ = -1.
  for (const std::int32_t u : fam.topo_order) {
    const double out = into_[at(u)] + weight_[at(u)];
    for (std::int32_t e = fam.succ_begin[at(u)]; e < fam.succ_begin[at(u) + 1];
         ++e) {
      const std::int32_t s = fam.succ[at(e)];
      if (prev_[at(s)] < 0 || out > into_[at(s)]) {
        into_[at(s)] = out;
        prev_[at(s)] = u;
      }
    }
  }
  // Backward pass: the longest path from each node.
  for (auto it = fam.topo_order.rbegin(); it != fam.topo_order.rend(); ++it) {
    double best = 0.0;
    std::int32_t link = -1;
    for (std::int32_t e = fam.succ_begin[at(*it)];
         e < fam.succ_begin[at(*it) + 1]; ++e) {
      const std::int32_t s = fam.succ[at(e)];
      if (link < 0 || from_[at(s)] > best) {
        best = from_[at(s)];
        link = s;
      }
    }
    from_[at(*it)] = weight_[at(*it)] + best;
    next_[at(*it)] = link;
  }
}

// The family's rows read only lb(x) of the terms and ub(target), and tighten
// only ub(x) and lb(target), so one visit applies every row at once: row P
// has minimum activity L(P) - ub(target), where L(P) sums the node weights
// w(u) = sum a*lb(x) along P. Each bound below is the one process_constraint
// derives from the row of the longest path that bounds it, with the same
// rounding and tolerances.
bool Propagator::process_family(int f, Domains& domains,
                                PropagationStats& stats) {
  const PathFamily& fam = model_.family(f);
  longest_paths(fam, domains);
  std::int32_t root = -1;  // where the longest path starts
  for (std::int32_t u = 0; u < fam.num_nodes(); ++u) {
    if (prev_[at(u)] < 0 && (root < 0 || from_[at(u)] > from_[at(root)])) {
      root = u;
    }
  }
  const double longest = from_[at(root)];

  const VarId target = fam.target;
  const double cap = domains.ub(target);
  if (std::isfinite(cap) && longest - cap > tol_) {
    if (log_ != nullptr) log_->conflict_row = path_row(f, root);
    return false;
  }
  double bound = longest;
  if (model_.is_integral(target)) bound = std::ceil(bound - tol_);
  if (bound > domains.lb(target) + tol_ && domains.set_lb(target, bound) &&
      !tightened(log_ != nullptr ? path_row(f, root) : -1, target,
                 /*is_lb=*/true, domains, stats)) {
    return false;
  }
  if (!std::isfinite(cap)) return true;  // the terms' residuals are unbounded

  for (std::int32_t u = 0; u < fam.num_nodes(); ++u) {
    const double through = into_[at(u)] + from_[at(u)];
    // Each term's new ub lies (cap - through) / a above its lb: none moves
    // when the widest term at u fits in that slack.
    if (cap - through >= span_[at(u)]) continue;
    for (std::int32_t k = fam.term_begin[at(u)]; k < fam.term_begin[at(u) + 1];
         ++k) {
      const LinTerm& t = fam.terms[at(k)];
      // a*x <= ub(target) - (longest path through u without this term)
      double bound_x =
          (cap - (through - t.coef * domains.lb(t.var))) / t.coef;
      if (model_.is_integral(t.var)) bound_x = std::floor(bound_x + tol_);
      if (bound_x < domains.ub(t.var) - tol_ && domains.set_ub(t.var, bound_x) &&
          !tightened(log_ != nullptr ? path_row(f, u) : -1, t.var,
                     /*is_lb=*/false, domains, stats)) {
        return false;
      }
    }
  }
  return true;
}

// A path's rank in the family's path order is the number of paths that
// order puts before it: those from earlier roots and, at each step v -> s,
// those through the successors listed before s.
ConstraintId Propagator::path_row(int f, std::int32_t u) const {
  const PathFamily& fam = model_.family(f);
  const auto skipped = [&](std::int32_t v, std::int32_t s) {
    std::int64_t count = 0;
    for (std::int32_t e = fam.succ_begin[at(v)]; fam.succ[at(e)] != s; ++e) {
      count += fam.paths_from[at(fam.succ[at(e)])];
    }
    return count;
  };
  std::int64_t rank = 0;
  std::int32_t v = u;
  for (; prev_[at(v)] >= 0; v = prev_[at(v)]) rank += skipped(prev_[at(v)], v);
  rank += fam.first_path[at(v)];
  for (v = u; next_[at(v)] >= 0; v = next_[at(v)]) {
    rank += skipped(v, next_[at(v)]);
  }
  return fam.rows[rank];
}

}  // namespace sparcs::milp
