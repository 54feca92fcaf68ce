#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <system_error>
#include <thread>
#include <utility>

#include "milp/certificate.hpp"
#include "milp/checker.hpp"
#include "milp/compiled.hpp"
#include "milp/propagation.hpp"
#include "milp/simplex.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/logging.hpp"
#include "support/observer.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace sparcs::milp {
namespace {

/// Position of a subproblem in the depth-first order of the full tree: the
/// branch indices (trial order within each frame) leading from the root to
/// the subproblem. std::vector's lexicographic compare gives exactly the DFS
/// order, with a prefix ordering before its extensions (an ancestor region
/// still contains leaves on both sides of any of its descendants).
using Rank = std::vector<std::int32_t>;

/// Hard cap on recorded infeasibility-proof nodes (per worker and for the
/// merged proof). Past it the proof is flagged overflowed — the exact checker
/// refuses it and the verdict honestly stays uncertified — instead of letting
/// a pathological search exhaust memory on bookkeeping.
constexpr std::size_t kMaxProofNodes = 200'000;

/// Models under this many variables finish before helper threads spin up,
/// so they always get one worker.
constexpr int kParallelMinVars = 48;

/// One donated unit of work: a bounds box (the donor's propagation fixpoint
/// plus one untried branch) and the variable whose bound changed, so the
/// receiving worker can re-run seeded propagation exactly as the donor's own
/// DFS would have.
struct Subproblem {
  Rank rank;
  std::vector<double> lb, ub;
  VarId seed = -1;  ///< -1: root subproblem (full propagation)
  /// Telemetry search-tree id of the donor node (-1: root; unused while
  /// recording is off), so donated subtrees attach to their real parent.
  std::int64_t tree_parent = -1;
};

/// Shared state of one solve's worker pool: the rank-ordered subproblem
/// pool, the incumbent/candidate, global limits, and termination detection.
class WorkerPool {
 public:
  WorkerPool(const SolverParams& params, telemetry::LiveSolve* live,
                  bool first_feasible_mode, bool objective_flipped,
                  int num_workers)
      : params_(params),
        first_feasible_mode_(first_feasible_mode),
        objective_flipped_(objective_flipped),
        // A lone worker has nobody to donate to: copying its siblings' bound
        // vectors into the pool would only cost time.
        hungry_below_(num_workers > 1 ? 2 * num_workers : 0),
        live_(live) {}

  Stopwatch stopwatch;

  // ---- Subproblem pool --------------------------------------------------

  void push(Subproblem&& node) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A candidate already beats every leaf of this subtree: drop it.
      if (have_candidate_ && node.rank > candidate_rank_) return;
      Rank key = node.rank;
      open_.emplace(std::move(key), std::move(node));
      open_size_.store(static_cast<int>(open_.size()),
                       std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// Hands out the rank-smallest open subproblem. Blocks while the pool is
  /// empty but other workers may still donate; returns false once the solve
  /// is over (pool drained and all workers idle, limits hit, or stopped).
  /// Exhaustion is checked before the limits: a search that has already
  /// finished must not latch a limit on its way out.
  bool acquire(Subproblem& out) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (open_.empty() && active_ == 0) return false;
      if (global_limits_hit()) return false;
      if (!open_.empty()) {
        out = std::move(open_.begin()->second);
        open_.erase(open_.begin());
        open_size_.store(static_cast<int>(open_.size()),
                         std::memory_order_relaxed);
        ++active_;
        return true;
      }
      cv_.wait(lock);
    }
  }

  /// Declares the previously acquired subproblem finished.
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    // Waiters must re-check the exit condition even when no work appeared.
    cv_.notify_all();
  }

  /// True when workers should donate untried branches into the pool.
  [[nodiscard]] bool hungry() const {
    return open_size_.load(std::memory_order_relaxed) < hungry_below_;
  }

  /// Open-subproblem estimate for live telemetry (pool only; per-worker DFS
  /// stacks are not counted — this is a progress indicator, not an exact
  /// frontier size).
  [[nodiscard]] std::int64_t open_estimate() const {
    return open_size_.load(std::memory_order_relaxed);
  }

  /// Merged incumbent timeline of this solve (call after workers joined).
  [[nodiscard]] std::vector<ConvergenceEvent>&& take_convergence() {
    return std::move(convergence_);
  }

  // ---- Limits -----------------------------------------------------------

  void count_node() { total_nodes_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] std::int64_t total_nodes() const {
    return total_nodes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool global_limits_hit() const {
    return stop_requested_.load(std::memory_order_relaxed) ||
           budget_limits_hit();
  }

  /// True once any check has seen a budget/cancellation limit. The first
  /// sighting is latched, and the final status mapping reads the latch
  /// (limit_hit()) rather than the live conditions, so a cut-short search
  /// never reads as an exhausted one. The timeout failpoint fires here, the
  /// shared check every worker consults, so an injected timeout is
  /// classified exactly like a real one (and stays latched after it fired).
  [[nodiscard]] bool budget_limits_hit() const {
    if (limit_hit_.load(std::memory_order_relaxed)) return true;
    const bool hit = SPARCS_FAILPOINT("milp.solve.timeout") ||
                     total_nodes_.load(std::memory_order_relaxed) >=
                         params_.node_limit ||
                     params_.cancel.cancelled() ||
                     stopwatch.seconds() >= params_.time_limit_sec;
    if (hit) limit_hit_.store(true, std::memory_order_relaxed);
    return hit;
  }

  /// True when the run was cut short by a budget/cancellation limit rather
  /// than ending with the tree exhausted (call after workers joined).
  [[nodiscard]] bool limit_hit() const {
    return limit_hit_.load(std::memory_order_relaxed);
  }

  void request_stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
  }

  void flag_unbounded() {
    unbounded_.store(true, std::memory_order_relaxed);
    request_stop();
  }

  [[nodiscard]] bool unbounded() const {
    return unbounded_.load(std::memory_order_relaxed);
  }

  /// Marks the search as incomplete: some subtree was abandoned for a
  /// numerical/allocation reason, so an exhausted tree no longer proves
  /// infeasibility or optimality.
  void flag_incomplete() {
    incomplete_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool incomplete() const {
    return incomplete_.load(std::memory_order_relaxed);
  }

  // ---- First-feasible candidates ----------------------------------------
  // In first-feasible (and pure-feasibility) mode the winner is the
  // rank-smallest feasible leaf, which is exactly the solution a lone
  // worker's DFS returns; acceptance is therefore by rank, not by arrival
  // time.

  [[nodiscard]] std::uint64_t candidate_version() const {
    return candidate_version_.load(std::memory_order_acquire);
  }

  /// Copies the current best candidate rank; false when none exists yet.
  bool copy_candidate_rank(Rank* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!have_candidate_) return false;
    *out = candidate_rank_;
    return true;
  }

  /// Offers a feasible leaf; keeps it only when it precedes the current
  /// candidate in DFS order. Prunes now-beaten pool entries either way.
  bool offer_candidate(Rank rank, std::vector<double>&& values, double obj) {
    std::lock_guard<std::mutex> lock(mu_);
    if (have_candidate_ && !(rank < candidate_rank_)) return false;
    have_candidate_ = true;
    candidate_rank_ = std::move(rank);
    candidate_values_ = std::move(values);
    candidate_obj_ = obj;
    candidate_version_.fetch_add(1, std::memory_order_release);
    open_.erase(open_.upper_bound(candidate_rank_), open_.end());
    open_size_.store(static_cast<int>(open_.size()),
                     std::memory_order_relaxed);
    record_convergence_locked(obj);
    return true;
  }

  // ---- Shared incumbent (optimality mode) --------------------------------

  [[nodiscard]] double shared_best() const {
    return best_obj_.load(std::memory_order_relaxed);
  }

  /// Offers an improving incumbent (minimized-space objective). Ties on the
  /// objective are broken toward the DFS-smaller rank so repeated runs
  /// converge to the same solution where timing allows.
  bool offer_incumbent(Rank rank, std::vector<double>&& values, double obj) {
    std::lock_guard<std::mutex> lock(mu_);
    if (have_incumbent_ &&
        (obj > incumbent_obj_ ||
         (obj == incumbent_obj_ && !(rank < candidate_rank_)))) {
      return false;
    }
    have_incumbent_ = true;
    incumbent_obj_ = obj;
    candidate_rank_ = std::move(rank);
    candidate_values_ = std::move(values);
    best_obj_.store(obj, std::memory_order_relaxed);
    record_convergence_locked(obj);
    return true;
  }

  // ---- Infeasibility-proof fragments -------------------------------------
  // Workers deposit their recorded proof nodes here on exit; ranks never
  // collide because the pool hands every subproblem to exactly one worker
  // and each worker's DFS enters each of its ranks once.

  void contribute_proof(std::vector<ProofNode>&& nodes, bool overflowed) {
    std::lock_guard<std::mutex> lock(mu_);
    proof_overflowed_ = proof_overflowed_ || overflowed ||
                        proof_nodes_.size() + nodes.size() > kMaxProofNodes;
    if (!proof_overflowed_) {
      proof_nodes_.insert(proof_nodes_.end(),
                          std::make_move_iterator(nodes.begin()),
                          std::make_move_iterator(nodes.end()));
    }
  }

  /// Stitches the fragments into one proof (call after workers joined).
  [[nodiscard]] std::shared_ptr<const InfeasibilityProof> take_proof() {
    auto proof = std::make_shared<InfeasibilityProof>();
    proof->nodes = std::move(proof_nodes_);
    proof->overflowed = proof_overflowed_;
    return proof;
  }

  // ---- Result extraction (single-threaded, after join) -------------------

  [[nodiscard]] bool have_solution() const {
    return have_candidate_ || have_incumbent_;
  }
  [[nodiscard]] std::vector<double>&& take_values() {
    return std::move(candidate_values_);
  }
  [[nodiscard]] double solution_objective() const {
    return first_feasible_mode_ ? candidate_obj_ : incumbent_obj_;
  }

 private:
  /// Appends an accepted incumbent (minimized-space objective `obj`) to the
  /// solve's timeline and publishes it to the live telemetry slot. Caller
  /// holds mu_, which keeps the timeline time-ordered across workers.
  void record_convergence_locked(double obj) {
    const double caller_obj = objective_flipped_ ? -obj : obj;
    convergence_.push_back({stopwatch.seconds(), caller_obj, total_nodes()});
    if (live_ != nullptr) {
      live_->incumbent.store(caller_obj, std::memory_order_relaxed);
      live_->has_incumbent.store(true, std::memory_order_relaxed);
      live_->incumbent_updates.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const SolverParams& params_;
  const bool first_feasible_mode_;
  const bool objective_flipped_;
  const int hungry_below_;
  telemetry::LiveSolve* const live_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Rank, Subproblem> open_;
  int active_ = 0;
  std::atomic<int> open_size_{0};
  std::atomic<std::int64_t> total_nodes_{0};
  std::atomic<bool> stop_requested_{false};
  mutable std::atomic<bool> limit_hit_{false};  ///< see budget_limits_hit()
  std::atomic<bool> unbounded_{false};
  std::atomic<bool> incomplete_{false};

  // Candidate (first-feasible mode) / incumbent (optimality mode); both use
  // candidate_rank_/candidate_values_ for storage.
  bool have_candidate_ = false;
  bool have_incumbent_ = false;
  Rank candidate_rank_;
  std::vector<double> candidate_values_;
  double candidate_obj_ = 0.0;
  double incumbent_obj_ = kInfinity;
  std::atomic<double> best_obj_{kInfinity};
  std::atomic<std::uint64_t> candidate_version_{0};
  std::vector<ConvergenceEvent> convergence_;  ///< under mu_
  std::vector<ProofNode> proof_nodes_;         ///< under mu_
  bool proof_overflowed_ = false;              ///< under mu_
};

/// The LP relaxation of one node, folded to what the node box leaves open:
/// a column per variable whose domain is not a single point, the fixed
/// variables moved into the rhs (and into `offset` when the LP carries the
/// objective), and a row per model row the box does not already satisfy.
struct FoldedLp {
  LpProblem lp;
  std::vector<VarId> cols;         ///< model variable of each LP column
  std::vector<ConstraintId> rows;  ///< model row of each LP row
  double offset = 0.0;             ///< objective value of the fixed variables
};

/// One open decision in the DFS stack.
struct Frame {
  VarId var = -1;
  /// Position of `var` in the branch order. Every integral variable before
  /// it is fixed in all of the frame's subtrees, so their nodes resume the
  /// scan for a branch variable here.
  std::size_t order_pos = 0;
  /// Branches as [lb, ub] boxes to impose on `var`, tried in order.
  std::vector<std::pair<double, double>> branches;
  std::size_t next = 0;
  std::size_t trail_mark = 0;
};

/// One worker of the pool: private domains, propagator (with this worker's
/// objective cutoff) and DFS stack over the solve's shared compiled model.
class BnbSearch {
 public:
  BnbSearch(const Model& model, const CompiledModel& compiled,
            const SolverParams& params, WorkerPool& pool,
            telemetry::LiveSolve* live)
      : params_(params),
        pool_(pool),
        compiled_(compiled),
        domains_(compiled_),
        propagator_(compiled_, params.feasibility_tol,
                    params.max_propagation_rounds),
        model_(model),
        live_(live),
        tree_(current_observer() != nullptr ? current_observer()->tree()
                                            : nullptr),
        proof_on_(params.certify == CertifyMode::kFull) {
    if (proof_on_) propagator_.set_log(&prop_log_);
  }

  /// Drains the shared pool until the solve is over.
  void run_worker();

  /// Totals of this worker, finalized by run_worker().
  [[nodiscard]] const SolverStats& worker_stats() const { return stats_; }

 private:
  /// Position in the branch order of the first unfixed integral variable at
  /// or after position `from`, or the order's size when every one is fixed.
  std::size_t pick_branch_pos(std::size_t from) const;
  std::vector<std::pair<double, double>> make_branches(VarId v) const;
  /// Completes continuous variables by LP. Returns true when a feasible
  /// completion exists and fills `candidate`; `unbounded` reports an
  /// unbounded continuous objective.
  bool complete_continuous(std::vector<double>& candidate, bool* unbounded);
  /// The folded LP relaxation under the current domains, with the model
  /// objective or a zero one. A row every point of the box satisfies (within
  /// the feasibility tolerance) is dropped, as is the cutoff row while it is
  /// inactive (infinite rhs): dropping rows only relaxes the LP, so an
  /// infeasible verdict stays sound.
  FoldedLp fold_node_lp(bool with_objective) const;
  /// Keeps an infeasible node LP's certificate for the node's proof leaf, in
  /// model coordinates: the ray stays over `node.rows`, and a kEmptyBound
  /// column becomes its model variable.
  void stash_lp_certificate(const LpCertificate& certificate, FoldedLp& node);
  /// LP-relaxation feasibility probe under the current domains.
  bool lp_prune();
  /// Handles a fully integral node. Returns true when the subtree is done.
  bool handle_leaf();
  /// Offers a checked feasible leaf to the pool as candidate/incumbent.
  void record_incumbent(std::vector<double> values);
  /// Takes `obj` as this worker's incumbent and tightens the cutoff row.
  void adopt_incumbent(double obj);
  bool limits_hit() const { return pool_.global_limits_hit(); }
  void absorb_lp(const LpResult& lp_result);
  /// LP parameters for in-node solves: wires the global limits into the
  /// simplex abort hook, so a deadline/cancel unwinds from inside a long LP
  /// run instead of waiting for the next node boundary.
  LpParams node_lp_params() const;
  /// Marks the search incomplete (a subtree was dropped for a numerical or
  /// allocation reason): exhaustion no longer proves infeasibility.
  void mark_incomplete() { pool_.flag_incomplete(); }
  void search_loop();
  /// Enters the child that branch box [lo, hi] on `v` selects: imposes the
  /// box and propagates from the bounds of `v` it moved. On a refutation
  /// (empty box or conflict) records the proof leaf, the pruned count and the
  /// search-tree node, and returns false. A donated subproblem enters
  /// through here as well.
  bool enter(VarId v, double lo, double hi);
  /// Search-tree record of a node at the current position, entered through
  /// [lo, hi] on `var` (-1: the root), under a freshly drawn id.
  telemetry::TreeNode tree_node(VarId var, double lo, double hi) const;
  /// Pushes every untried branch but the first into the pool; `tree_id` is
  /// the frame owner's search-tree id (the donated subtrees' parent).
  void donate_siblings(Frame& frame, std::int64_t tree_id);
  void sync_shared_incumbent();
  /// Pushes per-worker node/LP-iteration deltas and the open-node count into
  /// the live telemetry slot (called every kLivePublishPeriod nodes).
  void publish_live();
  /// Solves one root LP with the true objective and publishes the resulting
  /// dual bound to the live slot only. Only runs while a live telemetry slot
  /// is attached (costs one extra LP, which the solver stats do not count).
  void publish_root_bound();
  bool position_pruned();
  bool first_feasible_mode() const {
    return params_.stop_at_first_feasible ||
           compiled_.objective_terms().empty();
  }

  // ---- Infeasibility-proof recording (active when certify == kFull) ------

  /// Appends a proof node (respecting the size cap).
  void record_proof_node(ProofNode&& node) {
    if (!proof_on_) return;
    if (proof_nodes_.size() >= kMaxProofNodes) {
      proof_overflowed_ = true;
      return;
    }
    proof_nodes_.push_back(std::move(node));
  }
  /// Moves the entry-propagation derivations of the current node out of the
  /// staging slot (they were parked there by the propagate call that entered
  /// the node).
  [[nodiscard]] std::vector<Derivation> take_pending_derivations() {
    return std::move(pending_derivations_);
  }
  /// Parks a successful propagate() call's derivations for the node it just
  /// entered, and resets the log for the next call. The log keeps its
  /// capacity, so the node's copy is the one allocation per node.
  void stage_propagation_log() {
    if (!proof_on_) return;
    pending_derivations_.assign(prop_log_.derivations.begin(),
                                prop_log_.derivations.end());
    prop_log_.clear();
  }
  /// Records the refutation of a node whose entry propagate() failed, using
  /// the partial derivation trace plus the conflict the log captured.
  void record_conflict_leaf() {
    if (!proof_on_) return;
    ProofNode node;
    node.rank = rank_;
    node.kind = ProofNode::Kind::kConflict;
    node.derivations.assign(prop_log_.derivations.begin(),
                            prop_log_.derivations.end());
    node.conflict_row = prop_log_.conflict_row;
    node.conflict_var = prop_log_.conflict_var;
    prop_log_.clear();
    if (SPARCS_FAILPOINT("milp.certify.corrupt_proof")) {
      // Strip the leaf's refutation: the exact checker rejects a leaf that
      // carries no certificate, demoting the whole verdict to uncertified —
      // the fault-injection hook for propagation-refuted infeasibilities
      // (milp.certify.corrupt_ray covers the LP-refuted ones).
      node.kind = ProofNode::Kind::kUnproven;
    }
    record_proof_node(std::move(node));
  }
  /// Records the refutation of the current node from an infeasible LP
  /// (completion or prune), translating the stashed LP certificate.
  void record_lp_leaf() {
    if (!proof_on_) return;
    ProofNode node;
    node.rank = rank_;
    node.derivations = take_pending_derivations();
    switch (lp_cert_.kind) {
      case LpCertificate::Kind::kFarkas:
        node.kind = ProofNode::Kind::kFarkas;
        node.rows = std::move(lp_cert_rows_);
        node.y = std::move(lp_cert_.y);
        break;
      case LpCertificate::Kind::kEmptyBound:
        node.kind = ProofNode::Kind::kEmptyBox;
        node.var = lp_cert_.var;
        break;
      case LpCertificate::Kind::kNone:
        node.kind = ProofNode::Kind::kUnproven;
        break;
    }
    record_proof_node(std::move(node));
  }
  /// Stops recording once an incumbent exists: the final status can no
  /// longer be kInfeasible, so the proof would be dead weight.
  void drop_proof_recording() {
    if (!proof_on_) return;
    proof_on_ = false;
    propagator_.set_log(nullptr);
    proof_nodes_.clear();
    pending_derivations_.clear();
    prop_log_.clear();
  }

  const SolverParams& params_;
  WorkerPool& pool_;
  const CompiledModel& compiled_;
  Domains domains_;
  Propagator propagator_;
  const Model& model_;
  PropagationStats prop_stats_;
  SolverStats stats_;
  std::vector<Frame> stack_;
  /// This worker's DFS position, the rank of the node being processed: the
  /// subproblem's rank, then the branch index applied at each stack frame.
  Rank rank_;
  std::size_t base_depth_ = 0;  ///< length of the subproblem's rank
  std::uint64_t seen_candidate_version_ = ~std::uint64_t{0};
  Rank candidate_rank_copy_;
  bool have_candidate_copy_ = false;
  double incumbent_obj_ = kInfinity;
  bool have_incumbent_ = false;
  std::int64_t nodes_ = 0;
  bool stop_ = false;

  // -- telemetry (all inert unless live_ / tree_ are set) ------------------
  telemetry::LiveSolve* live_ = nullptr;  ///< live slot; null = off
  /// The run's search tree; null = not recording. Cached once per search.
  telemetry::SearchTree* const tree_;
  /// Search-tree parent of this (sub)tree's base node.
  std::int64_t tree_parent_ = -1;
  /// Owner node id of each open frame; parallel to stack_ while tree_ is set.
  std::vector<std::int64_t> frame_node_ids_;
  /// Branch applied to enter the node about to descend (var -1: root).
  struct {
    VarId var = -1;
    double lo = 0.0, hi = 0.0;
  } last_branch_;
  /// High-water marks of what was already pushed into live_ (deltas only,
  /// so per-worker counters aggregate correctly across threads).
  std::int64_t live_pub_nodes_ = 0;
  std::int64_t live_pub_lp_iters_ = 0;

  // -- infeasibility-proof recording (inert unless proof_on_) --------------
  bool proof_on_ = false;
  DerivationLog prop_log_;
  /// Entry-propagation derivations of the node being processed, parked
  /// between the propagate() call that entered it and its proof record.
  std::vector<Derivation> pending_derivations_;
  std::vector<ProofNode> proof_nodes_;
  bool proof_overflowed_ = false;
  /// LP certificate stash of the most recent infeasible in-node LP solve,
  /// in model coordinates (see stash_lp_certificate).
  LpCertificate lp_cert_;
  std::vector<ConstraintId> lp_cert_rows_;  ///< model row of each LP row
  /// True when the current leaf's continuous completion LP was infeasible
  /// (set by complete_continuous, consumed by handle_leaf).
  bool lp_refuted_ = false;

  /// Live-slot publish period in nodes (power of two, used as a mask).
  static constexpr std::int64_t kLivePublishPeriod = 256;

  /// Allocation failures tolerated (with node rollback) before giving up.
  static constexpr std::int64_t kMaxAllocationFailures = 16;
};

std::size_t BnbSearch::pick_branch_pos(std::size_t from) const {
  const std::vector<VarId>& order = compiled_.branch_order();
  for (; from < order.size(); ++from) {
    const VarId v = order[from];
    if (domains_.ub(v) - domains_.lb(v) >= 0.5) break;
  }
  return from;
}

std::vector<std::pair<double, double>> BnbSearch::make_branches(VarId v) const {
  const double lo = domains_.lb(v);
  const double hi = domains_.ub(v);
  std::vector<std::pair<double, double>> branches;
  const double span = hi - lo;
  if (span <= 8.5) {
    // Enumerate values, branch hint first, then from the top down (for the
    // 0/1 assignment variables of the partitioning model "try 1 first"
    // makes the DFS behave like a greedy constructor).
    double hint = compiled_.branch_hint(v);
    std::vector<double> values;
    if (std::isfinite(hint)) {
      hint = std::round(hint);
      if (hint >= lo && hint <= hi) values.push_back(hint);
    }
    for (double x = hi; x >= lo - 0.5; x -= 1.0) {
      if (values.empty() || std::round(x) != values.front()) {
        values.push_back(std::round(x));
      }
    }
    branches.reserve(values.size());
    for (const double x : values) branches.emplace_back(x, x);
  } else {
    const double mid = std::floor((lo + hi) / 2.0);
    branches.emplace_back(lo, mid);
    branches.emplace_back(mid + 1.0, hi);
  }
  return branches;
}

FoldedLp BnbSearch::fold_node_lp(bool with_objective) const {
  FoldedLp node;
  const int n = compiled_.num_vars();
  std::vector<int> col(static_cast<std::size_t>(n), -1);  ///< -1: fixed
  for (VarId v = 0; v < n; ++v) {
    if (domains_.lb(v) != domains_.ub(v)) {
      col[static_cast<std::size_t>(v)] =
          node.lp.add_var(0.0, domains_.lb(v), domains_.ub(v));
      node.cols.push_back(v);
    }
  }
  if (with_objective) {
    for (const LinTerm& t : compiled_.objective_terms()) {
      const int j = col[static_cast<std::size_t>(t.var)];
      if (j >= 0) {
        node.lp.obj[static_cast<std::size_t>(j)] += t.coef;
      } else {
        node.offset += t.coef * domains_.lb(t.var);
      }
    }
  }
  const double tol = params_.feasibility_tol;
  for (int c = 0; c < compiled_.num_constraints(); ++c) {
    const CompiledConstraint& cc = compiled_.constraint(c);
    double rhs = propagator_.row_rhs(c);
    if (!std::isfinite(rhs)) continue;  // inactive cutoff
    const double* coefs = compiled_.coefs(cc);
    const VarId* vars = compiled_.vars(cc);
    std::vector<LinTerm> terms;
    // Activity range of the open part of the row over the box (an infinite
    // bound makes it infinite, and the row is kept).
    double min_act = 0.0, max_act = 0.0;
    for (int k = 0; k < compiled_.size(cc); ++k) {
      const VarId v = vars[k];
      const double a = coefs[k];
      const int j = col[static_cast<std::size_t>(v)];
      if (j >= 0) {
        terms.push_back({j, a});
        min_act += a * (a > 0.0 ? domains_.lb(v) : domains_.ub(v));
        max_act += a * (a > 0.0 ? domains_.ub(v) : domains_.lb(v));
      } else {
        rhs -= a * domains_.lb(v);
      }
    }
    bool satisfied = false;
    switch (cc.sense) {
      case Sense::kLessEqual:
        satisfied = max_act <= rhs + tol;
        break;
      case Sense::kGreaterEqual:
        satisfied = min_act >= rhs - tol;
        break;
      case Sense::kEqual:
        satisfied = max_act <= rhs + tol && min_act >= rhs - tol;
        break;
    }
    if (!satisfied) {
      node.lp.add_row(std::move(terms), cc.sense, rhs);
      node.rows.push_back(c);
    }
  }
  return node;
}

void BnbSearch::stash_lp_certificate(const LpCertificate& certificate,
                                     FoldedLp& node) {
  if (!proof_on_) return;
  // Folding moved only the fixed variables' share into the rhs: the exact
  // checker rebuilds each named row in full over the node box, where a
  // folded variable's box is its fixed value.
  lp_cert_ = certificate;
  lp_cert_rows_ = std::move(node.rows);
  if (lp_cert_.kind == LpCertificate::Kind::kEmptyBound) {
    if (lp_cert_.var >= 0 &&
        lp_cert_.var < static_cast<int>(node.cols.size())) {
      lp_cert_.var = node.cols[static_cast<std::size_t>(lp_cert_.var)];
    } else {
      lp_cert_.kind = LpCertificate::Kind::kNone;
    }
  }
}

bool BnbSearch::complete_continuous(std::vector<double>& candidate,
                                    bool* unbounded) {
  *unbounded = false;
  const int n = compiled_.num_vars();
  candidate.resize(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    candidate[static_cast<std::size_t>(v)] = domains_.lb(v);
  }
  // At a leaf every integral variable is fixed, so the LP's columns are the
  // continuous variables the box leaves open.
  FoldedLp node = fold_node_lp(/*with_objective=*/true);
  if (node.lp.num_vars() == 0) return true;  // nothing to complete

  const LpResult lp_result = solve_lp(node.lp, node_lp_params());
  absorb_lp(lp_result);
  switch (lp_result.status) {
    case LpStatus::kOptimal:
      break;
    case LpStatus::kInfeasible:
      lp_refuted_ = true;
      stash_lp_certificate(lp_result.certificate, node);
      return false;
    case LpStatus::kUnbounded:
      *unbounded = true;
      return false;
    case LpStatus::kIterationLimit:
    case LpStatus::kNumericalFailure:
      // No completion found, but none ruled out either: the leaf's subregion
      // was not fully explored, so exhaustion no longer proves infeasibility.
      mark_incomplete();
      return false;
  }
  for (std::size_t j = 0; j < node.cols.size(); ++j) {
    candidate[static_cast<std::size_t>(node.cols[j])] = lp_result.x[j];
  }
  return true;
}

bool BnbSearch::lp_prune() {
  FoldedLp node = fold_node_lp(/*with_objective=*/false);
  const LpResult lp_result = solve_lp(node.lp, node_lp_params());
  absorb_lp(lp_result);
  if (lp_result.status == LpStatus::kInfeasible) {
    stash_lp_certificate(lp_result.certificate, node);
  }
  // kNumericalFailure (recovery exhausted) keeps the node: skipping the LP
  // prune is always sound, just slower.
  return lp_result.status != LpStatus::kInfeasible;  // true = keep node
}

void BnbSearch::absorb_lp(const LpResult& lp_result) {
  ++stats_.simplex_calls;
  stats_.simplex_iterations += lp_result.iterations;
  stats_.simplex_pivots += lp_result.pivots;
  stats_.simplex_refactorizations += lp_result.refactorizations;
  stats_.lp_recoveries += lp_result.recoveries;
  if (lp_result.status == LpStatus::kNumericalFailure) {
    ++stats_.numerical_failures;
  }
}

LpParams BnbSearch::node_lp_params() const {
  LpParams lp;
  lp.should_abort = [this] { return limits_hit(); };
  lp.want_certificate = proof_on_;
  if (params_.distrust) {
    // Certification retry: Bland's rule from the first iteration and
    // tightened tolerances — slower, but the numerically cautious pivoting
    // usually makes the re-extracted certificates verify exactly.
    lp.stall_threshold = 0;
    lp.feasibility_tol = std::min(lp.feasibility_tol, 1e-9);
    lp.optimality_tol = std::min(lp.optimality_tol, 1e-9);
  }
  return lp;
}

void BnbSearch::publish_live() {
  if (live_ == nullptr) return;
  live_->nodes.fetch_add(nodes_ - live_pub_nodes_, std::memory_order_relaxed);
  live_pub_nodes_ = nodes_;
  live_->lp_iterations.fetch_add(
      stats_.simplex_iterations - live_pub_lp_iters_,
      std::memory_order_relaxed);
  live_pub_lp_iters_ = stats_.simplex_iterations;
  live_->open_nodes.store(
      pool_.open_estimate() + static_cast<std::int64_t>(stack_.size()),
      std::memory_order_relaxed);
}

void BnbSearch::publish_root_bound() {
  if (live_ == nullptr || !params_.use_lp_bounding ||
      compiled_.objective_terms().empty()) {
    return;
  }
  // The LP is the observer's, not the solve's: it is not absorbed into the
  // solver stats, so a sampled run counts what an unobserved one does.
  const FoldedLp node = fold_node_lp(/*with_objective=*/true);
  const LpResult lp_result = solve_lp(node.lp, node_lp_params());
  if (lp_result.status != LpStatus::kOptimal) return;
  const double bound = lp_result.objective + node.offset;
  live_->best_bound.store(compiled_.objective_flipped() ? -bound : bound,
                          std::memory_order_relaxed);
  live_->has_bound.store(true, std::memory_order_relaxed);
}

void BnbSearch::record_incumbent(std::vector<double> values) {
  // Whether or not this offer wins the race, some worker holds a feasible
  // point, so the solve can no longer end kInfeasible: stop recording.
  drop_proof_recording();
  double obj = 0.0;
  for (const LinTerm& t : compiled_.objective_terms()) {
    obj += t.coef * values[static_cast<std::size_t>(t.var)];
  }
  SPARCS_DLOG << "incumbent objective " << obj << " at node " << nodes_;
  if (first_feasible_mode()) {
    if (pool_.offer_candidate(rank_, std::move(values), obj)) {
      ++stats_.incumbent_updates;
    }
    // Every remaining leaf of this subproblem follows the one just found in
    // DFS order, so whether or not the offer won, this subtree is done.
    stop_ = true;
    return;
  }
  if (have_incumbent_ && obj >= incumbent_obj_) return;
  if (pool_.offer_incumbent(rank_, std::move(values), obj)) {
    ++stats_.incumbent_updates;
    adopt_incumbent(obj);
  } else {
    sync_shared_incumbent();  // someone else got there first
  }
}

void BnbSearch::adopt_incumbent(double obj) {
  incumbent_obj_ = obj;
  have_incumbent_ = true;
  if (compiled_.has_cutoff_row()) {
    propagator_.set_cutoff(obj - params_.objective_improvement);
  }
}

void BnbSearch::sync_shared_incumbent() {
  if (first_feasible_mode()) return;
  const double best = pool_.shared_best();
  if (best < incumbent_obj_) adopt_incumbent(best);
}

bool BnbSearch::position_pruned() {
  const std::uint64_t version = pool_.candidate_version();
  if (version != seen_candidate_version_) {
    seen_candidate_version_ = version;
    have_candidate_copy_ = pool_.copy_candidate_rank(&candidate_rank_copy_);
  }
  // DFS never revisits earlier ranks, so once this worker's position passes
  // the candidate every leaf it could still reach is DFS-later: abandon.
  // A position that is a prefix of the candidate compares smaller (its
  // subtree still holds leaves preceding the candidate) and keeps running.
  return have_candidate_copy_ && rank_ > candidate_rank_copy_;
}

bool BnbSearch::handle_leaf() {
  std::vector<double> candidate;
  bool unbounded = false;
  lp_refuted_ = false;
  if (complete_continuous(candidate, &unbounded)) {
    if (SPARCS_FAILPOINT("milp.bnb.corrupt_leaf") && !candidate.empty()) {
      // Simulates a wrong completion (the failure the checker gate exists
      // for); the corrupted candidate must be rejected, never returned.
      candidate[0] += 1e3;
    }
    // Exact final check guards against tolerance drift across propagation.
    // Every accepted incumbent passes through here, so a numerically wrong
    // completion is rejected (and counted) rather than returned.
    if (check_solution(model_, candidate, 1e2 * params_.feasibility_tol)
            .ok) {
      record_incumbent(std::move(candidate));
    } else {
      ++stats_.checker_rejections;
      mark_incomplete();
      SPARCS_WLOG << "rejected checker-invalid completion at node " << nodes_;
    }
  } else if (unbounded && !have_incumbent_) {
    pool_.flag_unbounded();
    stop_ = true;
  } else if (!unbounded && lp_refuted_) {
    // Integral leaf with no continuous completion: the stashed LP
    // certificate becomes this leaf's refutation.
    record_lp_leaf();
  }
  return stop_;
}

void BnbSearch::donate_siblings(Frame& frame, std::int64_t tree_id) {
  // The domains currently sit at this frame's pre-branch fixpoint, so a
  // plain bounds snapshot plus one branch box reproduces exactly the state
  // this worker's DFS would enter that branch with.
  const int n = compiled_.num_vars();
  std::vector<double> lb(static_cast<std::size_t>(n));
  std::vector<double> ub(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    lb[static_cast<std::size_t>(v)] = domains_.lb(v);
    ub[static_cast<std::size_t>(v)] = domains_.ub(v);
  }
  for (std::size_t j = 1; j < frame.branches.size(); ++j) {
    Subproblem node;
    node.rank = rank_;
    node.rank.push_back(static_cast<std::int32_t>(j));
    node.lb = lb;
    node.ub = ub;
    const auto [blo, bhi] = frame.branches[j];
    const auto var = static_cast<std::size_t>(frame.var);
    node.lb[var] = std::max(node.lb[var], blo);
    node.ub[var] = std::min(node.ub[var], bhi);
    node.seed = frame.var;
    node.tree_parent = tree_id;
    pool_.push(std::move(node));
  }
  frame.branches.resize(1);
}

telemetry::TreeNode BnbSearch::tree_node(VarId var, double lo,
                                         double hi) const {
  telemetry::TreeNode node;
  node.id = tree_->next_id();
  node.parent = frame_node_ids_.empty() ? tree_parent_ : frame_node_ids_.back();
  node.depth = static_cast<std::int32_t>(rank_.size());
  node.branch_var = var;
  node.branch_lb = lo;
  node.branch_ub = hi;
  return node;
}

bool BnbSearch::enter(VarId v, double lo, double hi) {
  bool lb_moved = domains_.set_lb(v, lo);
  bool ub_moved = domains_.set_ub(v, hi);
  // A donated subproblem arrives with its branch box already seated, so no
  // bound moves here: it propagates from both of v's bounds.
  if (!lb_moved && !ub_moved) lb_moved = ub_moved = true;
  const bool empty_box = domains_.lb(v) > domains_.ub(v);
  if (!empty_box && propagator_.propagate(domains_, {v}, prop_stats_,
                                          lb_moved, ub_moved)) {
    stage_propagation_log();
    last_branch_ = {v, lo, hi};
    return true;
  }
  if (proof_on_ && empty_box) {
    // The branch box itself was empty: no propagation ran, the emptiness at
    // the branch variable is the whole refutation.
    ProofNode leaf;
    leaf.rank = rank_;
    leaf.kind = ProofNode::Kind::kEmptyBox;
    leaf.var = v;
    record_proof_node(std::move(leaf));
  } else {
    record_conflict_leaf();
  }
  ++stats_.nodes_pruned_infeasible;
  if (tree_ != nullptr) {
    // The refuted node never descends, so its record is created here.
    telemetry::TreeNode node = tree_node(v, lo, hi);
    node.kind = telemetry::NodeKind::kPrunedInfeasible;
    tree_->record(node);
  }
  return false;
}

void BnbSearch::search_loop() {
  const bool lp_bounding =
      params_.use_lp_bounding &&
      compiled_.num_vars() <= kLpBoundingMaxVars;

  // DFS over decision frames. `descend` signals that the current domains may
  // hold new work (fresh node); false means resume the top frame.
  bool descend = true;
  while (!stop_) {
    if (limits_hit()) break;
    if (descend) {
      ++nodes_;
      pool_.count_node();
      sync_shared_incumbent();
      if (position_pruned()) break;
      if (live_ != nullptr && (nodes_ % kLivePublishPeriod) == 0) {
        publish_live();
      }
      // Search-tree record of this node: classified at whichever exit the
      // node takes below; interior nodes become the parent of their frame's
      // branches.
      telemetry::TreeNode tnode;
      bool tnode_recorded = false;
      if (tree_ != nullptr) {
        tnode = tree_node(last_branch_.var, last_branch_.lo, last_branch_.hi);
      }
      // Node body under an allocation guard: on bad_alloc the node is rolled
      // back (its subtree dropped, the search marked incomplete) and the DFS
      // resumes with the siblings, up to kMaxAllocationFailures times.
      try {
        if (SPARCS_FAILPOINT("milp.bnb.alloc_fail")) throw std::bad_alloc();
        // The subproblem's first node scans from the start: a donated box
        // carries no scan position.
        const std::size_t pos =
            pick_branch_pos(stack_.empty() ? 0 : stack_.back().order_pos);
        if (pos == compiled_.branch_order().size()) {
          const std::int64_t rejections_before = stats_.checker_rejections;
          const bool stop_now = handle_leaf();
          if (tree_ != nullptr) {
            tnode.kind = stats_.checker_rejections > rejections_before
                             ? telemetry::NodeKind::kRejected
                             : telemetry::NodeKind::kIntegral;
            tree_->record(tnode);
          }
          if (stop_now) break;
          descend = false;  // backtrack to explore alternatives
          continue;
        }
        if (lp_bounding && !lp_prune()) {
          ++stats_.nodes_pruned_by_bound;
          // Without an incumbent the prune can only come from an infeasible
          // relaxation, so the stashed LP certificate refutes this node.
          record_lp_leaf();
          if (tree_ != nullptr) {
            tnode.kind = telemetry::NodeKind::kPrunedBound;
            tree_->record(tnode);
          }
          descend = false;
          continue;
        }
        const VarId v = compiled_.branch_order()[pos];
        Frame frame;
        frame.var = v;
        frame.order_pos = pos;
        frame.branches = make_branches(v);
        frame.trail_mark = domains_.checkpoint();
        if (proof_on_) {
          // Interior node: its branch list (recorded before any donation
          // trims it) is the coverage obligation the checker verifies.
          ProofNode inode;
          inode.rank = rank_;
          inode.kind = ProofNode::Kind::kBranched;
          inode.derivations = take_pending_derivations();
          inode.var = v;
          inode.branches = frame.branches;
          record_proof_node(std::move(inode));
        }
        if (frame.branches.size() > 1 && pool_.hungry()) {
          donate_siblings(frame, tnode.id);
        }
        if (tree_ != nullptr) {
          // Record (and register as owner) before the stack pushes: a push
          // failure below leaves a childless "branched" record, which the
          // dump-time fixup relabels as "budget".
          tnode.kind = telemetry::NodeKind::kBranched;
          tree_->record(tnode);
          tnode_recorded = true;
          frame_node_ids_.push_back(tnode.id);
        }
        rank_.push_back(-1);  // the frame's branch index, set as each applies
        stack_.push_back(std::move(frame));
      } catch (const std::bad_alloc&) {
        // Re-pair the position with the frame stack (a frame push that threw
        // left no frame; the domains are still at this node's fixpoint).
        rank_.resize(base_depth_ + stack_.size());
        if (tree_ != nullptr) {
          // Re-pair the owner-id vector with the frame stack, then record
          // the dropped node with its real reason (unless already recorded).
          while (frame_node_ids_.size() > stack_.size()) {
            frame_node_ids_.pop_back();
          }
          if (!tnode_recorded) {
            tnode.kind = telemetry::NodeKind::kBudget;
            tree_->record(tnode);
          }
        }
        ++stats_.allocation_failures;
        mark_incomplete();
        SPARCS_WLOG << "allocation failure at node " << nodes_
                    << "; dropping subtree ("
                    << stats_.allocation_failures << "/"
                    << kMaxAllocationFailures << ")";
        if (stats_.allocation_failures >= kMaxAllocationFailures) {
          stop_ = true;
          break;
        }
        descend = false;
        continue;
      }
      stats_.max_depth =
          std::max(stats_.max_depth, static_cast<std::int64_t>(rank_.size()));
    }

    // Try the next branch of the top frame; pop exhausted frames.
    if (stack_.empty()) break;
    Frame& top = stack_.back();
    domains_.rollback(top.trail_mark);
    if (top.next >= top.branches.size()) {
      stack_.pop_back();
      rank_.pop_back();
      if (tree_ != nullptr && !frame_node_ids_.empty()) frame_node_ids_.pop_back();
      descend = false;
      continue;
    }
    const auto [blo, bhi] = top.branches[top.next];
    rank_.back() = static_cast<std::int32_t>(top.next++);
    // A refuted branch stays on this frame: its next branch is tried next.
    descend = enter(top.var, blo, bhi);
  }
}

void BnbSearch::run_worker() {
  Subproblem node;
  while (pool_.acquire(node)) {
    double stall_sec = 0.0;
    if (SPARCS_FAILPOINT_STALL("milp.bnb.worker_stall", &stall_sec) &&
        stall_sec > 0.0) {
      // Simulates a wedged worker; the other workers and the time limit
      // must still terminate the solve once it wakes.
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_sec));
    }
    rank_ = std::move(node.rank);
    base_depth_ = rank_.size();
    stack_.clear();
    stop_ = false;
    seen_candidate_version_ = ~std::uint64_t{0};
    have_candidate_copy_ = false;
    if (tree_ != nullptr) {
      frame_node_ids_.clear();
      tree_parent_ = node.tree_parent;
    }
    sync_shared_incumbent();

    bool ok = false;
    if (node.seed >= 0) {
      // A donated subproblem is entered exactly as its donor's DFS would
      // have entered it: from the donor's fixpoint, through the branch box.
      domains_.reset_to(node.lb, node.ub);
      const auto seed = static_cast<std::size_t>(node.seed);
      ok = enter(node.seed, node.lb[seed], node.ub[seed]);
    } else {
      // The root subproblem carries no box: it is the first one any worker
      // acquires, so the domains still hold the compiled model's bounds (and
      // last_branch_ its "no branch" default). Its full propagation is the
      // solver's presolve.
      ok = propagator_.propagate(domains_, {}, prop_stats_);
      if (ok) {
        stage_propagation_log();
      } else {
        record_conflict_leaf();
      }
      stats_.presolve_bounds_tightened = prop_stats_.bounds_tightened;
      stats_.presolve_vars_fixed = prop_stats_.vars_fixed;
      if (ok) publish_root_bound();
    }
    if (ok) search_loop();
    pool_.release();
  }
  publish_live();  // final flush of this worker's deltas
  if (params_.certify == CertifyMode::kFull) {
    // Merge this worker's proof fragment (empty when recording was dropped;
    // harmless, since an incumbent rules out an infeasible verdict anyway).
    pool_.contribute_proof(std::move(proof_nodes_), proof_overflowed_);
  }
  stats_.nodes_explored = nodes_;
  stats_.propagated_constraints = prop_stats_.constraints_processed;
  stats_.bounds_tightened = prop_stats_.bounds_tightened;
  stats_.vars_fixed = prop_stats_.vars_fixed;
  stats_.conflicts = prop_stats_.conflicts;
}

}  // namespace

int worker_count(int num_threads, int num_vars, unsigned hardware_threads) {
  if (num_threads == 1 || num_vars < kParallelMinVars) return 1;
  const int hardware = static_cast<int>(std::max(hardware_threads, 1u));
  return num_threads > 0 ? std::min(num_threads, hardware) : hardware;
}

MilpSolution solve_branch_and_bound(const Model& model,
                                    const SolverParams& params,
                                    telemetry::LiveSolve* live) {
  const CompiledModel compiled(model, /*with_objective_cutoff=*/
                               model.has_objective());
  return solve_branch_and_bound(model, compiled, params, live);
}

MilpSolution solve_branch_and_bound(const Model& model,
                                    const CompiledModel& compiled,
                                    const SolverParams& params,
                                    telemetry::LiveSolve* live) {
  // The hardware thread count costs a file read, and only a solve that
  // may run more than one worker needs it.
  const bool may_fan_out =
      params.num_threads != 1 && model.num_vars() >= kParallelMinVars;
  const int num_workers = worker_count(
      params.num_threads, model.num_vars(),
      may_fan_out ? std::thread::hardware_concurrency() : 1u);
  // Mode flags must be known before workers start (the objective is already
  // normalized, so its terms are exactly the compiled ones).
  const bool has_terms =
      model.has_objective() && !model.objective().terms().empty();
  const bool first_feasible_mode = params.stop_at_first_feasible || !has_terms;
  const bool flipped = model.has_objective() && !model.minimize();

  WorkerPool pool(params, live, first_feasible_mode, flipped, num_workers);
  pool.push(Subproblem{});  // the root: no rank, no box, full propagation

  std::vector<SolverStats> worker_stats(static_cast<std::size_t>(num_workers));
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_workers));
  auto work = [&](int i) {
    try {
      BnbSearch search(model, compiled, params, pool, live);
      search.run_worker();
      worker_stats[static_cast<std::size_t>(i)] = search.worker_stats();
    } catch (...) {
      errors[static_cast<std::size_t>(i)] = std::current_exception();
      pool.request_stop();
    }
  };
  // Worker 0 runs on the calling thread, so a one-thread solve starts none.
  // Helpers adopt the caller's observer and correlation id so their log
  // lines, spans and tree nodes land in the solve's run and join the solve's
  // records. The search is exact at any worker count, so a helper the system
  // refuses to start only costs speed.
  Observer* const observer = current_observer();
  const std::uint64_t correlation = telemetry::current_correlation_id();
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(num_workers - 1));
  try {
    for (int i = 1; i < num_workers; ++i) {
      helpers.emplace_back([&work, observer, correlation, i] {
        const ObserverScope bind(observer);
        const telemetry::CorrelationScope corr(correlation);
        work(i);
      });
    }
  } catch (const std::system_error& e) {
    SPARCS_WLOG << "started " << helpers.size() + 1 << " of " << num_workers
                << " branch & bound workers: " << e.what();
  }
  work(0);
  for (std::thread& helper : helpers) helper.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  MilpSolution result;
  for (const SolverStats& stats : worker_stats) result.stats.merge(stats);
  // Incumbent acceptances were recorded centrally, under the pool lock and
  // on the pool's clock, so they are already in time order.
  result.stats.convergence = pool.take_convergence();

  const bool limit_stopped = pool.limit_hit();
  if (pool.have_solution() && first_feasible_mode && limit_stopped) {
    // Cut short before every DFS-earlier subtree was refuted: the candidate
    // is feasible but not proven rank-first, so returning it would make the
    // answer depend on thread timing.
    result.status = SolveStatus::kLimitReached;
  } else if (pool.have_solution()) {
    if (first_feasible_mode) {
      result.status = params.stop_at_first_feasible || pool.incomplete()
                          ? SolveStatus::kFeasible
                          : SolveStatus::kOptimal;
    } else {
      result.status = limit_stopped || pool.incomplete()
                          ? SolveStatus::kFeasible
                          : SolveStatus::kOptimal;
    }
    const double obj = pool.solution_objective();
    result.values = pool.take_values();
    result.objective = flipped ? -obj : obj;
  } else if (pool.unbounded()) {
    result.status = SolveStatus::kUnbounded;
  } else if (limit_stopped) {
    result.status = SolveStatus::kLimitReached;
  } else {
    // With dropped subtrees an exhausted pool no longer proves infeasibility.
    result.status = pool.incomplete() ? SolveStatus::kNumericalFailure
                                     : SolveStatus::kInfeasible;
  }
  if (result.status == SolveStatus::kInfeasible &&
      params.certify == CertifyMode::kFull) {
    result.proof = pool.take_proof();
  }
  return result;
}

}  // namespace sparcs::milp
