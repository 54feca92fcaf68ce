// Live telemetry: the sampler that streams newline-delimited JSON records
// describing what a run is doing *right now* (its in-flight solve's
// incumbent/bound/gap/node counts, pipeline stage, RSS), plus the
// correlation-id and search-tree machinery the rest of the observability
// stack joins on. The sampler and the tree belong to a run's Observer
// (support/observer.hpp); with no observer bound, or one without them, every
// publisher here costs one thread-local load.
//
// Correlation: a MILP solve is tagged with a process-unique correlation id
// (a plain uint64) that lives in thread-local storage for the duration of the
// solve (worker threads inherit it explicitly) and flows into trace-span args
// ("corr"), JSON log records ("corr") and the sampler's per-solve entries, so
// one solve can be joined across all three streams.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "support/observer.hpp"

namespace sparcs::metrics {
class Registry;
}  // namespace sparcs::metrics

namespace sparcs::telemetry {

class Sampler;

// ---------------------------------------------------------------------------
// Correlation ids
// ---------------------------------------------------------------------------

/// Allocates a fresh process-unique correlation id (never 0).
std::uint64_t next_correlation_id();

/// The correlation id attached to the calling thread (0 = none).
std::uint64_t current_correlation_id();

/// RAII swap of the calling thread's correlation id. The explicit form binds
/// a given id (a service job's, or a spawning solve's on its helper threads);
/// the default form applies the one id rule: keep the id already bound, and
/// bind a fresh one only when none is and an observer is.
class CorrelationScope {
 public:
  explicit CorrelationScope(std::uint64_t id);
  CorrelationScope();
  ~CorrelationScope();
  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;

  /// The id bound over the scope (0 = none).
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::uint64_t previous_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Live solve
// ---------------------------------------------------------------------------

/// Live state of the run's in-flight MILP solve. Publishers use relaxed
/// stores, the sampler uses relaxed loads: every field is an independent
/// progress indicator, so cross-field tearing is acceptable by design.
struct LiveSolve {
  std::atomic<std::uint64_t> correlation{0};  ///< 0 = no solve in flight
  std::atomic<std::int64_t> nodes{0};
  std::atomic<std::int64_t> open_nodes{0};  ///< DFS stack / subproblem pool
  std::atomic<std::int64_t> lp_iterations{0};
  std::atomic<std::int64_t> incumbent_updates{0};
  /// Caller-convention objective of the current incumbent; meaningful only
  /// while has_incumbent is true.
  std::atomic<double> incumbent{0.0};
  std::atomic<bool> has_incumbent{false};
  /// Root LP relaxation bound (caller convention); only published when LP
  /// bounding is enabled for the solve, NaN otherwise.
  std::atomic<double> best_bound{0.0};
  std::atomic<bool> has_bound{false};
  std::atomic<std::uint64_t> start_us{0};  ///< monotonic, sampler-relative
};

/// RAII registration of one MILP solve: binds its correlation id (the
/// default CorrelationScope rule) and, when the bound observer samples,
/// claims the run's LiveSolve. A run has at most one solve in flight (the
/// sweep is serial; B&B helper threads share their solve's LiveSolve), so a
/// second concurrent scope finds it taken and publishes nowhere.
class SolveScope {
 public:
  SolveScope() {
    if (current_observer() != nullptr) begin();
  }
  ~SolveScope() {
    if (slot_ != nullptr) release();
  }
  SolveScope(const SolveScope&) = delete;
  SolveScope& operator=(const SolveScope&) = delete;

  [[nodiscard]] std::uint64_t id() const {
    return correlation_ ? correlation_->id() : 0;
  }
  [[nodiscard]] LiveSolve* slot() const { return slot_; }

 private:
  void begin();
  void release();

  std::optional<CorrelationScope> correlation_;
  Sampler* sampler_ = nullptr;
  LiveSolve* slot_ = nullptr;
};

// ---------------------------------------------------------------------------
// Search-tree introspection
// ---------------------------------------------------------------------------

/// Why a branch & bound node stopped being interesting.
enum class NodeKind : std::uint8_t {
  kBranched,          ///< interior node: branched on a variable
  kIntegral,          ///< leaf: all integral variables fixed
  kPrunedBound,       ///< refuted by the LP relaxation
  kPrunedInfeasible,  ///< propagation conflict on the entering branch
  kRejected,          ///< leaf completion rejected by the exact checker
  kBudget,            ///< abandoned: limits/cancellation cut the subtree
};

[[nodiscard]] const char* to_string(NodeKind kind);

/// One recorded branch & bound node.
struct TreeNode {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root of a (sub)tree
  std::int32_t depth = 0;
  std::int32_t branch_var = -1;        ///< variable branched to enter; -1 root
  double branch_lb = 0.0, branch_ub = 0.0;  ///< bounds imposed on branch_var
  NodeKind kind = NodeKind::kBranched;
};

/// One run's branch & bound nodes, across its worker threads and solves, in
/// a ring buffer (oldest records evicted first; parents are recorded before
/// their children, so surviving interior nodes keep their children).
class SearchTree {
 public:
  static constexpr std::size_t kCapacity = 1 << 16;

  /// Allocates the next node id (unique across the run's workers and solves).
  std::int64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(const TreeNode& node);

  /// Nodes currently held (after eviction).
  [[nodiscard]] std::size_t size() const;

  /// Writes {"capacity":..,"recorded":..,"evicted":..,"nodes":[...]}. A node
  /// recorded as "branched" whose children were all evicted or never
  /// explored (budget cut) is re-labelled "budget" at dump time, so every
  /// non-root node in the dump carries a prune reason or has children
  /// present.
  void write_json(std::ostream& os) const;

  /// Graphviz rendering of the same dump (one node per record, edges to
  /// parents, prune reason as label/color).
  void write_dot(std::ostream& os) const;

 private:
  std::vector<TreeNode> dump() const;

  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::deque<TreeNode> nodes_;
  std::int64_t recorded_ = 0;
  std::int64_t evicted_ = 0;
};

// ---------------------------------------------------------------------------
// Process memory (Linux /proc/self/status; zeros elsewhere)
// ---------------------------------------------------------------------------

struct MemoryStatus {
  std::int64_t rss_kb = 0;       ///< VmRSS
  std::int64_t rss_peak_kb = 0;  ///< VmHWM
};

[[nodiscard]] MemoryStatus read_memory_status();

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// A run's live state (stage, incumbent, degraded flag, its LiveSolve) and
/// the background thread that samples it into a JSONL stream. Construction
/// writes a "start" record and starts the thread; stop() (or destruction)
/// joins it through a condition variable and writes a last sample and a
/// "final" record, so teardown is clean under cancellation too.
class Sampler {
 public:
  /// `sink` receives one record per line; `progress`, when set, gets a
  /// single '\r'-rewritten status line per sample; `metrics`, when set, is
  /// embedded in every sample. All must outlive the sampler.
  Sampler(std::ostream& sink, std::ostream* progress, double interval_sec,
          const metrics::Registry* metrics);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Stops and joins the thread and writes the closing records. Idempotent;
  /// records published afterwards are dropped.
  void stop();

  /// Writes one "sample" record now, tagged with `trigger` ("interval",
  /// "stage", "preempt", ...).
  void sample(const char* trigger);

  void set_stage(const char* stage, int num_partitions);
  void publish_best_latency(double latency_ns, int num_partitions);
  void publish_degraded(bool degraded);

  /// Claims the run's LiveSolve for solve `correlation`; null while another
  /// solve holds it.
  LiveSolve* claim(std::uint64_t correlation);
  void release(LiveSolve* slot);

 private:
  void run();
  // Both write one record; mu_ held.
  void emit_sample(const char* trigger, const MemoryStatus& memory);
  void emit_lifecycle(const char* type, double interval_sec);

  /// Serializes every record and guards the fields below.
  std::mutex mu_;
  std::condition_variable wake_;
  std::ostream* sink_;  ///< null once stopped
  std::ostream* progress_;
  const double interval_sec_;
  const metrics::Registry* const metrics_;
  const std::uint64_t start_us_;
  bool stop_requested_ = false;
  std::int64_t samples_ = 0;
  std::int64_t solves_completed_ = 0;
  const char* stage_ = nullptr;  ///< string literal or null
  int stage_n_ = 0;
  bool has_best_ = false;
  double best_latency_ = 0.0;
  int best_n_ = 0;
  bool degraded_ = false;
  LiveSolve live_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Pipeline state (the partition sweep publishes, the sampler reads); each a
// no-op unless the bound observer samples.
// ---------------------------------------------------------------------------

/// The bound observer's sampler; null when nothing samples.
inline Sampler* current_sampler() {
  const Observer* observer = current_observer();
  return observer != nullptr ? observer->sampler() : nullptr;
}

/// Publishes the sweep's current stage. `stage` must be a string literal (or
/// otherwise immortal). Triggers an immediate sampler record, so every stage
/// transition yields at least one sample even under coarse intervals.
inline void set_stage(const char* stage, int num_partitions) {
  if (Sampler* sampler = current_sampler()) {
    sampler->set_stage(stage, num_partitions);
  }
}

/// Publishes an improved incumbent design (monotonically non-increasing
/// latency over a run) and emits a "convergence" JSONL record.
inline void publish_best_latency(double latency_ns, int num_partitions) {
  if (Sampler* sampler = current_sampler()) {
    sampler->publish_best_latency(latency_ns, num_partitions);
  }
}

/// Publishes the run's degraded flag (budget/deadline expiry mid-sweep);
/// reflected in sample records and the sampler's final record.
inline void publish_degraded(bool degraded) {
  if (Sampler* sampler = current_sampler()) sampler->publish_degraded(degraded);
}

}  // namespace sparcs::telemetry
