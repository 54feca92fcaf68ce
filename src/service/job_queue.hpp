// Bounded priority job queue of the solve service, with admission control.
//
// Submissions are admitted only while (a) the number of queued jobs is below
// the configured depth and (b) the summed memory estimate of every queued and
// running job plus the newcomer stays under the configured ceiling; an
// over-limit submit is rejected immediately with a structured reason
// (queue_full / memory_limit) instead of blocking the connection — background
// pressure must surface to clients, not accumulate in the daemon.
//
// Ordering: higher priority first, FIFO (submission order) within a
// priority. Worker threads block in pop() until a job or stop() arrives.
// All mutable job state is guarded by the queue mutex; responders read
// consistent JobInfo snapshots through lookup()/wait_terminal()/list(), never
// the Job fields directly. A terminal job's result is its finished
// PartitionerReport, held once and shared by every snapshot of the job.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/device.hpp"
#include "core/partitioner.hpp"
#include "graph/task_graph.hpp"
#include "milp/types.hpp"

namespace sparcs::service {

/// Lifecycle of one job. kQueued/kRunning are live; the rest are terminal.
enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,       ///< the partitioner returned (feasible or not, degraded or not)
  kFailed,     ///< the job raised an error (bad graph, internal failure)
  kCancelled,  ///< cancelled while queued, or preempted mid-solve
};

[[nodiscard]] const char* to_string(JobState state);
[[nodiscard]] bool is_terminal(JobState state);

/// Everything a worker needs to run one job, fixed at admission time (the
/// graph is parsed and the device resolved up front so a malformed submit is
/// rejected on the spot, not discovered minutes later by a worker).
struct JobSpec {
  std::string source;  ///< "ar" / "dct" / ... or "<inline>" for listings
  graph::TaskGraph graph;
  arch::Device device;
  core::PartitionerOptions options;  ///< alpha/gamma, budget, certify
  double deadline_sec = 0.0;  ///< armed when the job *starts*, not at submit
};

/// Outcome of a terminal job: what a worker reports back through finish(),
/// kept on the Job. A JobInfo copies the report's pointer, never the report.
struct JobResult {
  /// The finished sweep's report; null when the job failed or was cancelled
  /// while queued.
  std::shared_ptr<const core::PartitionerReport> report;
  std::string error;        ///< kFailed diagnostic
  std::string report_path;  ///< landed artifact, empty when not configured
};

/// One tracked job. Identity and spec are immutable after admit; everything
/// under "guarded by JobQueue::mu_" must only be touched through the queue.
struct Job {
  std::uint64_t seq = 0;     ///< admission order, the within-priority tie-break
  std::string name;          ///< "job-<seq>", the protocol-visible id
  int priority = 0;
  bool detached = false;
  double est_memory_mb = 0.0;
  JobSpec spec;
  /// Per-job cancellation, shared with the running solve. Safe to trip from
  /// any thread (connection handlers, shutdown) without the queue mutex.
  milp::CancelToken cancel = milp::CancelToken::create();

  // -- guarded by JobQueue::mu_ --
  JobState state = JobState::kQueued;
  std::uint64_t correlation = 0;  ///< telemetry correlation id once running
  double submitted_sec = 0.0;     ///< queue-clock timestamps
  double started_sec = 0.0;
  double finished_sec = 0.0;
  JobResult result;  ///< set once the job is terminal
};

/// Consistent copy of one job's observable state (returned under the lock).
struct JobInfo {
  std::string name;
  JobState state = JobState::kQueued;
  int priority = 0;
  bool detached = false;
  std::string source;
  double est_memory_mb = 0.0;
  std::uint64_t correlation = 0;
  bool cancel_requested = false;
  double queued_sec = 0.0;  ///< time spent waiting (so far, or total)
  double run_sec = 0.0;     ///< time spent solving (so far, or total)
  JobResult result;

  /// CLI-compatible exit code of a terminal job: 0 ok, 2 infeasible,
  /// 3 degraded, 4 failed, 5 cancelled, 7 uncertified (-1 while live); a
  /// done job's is its report's core::run_exit_code.
  [[nodiscard]] int exit_code() const;
};

class JobQueue {
 public:
  struct Limits {
    int max_queue_depth = 16;
    double max_est_memory_mb = 4096.0;
    /// Terminal jobs kept for result retrieval; oldest evicted beyond this.
    std::size_t max_finished_jobs = 256;
  };

  struct Admit {
    bool ok = false;
    std::string code;     ///< queue_full | memory_limit when !ok
    std::string message;
    std::string name;     ///< assigned job id when ok
    int position = 0;     ///< 1-based queue position when ok
  };

  explicit JobQueue(Limits limits);

  /// Admission control + enqueue. On success the job is owned by the queue
  /// and `name`/`seq`/timestamps are filled in.
  Admit submit(std::shared_ptr<Job> job);

  /// Blocks until a job is available (marked kRunning and stamped with
  /// `correlation` before returning) or the queue is stopped (nullptr).
  std::shared_ptr<Job> pop(std::uint64_t correlation);

  /// Records a popped job's terminal state (kDone, kFailed or kCancelled)
  /// and outcome, and releases its admission budget. Wakes result-waiters.
  void finish(const std::shared_ptr<Job>& job, JobState state,
              JobResult result);

  enum class CancelOutcome {
    kUnknownJob,
    kCancelledQueued,   ///< removed from the queue, now terminal
    kRequestedRunning,  ///< token tripped; terminal once the worker unwinds
    kAlreadyTerminal,
  };
  CancelOutcome cancel(const std::string& name);

  /// Cancels every queued job and requests cancellation of every running
  /// one (graceful shutdown). Returns how many jobs were affected.
  int cancel_all();

  /// Wakes poppers (they return nullptr) and result-waiters. Jobs already
  /// popped stay with their workers; call cancel_all() first to preempt them.
  void stop();

  [[nodiscard]] bool lookup(const std::string& name, JobInfo* out) const;

  /// Blocks until `name` reaches a terminal state or the queue is stopped
  /// with the job still live. False when the job is unknown.
  bool wait_terminal(const std::string& name, JobInfo* out) const;

  [[nodiscard]] std::vector<JobInfo> list() const;
  [[nodiscard]] int queue_depth() const;
  [[nodiscard]] int running() const;
  [[nodiscard]] double est_memory_in_use_mb() const;
  [[nodiscard]] const Limits& limits() const { return limits_; }

 private:
  JobInfo info_locked(const Job& job) const;
  void evict_finished_locked();
  double now_sec() const;

  Limits limits_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;          ///< poppers
  mutable std::condition_variable done_cv_;  ///< result-waiters
  bool stopped_ = false;
  std::uint64_t next_seq_ = 1;
  double est_memory_mb_ = 0.0;  ///< queued + running estimates
  int running_ = 0;
  std::vector<std::shared_ptr<Job>> pending_;  ///< kept in pop order
  std::unordered_map<std::string, std::shared_ptr<Job>> jobs_;
  std::deque<std::string> finished_order_;  ///< eviction order
  std::chrono::steady_clock::time_point epoch_;
};

/// Crude per-job peak-memory estimate (MB) used only for admission control:
/// base process overhead plus the formulation's O(tasks x partitions)
/// variable/constraint footprint. Deliberately pessimistic and overridable
/// per submit (est_memory_mb) — the point is bounding concurrent admissions,
/// not accounting.
[[nodiscard]] double estimate_job_memory_mb(const graph::TaskGraph& graph,
                                            int max_partitions);

}  // namespace sparcs::service
