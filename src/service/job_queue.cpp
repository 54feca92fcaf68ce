#include "service/job_queue.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace sparcs::service {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

int JobInfo::exit_code() const {
  switch (state) {
    case JobState::kQueued:
    case JobState::kRunning:
      return -1;
    case JobState::kFailed:
      return 4;
    case JobState::kCancelled:
      return 5;
    case JobState::kDone:
      break;
  }
  // A done job always carries its report; without one it found no design.
  return result.report != nullptr ? core::run_exit_code(*result.report) : 2;
}

JobQueue::JobQueue(Limits limits)
    : limits_(limits), epoch_(std::chrono::steady_clock::now()) {
  SPARCS_REQUIRE(limits_.max_queue_depth >= 1,
                 "max_queue_depth must be >= 1");
  SPARCS_REQUIRE(limits_.max_est_memory_mb > 0.0,
                 "max_est_memory_mb must be > 0");
}

double JobQueue::now_sec() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

JobQueue::Admit JobQueue::submit(std::shared_ptr<Job> job) {
  std::lock_guard<std::mutex> lock(mu_);
  Admit admit;
  if (stopped_) {
    admit.code = "shutting_down";
    admit.message = "the service is shutting down";
    return admit;
  }
  if (static_cast<int>(pending_.size()) >= limits_.max_queue_depth) {
    admit.code = "queue_full";
    admit.message = "queue depth limit reached (" +
                    std::to_string(limits_.max_queue_depth) +
                    " jobs queued); retry later or lower the load";
    return admit;
  }
  if (est_memory_mb_ + job->est_memory_mb > limits_.max_est_memory_mb) {
    admit.code = "memory_limit";
    admit.message =
        "estimated memory of admitted jobs would exceed the limit (in use " +
        std::to_string(est_memory_mb_) + " MB + job " +
        std::to_string(job->est_memory_mb) + " MB > " +
        std::to_string(limits_.max_est_memory_mb) + " MB)";
    return admit;
  }
  job->seq = next_seq_++;
  job->name = "job-" + std::to_string(job->seq);
  job->state = JobState::kQueued;
  job->submitted_sec = now_sec();
  est_memory_mb_ += job->est_memory_mb;
  // Insert in pop order: higher priority first, FIFO within a priority.
  const auto at = std::upper_bound(
      pending_.begin(), pending_.end(), job,
      [](const std::shared_ptr<Job>& a, const std::shared_ptr<Job>& b) {
        if (a->priority != b->priority) return a->priority > b->priority;
        return a->seq < b->seq;
      });
  const auto inserted = pending_.insert(at, job);
  jobs_.emplace(job->name, job);
  admit.ok = true;
  admit.name = job->name;
  admit.position = static_cast<int>(inserted - pending_.begin()) + 1;
  work_cv_.notify_one();
  return admit;
}

std::shared_ptr<Job> JobQueue::pop(std::uint64_t correlation) {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait(lock, [this] { return stopped_ || !pending_.empty(); });
  if (stopped_) return nullptr;
  std::shared_ptr<Job> job = pending_.front();
  pending_.erase(pending_.begin());
  job->state = JobState::kRunning;
  job->correlation = correlation;
  job->started_sec = now_sec();
  ++running_;
  return job;
}

void JobQueue::finish(const std::shared_ptr<Job>& job, JobState state,
                      JobResult result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SPARCS_CHECK(is_terminal(state), "finish() needs a terminal state");
    job->state = state;
    job->finished_sec = now_sec();
    job->result = std::move(result);
    est_memory_mb_ -= job->est_memory_mb;
    --running_;
    finished_order_.push_back(job->name);
    evict_finished_locked();
  }
  done_cv_.notify_all();
}

JobQueue::CancelOutcome JobQueue::cancel(const std::string& name) {
  CancelOutcome outcome = CancelOutcome::kAlreadyTerminal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(name);
    if (it == jobs_.end()) return CancelOutcome::kUnknownJob;
    const std::shared_ptr<Job>& job = it->second;
    switch (job->state) {
      case JobState::kQueued: {
        pending_.erase(std::remove(pending_.begin(), pending_.end(), job),
                       pending_.end());
        job->state = JobState::kCancelled;
        job->finished_sec = now_sec();
        est_memory_mb_ -= job->est_memory_mb;
        finished_order_.push_back(job->name);
        evict_finished_locked();
        job->cancel.request_cancel();
        outcome = CancelOutcome::kCancelledQueued;
        break;
      }
      case JobState::kRunning:
        job->cancel.request_cancel();
        outcome = CancelOutcome::kRequestedRunning;
        break;
      default:
        outcome = CancelOutcome::kAlreadyTerminal;
        break;
    }
  }
  if (outcome == CancelOutcome::kCancelledQueued) done_cv_.notify_all();
  return outcome;
}

int JobQueue::cancel_all() {
  std::vector<std::string> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, job] : jobs_) {
      if (!is_terminal(job->state)) live.push_back(name);
    }
  }
  int affected = 0;
  for (const std::string& name : live) {
    const CancelOutcome outcome = cancel(name);
    if (outcome == CancelOutcome::kCancelledQueued ||
        outcome == CancelOutcome::kRequestedRunning) {
      ++affected;
    }
  }
  return affected;
}

void JobQueue::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
}

JobInfo JobQueue::info_locked(const Job& job) const {
  JobInfo info;
  info.name = job.name;
  info.state = job.state;
  info.priority = job.priority;
  info.detached = job.detached;
  info.source = job.spec.source;
  info.est_memory_mb = job.est_memory_mb;
  info.correlation = job.correlation;
  info.cancel_requested = job.cancel.cancelled();
  const double now = now_sec();
  switch (job.state) {
    case JobState::kQueued:
      info.queued_sec = now - job.submitted_sec;
      break;
    case JobState::kRunning:
      info.queued_sec = job.started_sec - job.submitted_sec;
      info.run_sec = now - job.started_sec;
      break;
    default:
      // Cancelled-while-queued jobs never started; their wait ends at
      // cancellation and the run time stays zero.
      info.queued_sec =
          (job.started_sec > 0.0 ? job.started_sec : job.finished_sec) -
          job.submitted_sec;
      info.run_sec =
          job.started_sec > 0.0 ? job.finished_sec - job.started_sec : 0.0;
      break;
  }
  info.result = job.result;
  return info;
}

void JobQueue::evict_finished_locked() {
  while (finished_order_.size() > limits_.max_finished_jobs) {
    jobs_.erase(finished_order_.front());
    finished_order_.pop_front();
  }
}

bool JobQueue::lookup(const std::string& name, JobInfo* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(name);
  if (it == jobs_.end()) return false;
  if (out != nullptr) *out = info_locked(*it->second);
  return true;
}

bool JobQueue::wait_terminal(const std::string& name, JobInfo* out) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(name);
  if (it == jobs_.end()) return false;
  const std::shared_ptr<Job> job = it->second;  // pin across eviction
  done_cv_.wait(lock, [&] { return stopped_ || is_terminal(job->state); });
  if (out != nullptr) *out = info_locked(*job);
  return true;
}

std::vector<JobInfo> JobQueue::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobInfo> infos;
  infos.reserve(jobs_.size());
  for (const auto& [name, job] : jobs_) infos.push_back(info_locked(*job));
  // "job-<seq>" names order by submission when compared (length, lexicographic).
  std::sort(infos.begin(), infos.end(),
            [](const JobInfo& a, const JobInfo& b) {
              if (a.name.size() != b.name.size()) {
                return a.name.size() < b.name.size();
              }
              return a.name < b.name;
            });
  return infos;
}

int JobQueue::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(pending_.size());
}

int JobQueue::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

double JobQueue::est_memory_in_use_mb() const {
  std::lock_guard<std::mutex> lock(mu_);
  return est_memory_mb_;
}

double estimate_job_memory_mb(const graph::TaskGraph& graph,
                              int max_partitions) {
  const double tasks = static_cast<double>(graph.num_tasks());
  const double edges = static_cast<double>(graph.num_edges());
  const double n = static_cast<double>(std::max(1, max_partitions));
  // Assignment binaries (tasks x N) dominate the model; the simplex tableau
  // is quadratic in the constraint count, which scales with tasks + edges.
  const double vars = tasks * n + edges;
  return 16.0 + vars * vars * 8.0 / 1e6;
}

}  // namespace sparcs::service
