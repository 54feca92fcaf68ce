#include "support/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <unordered_set>

#include "support/metrics.hpp"
#include "support/observer.hpp"
#include "support/report_writer.hpp"

namespace sparcs::telemetry {
namespace {

std::atomic<std::uint64_t> g_next_correlation{1};
thread_local std::uint64_t t_correlation = 0;

/// Monotonic microseconds anchored at first use; shared by every timestamp
/// this file produces so solve elapsed times and sampler t_sec agree.
std::uint64_t now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point anchor = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                            anchor)
          .count());
}

}  // namespace

std::uint64_t next_correlation_id() {
  return g_next_correlation.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t current_correlation_id() { return t_correlation; }

CorrelationScope::CorrelationScope(std::uint64_t id)
    : previous_(t_correlation), id_(id) {
  t_correlation = id;
}

CorrelationScope::CorrelationScope()
    : previous_(t_correlation), id_(t_correlation) {
  if (id_ == 0 && current_observer() != nullptr) {
    id_ = next_correlation_id();
    t_correlation = id_;
  }
}

CorrelationScope::~CorrelationScope() { t_correlation = previous_; }

void SolveScope::begin() {
  correlation_.emplace();
  sampler_ = current_sampler();
  if (sampler_ != nullptr) slot_ = sampler_->claim(correlation_->id());
}

void SolveScope::release() { sampler_->release(slot_); }

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kBranched:
      return "branched";
    case NodeKind::kIntegral:
      return "integral";
    case NodeKind::kPrunedBound:
      return "pruned_bound";
    case NodeKind::kPrunedInfeasible:
      return "pruned_infeasible";
    case NodeKind::kRejected:
      return "rejected";
    case NodeKind::kBudget:
      return "budget";
  }
  return "unknown";
}

void SearchTree::record(const TreeNode& node) {
  std::lock_guard<std::mutex> lock(mu_);
  nodes_.push_back(node);
  ++recorded_;
  while (nodes_.size() > kCapacity) {
    nodes_.pop_front();
    ++evicted_;
  }
}

std::size_t SearchTree::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

/// Copies the ring and re-labels interior nodes whose children are absent
/// from the dump (evicted, or never explored because a limit fired) as
/// kBudget, so every non-root node either explains its pruning or has
/// children present. Called with mu_ held.
std::vector<TreeNode> SearchTree::dump() const {
  std::vector<TreeNode> nodes(nodes_.begin(), nodes_.end());
  std::unordered_set<std::int64_t> parents;
  parents.reserve(nodes.size());
  for (const TreeNode& node : nodes) {
    if (node.parent >= 0) parents.insert(node.parent);
  }
  for (TreeNode& node : nodes) {
    if (node.kind == NodeKind::kBranched && parents.count(node.id) == 0) {
      node.kind = NodeKind::kBudget;
    }
  }
  return nodes;
}

void SearchTree::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  report::ReportWriter w;
  w.begin_object();
  w.field("capacity", static_cast<std::int64_t>(kCapacity));
  w.field("recorded", recorded_);
  w.field("evicted", evicted_);
  w.begin_array("nodes");
  for (const TreeNode& node : dump()) {
    w.begin_object();
    w.field("id", node.id);
    w.field("parent", node.parent);
    w.field("depth", static_cast<std::int64_t>(node.depth));
    w.field("kind", to_string(node.kind));
    if (node.branch_var >= 0) {
      w.field("branch_var", static_cast<std::int64_t>(node.branch_var));
      w.field("branch_lb", node.branch_lb);
      w.field("branch_ub", node.branch_ub);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << w.str() << '\n';
}

void SearchTree::write_dot(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<TreeNode> nodes = dump();
  os << "digraph search_tree {\n"
     << "  // recorded=" << recorded_ << " evicted=" << evicted_ << "\n"
     << "  node [shape=box, fontsize=10];\n";
  for (const TreeNode& node : nodes) {
    const char* color = "black";
    switch (node.kind) {
      case NodeKind::kIntegral:
        color = "green3";
        break;
      case NodeKind::kPrunedBound:
        color = "blue3";
        break;
      case NodeKind::kPrunedInfeasible:
        color = "red3";
        break;
      case NodeKind::kRejected:
        color = "orange3";
        break;
      case NodeKind::kBudget:
        color = "gray50";
        break;
      case NodeKind::kBranched:
        break;
    }
    os << "  n" << node.id << " [label=\"#" << node.id << " d" << node.depth;
    if (node.branch_var >= 0) {
      os << "\\nx" << node.branch_var << " in [" << node.branch_lb << ","
         << node.branch_ub << "]";
    }
    os << "\\n" << to_string(node.kind) << "\", color=" << color << "];\n";
    if (node.parent >= 0) {
      os << "  n" << node.parent << " -> n" << node.id << ";\n";
    }
  }
  os << "}\n";
}

Sampler::Sampler(std::ostream& sink, std::ostream* progress,
                 double interval_sec, const metrics::Registry* metrics)
    : sink_(&sink),
      progress_(progress),
      interval_sec_(interval_sec),
      metrics_(metrics),
      start_us_(now_us()) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    emit_lifecycle("start", interval_sec_);
  }
  thread_ = std::thread([this] { run(); });
}

Sampler::~Sampler() { stop(); }

void Sampler::run() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval =
      std::chrono::duration<double>(std::max(0.001, interval_sec_));
  while (!wake_.wait_for(lock, interval, [this] { return stop_requested_; })) {
    lock.unlock();
    sample("interval");
    lock.lock();
  }
}

void Sampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  thread_.join();
  // One last sample so the stream's trailing state (degraded flag, final
  // incumbent) is always observable, then the lifecycle summary.
  sample("final");
  std::lock_guard<std::mutex> lock(mu_);
  emit_lifecycle("final", 0.0);
  if (progress_ != nullptr) {
    *progress_ << '\n';
    progress_->flush();
  }
  sink_ = nullptr;
}

void Sampler::sample(const char* trigger) {
  // Gather the expensive bits before taking the lock.
  const MemoryStatus memory = read_memory_status();
  std::lock_guard<std::mutex> lock(mu_);
  emit_sample(trigger, memory);
}

void Sampler::emit_sample(const char* trigger, const MemoryStatus& memory) {
  if (sink_ == nullptr) return;
  report::ReportWriter w;
  w.begin_object();
  w.field("type", "sample");
  const double t_sec = static_cast<double>(now_us() - start_us_) / 1e6;
  w.field("t_sec", t_sec);
  w.field("trigger", trigger);
  const char* stage = stage_ != nullptr ? stage_ : "idle";
  w.field("stage", stage);
  w.field("N", stage_n_);
  if (has_best_) {
    w.field("best_latency_ns", best_latency_);
    w.field("best_n", best_n_);
  }
  w.field("degraded", degraded_);
  w.field("solves_completed", solves_completed_);
  w.field("rss_kb", memory.rss_kb);
  w.field("rss_peak_kb", memory.rss_peak_kb);
  w.begin_array("solves");
  const std::uint64_t corr = live_.correlation.load(std::memory_order_acquire);
  if (corr != 0) {
    w.begin_object();
    w.field("corr", static_cast<std::int64_t>(corr));
    const std::uint64_t now = now_us();
    const std::uint64_t start = live_.start_us.load(std::memory_order_relaxed);
    w.field("elapsed_sec",
            static_cast<double>(now > start ? now - start : 0) / 1e6);
    w.field("nodes", live_.nodes.load(std::memory_order_relaxed));
    w.field("open_nodes", live_.open_nodes.load(std::memory_order_relaxed));
    w.field("lp_iterations",
            live_.lp_iterations.load(std::memory_order_relaxed));
    w.field("incumbent_updates",
            live_.incumbent_updates.load(std::memory_order_relaxed));
    const bool has_inc = live_.has_incumbent.load(std::memory_order_relaxed);
    const bool has_bound = live_.has_bound.load(std::memory_order_relaxed);
    const double inc = live_.incumbent.load(std::memory_order_relaxed);
    const double bound = live_.best_bound.load(std::memory_order_relaxed);
    if (has_inc) w.field("incumbent", inc);
    if (has_bound && std::isfinite(bound)) w.field("bound", bound);
    if (has_inc && has_bound && std::isfinite(bound)) {
      w.field("gap", std::fabs(inc - bound) / std::max(1e-9, std::fabs(inc)));
    }
    w.end_object();
  }
  w.end_array();
  if (metrics_ != nullptr) w.raw_field("metrics", metrics_->snapshot().to_json());
  w.end_object();
  *sink_ << w.str() << '\n';
  sink_->flush();
  ++samples_;
  if (progress_ != nullptr) {
    char line[256];
    if (has_best_) {
      std::snprintf(line, sizeof(line),
                    "\r[%s N=%d] best=%.0f ns solves=%lld elapsed=%.1fs   ",
                    stage, stage_n_, best_latency_,
                    static_cast<long long>(solves_completed_), t_sec);
    } else {
      std::snprintf(line, sizeof(line),
                    "\r[%s N=%d] best=- solves=%lld elapsed=%.1fs   ", stage,
                    stage_n_, static_cast<long long>(solves_completed_),
                    t_sec);
    }
    *progress_ << line;
    progress_->flush();
  }
}

void Sampler::emit_lifecycle(const char* type, double interval_sec) {
  report::ReportWriter w;
  w.begin_object();
  w.field("type", type);
  w.field("t_sec", static_cast<double>(now_us() - start_us_) / 1e6);
  if (interval_sec > 0) w.field("interval_sec", interval_sec);
  w.field("degraded", degraded_);
  w.field("samples", samples_);
  w.field("solves_completed", solves_completed_);
  w.end_object();
  *sink_ << w.str() << '\n';
  sink_->flush();
}

void Sampler::set_stage(const char* stage, int num_partitions) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stage_ = stage;
    stage_n_ = num_partitions;
  }
  // Synchronous record: guarantees >= 1 sample per stage however short the
  // stage or coarse the interval.
  sample("stage");
}

void Sampler::publish_best_latency(double latency_ns, int num_partitions) {
  std::lock_guard<std::mutex> lock(mu_);
  best_latency_ = latency_ns;
  best_n_ = num_partitions;
  has_best_ = true;
  if (sink_ == nullptr) return;
  report::ReportWriter w;
  w.begin_object();
  w.field("type", "convergence");
  w.field("t_sec", static_cast<double>(now_us() - start_us_) / 1e6);
  w.field("N", num_partitions);
  w.field("incumbent_latency_ns", latency_ns);
  w.field("corr", static_cast<std::int64_t>(t_correlation));
  w.end_object();
  *sink_ << w.str() << '\n';
  sink_->flush();
}

void Sampler::publish_degraded(bool degraded) {
  std::lock_guard<std::mutex> lock(mu_);
  degraded_ = degraded;
}

LiveSolve* Sampler::claim(std::uint64_t correlation) {
  std::uint64_t expected = 0;
  // Acquire-release pairs with the release store in release(): a solve that
  // claims the slot after another sees every plain reset below it.
  if (!live_.correlation.compare_exchange_strong(expected, correlation,
                                                 std::memory_order_acq_rel)) {
    return nullptr;
  }
  live_.nodes.store(0, std::memory_order_relaxed);
  live_.open_nodes.store(0, std::memory_order_relaxed);
  live_.lp_iterations.store(0, std::memory_order_relaxed);
  live_.incumbent_updates.store(0, std::memory_order_relaxed);
  live_.incumbent.store(0.0, std::memory_order_relaxed);
  live_.has_incumbent.store(false, std::memory_order_relaxed);
  live_.best_bound.store(0.0, std::memory_order_relaxed);
  live_.has_bound.store(false, std::memory_order_relaxed);
  live_.start_us.store(now_us(), std::memory_order_relaxed);
  return &live_;
}

void Sampler::release(LiveSolve* slot) {
  slot->correlation.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  ++solves_completed_;
}

MemoryStatus read_memory_status() {
  MemoryStatus status;
#ifdef __linux__
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    long long value = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %lld kB", &value) == 1) {
      status.rss_kb = value;
    } else if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &value) == 1) {
      status.rss_peak_kb = value;
    }
  }
#endif
  return status;
}

}  // namespace sparcs::telemetry
