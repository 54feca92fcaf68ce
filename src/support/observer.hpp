// One run's observer: everything a CLI run or a service job records — its
// metrics registry, trace spans, search-tree ring, live sampler and JSON log
// stream — owned by the run instead of shared by the process.
//
// A run binds its observer to the thread it runs on (ObserverScope); branch
// & bound helper threads bind their solve's observer when they start. Every
// instrument looks the binding up through current_observer(), one
// thread-local load, and is off when nothing is bound or the observer does
// not collect that part. Two runs on two threads therefore never share a
// counter, a span buffer, a tree or a log stream.
#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

namespace sparcs {

namespace metrics {
class Registry;
}  // namespace metrics
namespace trace {
class Recorder;
}  // namespace trace
namespace telemetry {
class SearchTree;
class Sampler;
}  // namespace telemetry

class Observer {
 public:
  /// What the run records; everything is off by default.
  struct Options {
    bool metrics = false;  ///< collect a metrics::Registry
    bool spans = false;    ///< record trace spans
    bool tree = false;     ///< record branch & bound nodes
    /// Mirrors every log line emitted on a bound thread as one JSON record.
    std::ostream* log_json = nullptr;
    /// Runs the live sampler, writing its JSONL records here.
    std::ostream* telemetry = nullptr;
    /// The sampler's one-line progress report (needs `telemetry`).
    std::ostream* progress = nullptr;
    double sample_interval_sec = 0.2;
  };

  explicit Observer(const Options& options);
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// The run's parts; null when the run does not collect that part.
  [[nodiscard]] metrics::Registry* metrics() const { return metrics_.get(); }
  [[nodiscard]] trace::Recorder* spans() const { return spans_.get(); }
  [[nodiscard]] telemetry::SearchTree* tree() const { return tree_.get(); }
  [[nodiscard]] telemetry::Sampler* sampler() const { return sampler_.get(); }
  [[nodiscard]] bool logs_json() const { return log_json_ != nullptr; }

  /// Appends one JSON log record as a line and flushes it. Concurrent
  /// writers (the run's helper threads) never interleave bytes.
  void write_log(const std::string& record);

 private:
  std::unique_ptr<metrics::Registry> metrics_;
  std::unique_ptr<trace::Recorder> spans_;
  std::unique_ptr<telemetry::SearchTree> tree_;
  // Declared last so it is destroyed first: its thread reads metrics_.
  std::unique_ptr<telemetry::Sampler> sampler_;
  std::mutex log_mu_;
  std::ostream* log_json_;
};

namespace detail {
inline thread_local Observer* t_observer = nullptr;
}  // namespace detail

/// The observer bound to the calling thread; null turns every instrument off.
inline Observer* current_observer() { return detail::t_observer; }

/// Binds `observer` (null unbinds) to the calling thread for the scope's
/// lifetime and restores the previous binding afterwards.
class ObserverScope {
 public:
  explicit ObserverScope(Observer* observer) : previous_(detail::t_observer) {
    detail::t_observer = observer;
  }
  ~ObserverScope() { detail::t_observer = previous_; }
  ObserverScope(const ObserverScope&) = delete;
  ObserverScope& operator=(const ObserverScope&) = delete;

 private:
  Observer* previous_;
};

}  // namespace sparcs
