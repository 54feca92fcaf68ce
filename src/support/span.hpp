// Scoped spans emitting Chrome trace-event / Perfetto-compatible JSON.
//
// A span records into the trace::Recorder of the observer bound to its
// thread (support/observer.hpp); with no observer bound, or one that does not
// record spans, a Span costs one thread-local load. Each recorded Span is one
// complete ("ph":"X") event with microsecond start/duration timestamps, so a
// whole Refine_Partitions_Bound sweep — with nested spans for every
// Reduce_Latency probe, milp::solve call and simplex run — can be opened in
// chrome://tracing or ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "support/observer.hpp"

namespace sparcs::trace {

/// One run's span events.
class Recorder {
 public:
  void record(std::string name, std::uint64_t ts_us, std::uint64_t dur_us,
              std::string args_json);

  /// Number of events recorded so far.
  [[nodiscard]] std::size_t size() const;

  /// Writes the events as a Chrome trace-event JSON array:
  /// [{"name":..,"cat":"sparcs","ph":"X","ts":..,"dur":..,"pid":..,"tid":..,
  ///   "args":{..}}, ...]. Loadable by chrome://tracing and Perfetto.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Event {
    std::string name;
    std::uint64_t ts_us;
    std::uint64_t dur_us;
    int tid;
    std::string args_json;
  };
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII span: measures from construction to destruction. `arg()` attaches
/// key/value pairs rendered into the event's "args" object; all calls are
/// no-ops while the span is not recording.
class Span {
 public:
  explicit Span(const char* name) {
    const Observer* observer = current_observer();
    if (observer != nullptr && observer->spans() != nullptr) {
      begin(observer->spans(), name);
    }
  }
  ~Span() {
    if (recorder_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, std::int64_t value);
  void arg(const char* key, double value);
  void arg(const char* key, const std::string& value);

 private:
  void begin(Recorder* recorder, const char* name);
  void end();

  Recorder* recorder_ = nullptr;
  std::string name_;
  std::string args_json_;  ///< comma-joined "key":value fragments
  std::uint64_t start_us_ = 0;
};

}  // namespace sparcs::trace
