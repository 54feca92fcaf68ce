// Minimal leveled logger used across SPARCS-TP.
//
// Logging is stream-based and writes to stderr; the level is a process-wide
// setting so benchmarks and tests can silence solver chatter. When the
// emitting thread's observer (support/observer.hpp) keeps a JSON log, every
// emitted line is mirrored there as one JSON object per line:
//   {"t_sec":..., "level":"info", "file":"solver.cpp", "line":81,
//    "corr":42, "msg":"..."}
// The `corr` field is present only when a telemetry correlation id is bound
// to the emitting thread; it is what lets a log line be joined with trace
// spans and telemetry samples post-hoc.
#pragma once

#include <iosfwd>
#include <sstream>
#include <string>

namespace sparcs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Returns the current process-wide log level (default: kWarning).
LogLevel log_level();

/// Sets the process-wide log level.
void set_log_level(LogLevel level);

namespace detail {

/// Collects one log statement and emits it on destruction. The message body
/// is accumulated separately from the "[T file:line]" prefix so the JSON
/// sink can emit the structured fields without re-parsing the text line.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace sparcs

#define SPARCS_LOG(level) \
  ::sparcs::detail::LogMessage(::sparcs::LogLevel::level, __FILE__, __LINE__)

#define SPARCS_DLOG SPARCS_LOG(kDebug)
#define SPARCS_ILOG SPARCS_LOG(kInfo)
#define SPARCS_WLOG SPARCS_LOG(kWarning)
#define SPARCS_ELOG SPARCS_LOG(kError)
