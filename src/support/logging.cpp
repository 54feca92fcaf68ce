#include "support/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "support/observer.hpp"
#include "support/report_writer.hpp"
#include "support/telemetry.hpp"

namespace sparcs {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarning)};

constexpr std::string_view level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      break;
  }
  return "?";
}

constexpr std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarning:
      return "warning";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      break;
  }
  return "unknown";
}

/// Strips the directory part so log lines stay short.
std::string_view basename_of(std::string_view path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

/// Seconds since the first log statement of the process (steady clock; both
/// this and telemetry's t_sec anchor at first use, which in a CLI run lands
/// within microseconds of each other).
double elapsed_seconds() {
  static const auto anchor = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       anchor)
      .count();
}

}  // namespace

LogLevel log_level() { return static_cast<LogLevel>(g_level.load()); }

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level)); }

namespace detail {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >= g_level.load()),
      level_(level),
      file_(file),
      line_(line) {}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  const std::string_view file = basename_of(file_);
  const std::string message = stream_.str();
  std::string text;
  text.reserve(message.size() + 32);
  text.append("[").append(level_tag(level_)).append(" ");
  text.append(file).append(":").append(std::to_string(line_)).append("] ");
  text.append(message).append("\n");
  std::fputs(text.c_str(), stderr);
  Observer* observer = current_observer();
  if (observer == nullptr || !observer->logs_json()) return;
  const std::uint64_t corr = telemetry::current_correlation_id();
  report::ReportWriter w;
  w.begin_object();
  w.field("t_sec", elapsed_seconds());
  w.field("level", std::string(level_name(level_)));
  w.field("file", std::string(file));
  w.field("line", static_cast<std::int64_t>(line_));
  if (corr != 0) w.field("corr", static_cast<std::int64_t>(corr));
  w.field("msg", message);
  w.end_object();
  observer->write_log(w.str());
}

}  // namespace detail
}  // namespace sparcs
