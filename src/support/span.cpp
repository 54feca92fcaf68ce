#include "support/span.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <ostream>

#include "support/report_writer.hpp"
#include "support/strings.hpp"

namespace sparcs::trace {
namespace {

/// Small dense thread ids (Chrome's UI groups rows by pid/tid).
int this_thread_id() {
  static std::atomic<int> next{1};
  thread_local int id = next.fetch_add(1);
  return id;
}

/// Microseconds since the first span of the process, so timestamps stay
/// small and zero-based.
std::uint64_t now_us() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

void Recorder::record(std::string name, std::uint64_t ts_us,
                      std::uint64_t dur_us, std::string args_json) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{std::move(name), ts_us, dur_us, this_thread_id(),
                          std::move(args_json)});
}

std::size_t Recorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Recorder::write_chrome_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.empty()) {
    // Literal empty array: downstream JSON linters (and the CI artifact
    // check) expect a parseable document even when tracing recorded nothing.
    os << "[]\n";
    return;
  }
  os << "[";
  bool first = true;
  for (const Event& e : events_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"" << report::json_escape(e.name)
       << "\",\"cat\":\"sparcs\",\"ph\":\"X\",\"ts\":" << e.ts_us
       << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << e.tid;
    if (!e.args_json.empty()) os << ",\"args\":{" << e.args_json << "}";
    os << "}";
  }
  os << "\n]\n";
}

void Span::begin(Recorder* recorder, const char* name) {
  recorder_ = recorder;
  name_ = name;
  start_us_ = now_us();
}

void Span::end() {
  const std::uint64_t now = now_us();
  recorder_->record(std::move(name_), start_us_,
                    now >= start_us_ ? now - start_us_ : 0,
                    std::move(args_json_));
  recorder_ = nullptr;
}

void Span::arg(const char* key, std::int64_t value) {
  if (recorder_ == nullptr) return;
  if (!args_json_.empty()) args_json_ += ",";
  args_json_ += str_format("\"%s\":%lld", key,
                           static_cast<long long>(value));
}

void Span::arg(const char* key, double value) {
  if (recorder_ == nullptr) return;
  if (!args_json_.empty()) args_json_ += ",";
  if (!std::isfinite(value)) {
    args_json_ += str_format("\"%s\":\"%s\"", key,
                             value > 0 ? "inf" : (value < 0 ? "-inf" : "nan"));
  } else {
    args_json_ += str_format("\"%s\":%.12g", key, value);
  }
}

void Span::arg(const char* key, const std::string& value) {
  if (recorder_ == nullptr) return;
  if (!args_json_.empty()) args_json_ += ",";
  args_json_ += str_format("\"%s\":\"%s\"", key,
                           report::json_escape(value).c_str());
}

}  // namespace sparcs::trace
