#include "service/protocol.hpp"

#include <cmath>
#include <limits>
#include <string_view>
#include <type_traits>

#include "milp/types.hpp"
#include "support/json.hpp"
#include "support/report_writer.hpp"

namespace sparcs::service {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Reads a JSON value into a request field of the matching type; false when
/// it has another type, or, for an int, is not a whole number within int
/// range (2.5, 1e20), which a plain cast would truncate or wrap.
bool read_field(const json::Value& value, int* out) {
  if (!value.is_number()) return false;
  const double x = value.as_double();
  if (x != std::floor(x) || x < std::numeric_limits<int>::min() ||
      x > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(x);
  return true;
}

bool read_field(const json::Value& value, double* out) {
  if (value.is_number()) *out = value.as_double();
  return value.is_number();
}

bool read_field(const json::Value& value, std::optional<double>* out) {
  if (value.is_number()) *out = value.as_double();
  return value.is_number();
}

bool read_field(const json::Value& value, bool* out) {
  if (value.is_bool()) *out = value.as_bool();
  return value.is_bool();
}

bool read_field(const json::Value& value, std::string* out) {
  if (value.is_string()) *out = value.as_string();
  return value.is_string();
}

/// What read_field asks of a field of type T, as the tail of a message.
template <typename T>
constexpr const char* type_requirement() {
  if constexpr (std::is_same_v<T, int>) {
    return " must be a whole number within int range";
  } else if constexpr (std::is_same_v<T, bool>) {
    return " must be true or false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return " must be a string";
  } else {
    return " must be a number";
  }
}

/// Reads object[key] into `field`. An absent key keeps the field's value; a
/// value of the wrong type leaves it too and, unless an earlier read already
/// failed, sets `violation` naming prefix + key.
template <typename T>
void read_member(const json::Value& object, std::string_view prefix,
                 std::string_view key, T& field, std::string& violation) {
  const json::Value* v = object.find(key);
  if (v == nullptr || read_field(*v, &field) || !violation.empty()) return;
  violation = std::string(prefix) + std::string(key) + type_requirement<T>();
}

bool bad_request(std::string* error, std::string* code,
                 const std::string& violation) {
  if (code != nullptr) *code = "bad_request";
  return fail(error, violation);
}

/// Why `value` is outside `range`, or "" when it is inside.
std::string range_violation(double value, OptionRange range) {
  if (range == OptionRange::kPositive) return value > 0.0 ? "" : " must be > 0";
  if (range == OptionRange::kAny || value >= 0.0) return "";
  return " must be non-negative";
}

bool parse_submit(const json::Value& root, SubmitRequest* out,
                  std::string* error, std::string* code) {
  // A value of the wrong type or out of range is a bad_request; beyond the
  // graph keys, it is reported only once the shape checks below have passed.
  std::string violation;
  read_member(root, "", "workload", out->workload, violation);
  read_member(root, "", "graph_text", out->graph_text, violation);
  if (!violation.empty()) return bad_request(error, code, violation);
  if (out->workload.empty() == out->graph_text.empty()) {
    return fail(error, "submit needs exactly one of workload or graph_text");
  }
  read_member(root, "", "priority", out->priority, violation);
  read_member(root, "", "detach", out->detach, violation);
  const json::Value* options = root.find("options");
  if (options != nullptr) {
    if (!options->is_object()) return fail(error, "options must be an object");
    for_each_solve_option(*out, [&](std::string_view, std::string_view key,
                                    auto& field, OptionRange) {
      read_member(*options, "options.", key, field, violation);
    });
    read_member(*options, "options.", "est_memory_mb", out->est_memory_mb,
                violation);
  }
  if (violation.empty()) {
    violation = check_solve_options(*out, OptionSpelling::kJsonKey);
  }
  if (violation.empty() && out->est_memory_mb < 0.0) {
    violation = "options.est_memory_mb must be non-negative";
  }
  return violation.empty() || bad_request(error, code, violation);
}

}  // namespace

bool parse_request(const std::string& line, Request* out, std::string* error,
                   std::string* code) {
  if (code != nullptr) *code = "parse_error";
  *out = Request{};  // a key the line does not name keeps its default
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.ok) return fail(error, "malformed JSON: " + parsed.error);
  const json::Value& root = parsed.value;
  if (!root.is_object()) return fail(error, "request must be a JSON object");
  std::string violation;
  read_member(root, "", "op", out->op, violation);
  read_member(root, "", "job", out->job, violation);
  read_member(root, "", "wait", out->wait, violation);
  if (!violation.empty()) return bad_request(error, code, violation);
  if (out->op.empty()) return fail(error, "missing op");
  if (out->op == "submit") {
    return parse_submit(root, &out->submit, error, code);
  }
  if (out->op == "status" || out->op == "result" || out->op == "cancel") {
    if (out->job.empty()) return fail(error, out->op + " needs a job id");
    return true;
  }
  if (out->op == "list" || out->op == "shutdown") return true;
  return fail(error, "unknown op '" + out->op + "'");
}

std::string check_solve_options(const SubmitRequest& request,
                                OptionSpelling spelling) {
  std::string violation;
  for_each_solve_option(request, [&](std::string_view flag,
                                     std::string_view key, const auto& value,
                                     OptionRange range) {
    using T = std::remove_cvref_t<decltype(value)>;
    std::string problem;
    if constexpr (std::is_same_v<T, std::string>) {
      if (!milp::parse_certify_mode(value)) {
        problem = " must be off, incumbents or full";
      }
    } else if constexpr (std::is_arithmetic_v<T>) {
      problem = range_violation(value, range);
    }
    if (!violation.empty() || problem.empty()) return;
    violation = spelling == OptionSpelling::kFlag
                    ? std::string(flag)
                    : "options." + std::string(key);
    violation += problem;
  });
  return violation;
}

std::string serialize_request(const Request& request) {
  report::ReportWriter w;
  w.begin_object();
  w.field("op", request.op);
  if (!request.job.empty()) w.field("job", request.job);
  if (request.wait) w.field("wait", true);
  if (request.op == "submit") {
    const SubmitRequest& s = request.submit;
    if (!s.workload.empty()) w.field("workload", s.workload);
    if (!s.graph_text.empty()) w.field("graph_text", s.graph_text);
    if (s.priority != 0) w.field("priority", s.priority);
    if (s.detach) w.field("detach", true);
    w.begin_object("options");
    for_each_solve_option(s, [&](std::string_view, std::string_view key,
                                 const auto& value, OptionRange) {
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(value)>,
                                   std::optional<double>>) {
        if (value) w.field(std::string(key), *value);
      } else {
        w.field(std::string(key), value);
      }
    });
    if (s.est_memory_mb > 0.0) w.field("est_memory_mb", s.est_memory_mb);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::string error_response(const std::string& op, const std::string& code,
                           const std::string& message) {
  report::ReportWriter w;
  w.begin_object();
  w.field("ok", false);
  w.field("op", op.empty() ? "unknown" : op);
  w.begin_object("error");
  w.field("code", code);
  w.field("message", message);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace sparcs::service
