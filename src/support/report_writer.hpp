// Structured JSON writer shared by every document the system emits: the
// --report-json PartitionerReport, solver statistics, sweep checkpoints,
// service responses, metrics, telemetry and JSON log records. One
// implementation owns escaping, number formatting (JSON has no inf/nan
// literals) and comma placement, so callers describe their fields instead
// of hand-assembling strings.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace sparcs::report {

/// Minimal streaming JSON writer: begin/end nesting plus typed fields.
/// Usage errors (ending a scope that was never begun) throw via SPARCS_CHECK.
class ReportWriter {
 public:
  ReportWriter();

  /// Starts the root object (or a nested unnamed object inside an array).
  void begin_object();
  /// Starts a nested object under `key` (inside an object).
  void begin_object(const std::string& key);
  void end_object();

  /// Starts an array under `key` (inside an object).
  void begin_array(const std::string& key);
  /// Starts an unnamed array (inside another array).
  void begin_array();
  void end_array();

  /// Writes a bare scalar element (inside an array).
  void element(std::int64_t value);
  void element(double value);

  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, const char* value);
  void field(const std::string& key, double value);
  void field(const std::string& key, std::int64_t value);
  void field(const std::string& key, int value);
  void field(const std::string& key, bool value);

  /// Embeds `json` — an already-rendered JSON value — verbatim under `key`.
  /// The caller vouches for its validity (used to splice sub-documents built
  /// by another ReportWriter, e.g. a metrics snapshot into a telemetry
  /// record, without reparsing).
  void raw_field(const std::string& key, const std::string& json);

  /// The document so far; call after the root object was ended.
  [[nodiscard]] std::string str() const;

 private:
  void comma();
  void key_prefix(const std::string& key);

  std::ostringstream os_;
  /// One entry per open scope: whether a value was already written there.
  std::vector<bool> wrote_value_;
};

/// Escapes a string for embedding in a JSON document (quotes not included).
[[nodiscard]] std::string json_escape(const std::string& text);

/// Formats a double as a JSON-safe number (inf/nan become large sentinels).
[[nodiscard]] std::string json_number(double value);

}  // namespace sparcs::report
