// Minimal CSV writer (RFC-4180 quoting) for exchanging traces and bench
// series with external plotting tools.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/trace.hpp"

namespace sparcs::io {

/// Writes one CSV row, quoting cells that need it.
void write_csv_row(std::ostream& os, const std::vector<std::string>& cells);

/// Writes an iteration trace as CSV with a header row.
void write_trace_csv(std::ostream& os, const core::Trace& trace);

/// Quotes a single cell if it contains a comma, quote or newline.
std::string csv_escape(const std::string& cell);

}  // namespace sparcs::io
