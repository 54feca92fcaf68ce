// Fixed-width ASCII table writer used by the benches to print the
// paper-style result tables, plus a renderer for iteration traces.
#pragma once

#include <string>
#include <vector>

#include "core/trace.hpp"

namespace sparcs::io {

/// Column-aligned ASCII table.
class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header);

  /// Appends a row; must have as many cells as the header.
  void add_row(std::vector<std::string> row);
  /// Inserts a horizontal separator before the next row.
  void add_separator();

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;  ///< empty row == separator
};

/// Renders an iteration trace in the layout of the paper's Tables 1/3-8:
/// columns N, I, Dmax, Dmin, Da (with "Inf." for infeasible iterations,
/// "Inf. (LB)" for windows below LB(N) and " (WS)" after the Da of a window
/// answered by a warm start at LB(N)).
/// `subtract_reconfig` reproduces the paper's "Bound (without N*Ct)"
/// convention by subtracting N*ct_ns from the printed bounds.
std::string render_trace(const core::Trace& trace, double ct_ns,
                         bool subtract_reconfig);

}  // namespace sparcs::io
