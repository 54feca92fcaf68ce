#include "io/csv.hpp"

#include <ostream>

#include "support/strings.hpp"

namespace sparcs::io {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_csv_row(std::ostream& os, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) os << ",";
    os << csv_escape(cells[i]);
  }
  os << "\n";
}

void write_trace_csv(std::ostream& os, const core::Trace& trace) {
  write_csv_row(os, {"N", "iteration", "d_max_bound", "d_min_bound",
                     "outcome", "achieved_latency_ns", "nodes", "seconds",
                     "simplex_iterations", "nodes_pruned", "verdict_source"});
  for (const core::IterationRecord& row : trace) {
    const std::int64_t pruned = row.stats.nodes_pruned_by_bound +
                                row.stats.nodes_pruned_infeasible;
    write_csv_row(
        os, {std::to_string(row.num_partitions), std::to_string(row.iteration),
             trim_double(row.d_max_bound, 3), trim_double(row.d_min_bound, 3),
             core::to_string(row.outcome),
             trim_double(row.achieved_latency, 3),
             std::to_string(row.nodes), trim_double(row.seconds, 6),
             std::to_string(row.stats.simplex_iterations),
             std::to_string(pruned), core::to_string(row.verdict_source)});
  }
}

}  // namespace sparcs::io
