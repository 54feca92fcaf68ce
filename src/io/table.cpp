#include "io/table.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace sparcs::io {

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  SPARCS_REQUIRE(!header_.empty(), "table needs at least one column");
}

void AsciiTable::add_row(std::vector<std::string> row) {
  SPARCS_REQUIRE(row.size() == header_.size(),
                 "row arity does not match header");
  rows_.push_back(std::move(row));
}

void AsciiTable::add_separator() { rows_.emplace_back(); }

std::string AsciiTable::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto line = [&](char fill) {
    std::string out = "+";
    for (const std::size_t w : width) {
      out += std::string(w + 2, fill);
      out += "+";
    }
    return out + "\n";
  };
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out = "|";
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out += " " + cell + std::string(width[c] - cell.size(), ' ') + " |";
    }
    return out + "\n";
  };
  std::ostringstream os;
  os << line('-') << render_row(header_) << line('=');
  for (const auto& row : rows_) {
    if (row.empty()) {
      os << line('-');
    } else {
      os << render_row(row);
    }
  }
  os << line('-');
  return os.str();
}

std::string render_trace(const core::Trace& trace, double ct_ns,
                         bool subtract_reconfig) {
  AsciiTable table({"N", "I", "Dmax(ns)", "Dmin(ns)", "Da(ns)", "nodes",
                    "pruned", "LPit", "T(ms)"});
  int last_n = -1;
  for (const core::IterationRecord& row : trace) {
    if (last_n >= 0 && row.num_partitions != last_n) table.add_separator();
    last_n = row.num_partitions;
    const double shift =
        subtract_reconfig ? row.num_partitions * ct_ns : 0.0;
    std::string da;
    switch (row.outcome) {
      case core::IterationOutcome::kFeasible:
        da = trim_double(row.achieved_latency - shift, 1);
        if (row.verdict_source == core::VerdictSource::kWarmStart) {
          da += " (WS)";
        }
        break;
      case core::IterationOutcome::kInfeasible:
        da = row.verdict_source == core::VerdictSource::kLatencyBound
                 ? "Inf. (LB)"
                 : "Inf.";
        break;
      case core::IterationOutcome::kLimit:
        da = "Limit";
        break;
      case core::IterationOutcome::kUncertified:
        da = "Uncert.";
        break;
    }
    table.add_row({std::to_string(row.num_partitions),
                   std::to_string(row.iteration),
                   trim_double(row.d_max_bound - shift, 1),
                   trim_double(row.d_min_bound - shift, 1), da,
                   std::to_string(row.nodes),
                   std::to_string(row.stats.nodes_pruned_by_bound +
                                  row.stats.nodes_pruned_infeasible),
                   std::to_string(row.stats.simplex_iterations),
                   trim_double(row.seconds * 1e3, 2)});
  }
  return table.to_string();
}

}  // namespace sparcs::io
