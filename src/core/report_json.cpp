// JSON rendering of the core result structs through the shared ReportWriter,
// so PartitionerReport, RefinePartitionsResult and OptimalResult agree on
// field names and number formatting (the CLI's --report-json contract).
#include "core/partitioner.hpp"
#include "core/refine_partitions.hpp"
#include "support/report_writer.hpp"

namespace sparcs::core {
namespace {

void write_solver_stats(report::ReportWriter& w,
                        const milp::SolverStats& stats) {
  // Delegates to the canonical renderer so the report, the telemetry stream
  // and the CLI agree on the schema (including the convergence timeline).
  w.raw_field("solver_stats", stats.to_json());
}

void write_stages(report::ReportWriter& w,
                  const std::vector<StageAccount>& stages) {
  w.begin_array("stages");
  for (const StageAccount& stage : stages) {
    w.begin_object();
    w.field("N", stage.num_partitions);
    w.field("status", to_string(stage.status));
    w.field("solves", stage.solves);
    w.field("seconds", stage.seconds);
    w.end_object();
  }
  w.end_array();
}

void write_trace(report::ReportWriter& w, const Trace& trace) {
  w.begin_array("trace");
  for (const IterationRecord& row : trace) {
    w.begin_object();
    w.field("N", row.num_partitions);
    w.field("iteration", row.iteration);
    w.field("d_max_ns", row.d_max_bound);
    w.field("d_min_ns", row.d_min_bound);
    w.field("outcome", to_string(row.outcome));
    w.field("achieved_latency_ns", row.achieved_latency);
    w.field("seconds", row.seconds);
    w.field("nodes", row.nodes);
    if (row.certified != milp::CertifyStatus::kNotRequested) {
      w.field("certified", milp::to_string(row.certified));
    }
    // Per-(N, iteration) convergence timeline of the probe's solve.
    milp::write_convergence(w, row.stats.convergence);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::string RefinePartitionsResult::to_json() const {
  report::ReportWriter w;
  w.begin_object();
  w.field("feasible", best.has_value());
  w.field("achieved_latency_ns", achieved_latency);
  w.field("best_num_partitions", best_num_partitions);
  w.field("ilp_solves", ilp_solves);
  w.field("seconds", seconds);
  w.field("stopped_by_lower_bound", stopped_by_lower_bound);
  w.field("degraded", degraded);
  write_stages(w, stages);
  write_solver_stats(w, solver_stats);
  write_trace(w, trace);
  w.end_object();
  return w.str();
}

std::string PartitionerReport::to_json() const {
  report::ReportWriter w;
  w.begin_object();
  w.field("feasible", feasible);
  w.field("achieved_latency_ns", achieved_latency);
  w.field("best_num_partitions", best_num_partitions);
  w.field("ilp_solves", ilp_solves);
  w.field("seconds", seconds);
  w.field("stopped_by_lower_bound", stopped_by_lower_bound);
  w.field("degraded", degraded);
  w.field("watchdog_fired", watchdog_fired);
  w.field("n_min_lower", n_min_lower);
  w.field("n_min_upper", n_min_upper);
  w.field("delta_used_ns", delta_used);
  w.field("resumed", resumed);
  if (!resume_error.empty()) w.field("resume_error", resume_error);
  write_stages(w, stages);
  write_solver_stats(w, solver_stats);
  write_trace(w, trace);
  w.end_object();
  return w.str();
}

std::string OptimalResult::to_json() const {
  report::ReportWriter w;
  w.begin_object();
  w.field("status", milp::to_string(status));
  w.field("feasible", best.has_value());
  w.field("latency_ns", latency_ns);
  w.field("seconds", seconds);
  w.field("nodes", nodes);
  write_solver_stats(w, solver_stats);
  w.end_object();
  return w.str();
}

}  // namespace sparcs::core
