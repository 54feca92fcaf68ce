// JSON rendering of SolverStats, including the convergence timeline. Lives
// in its own translation unit so types.hpp stays header-only apart from it
// and the support/report_writer dependency does not leak into every
// include of the solver types.
#include "milp/types.hpp"

#include "support/report_writer.hpp"

namespace sparcs::milp {

void write_convergence(report::ReportWriter& w,
                       const std::vector<ConvergenceEvent>& events) {
  w.begin_array("convergence");
  for (const ConvergenceEvent& event : events) {
    w.begin_object();
    w.field("t_sec", event.t_sec);
    w.field("objective", event.objective);
    w.field("nodes", event.nodes);
    w.field("kind", "incumbent");
    w.end_object();
  }
  w.end_array();
}

std::string SolverStats::to_json() const {
  report::ReportWriter w;
  w.begin_object();
  for (const SolverStatsField& f : kSolverStatsFields) {
    w.field(f.name, this->*f.member);
  }
  write_convergence(w, convergence);
  w.end_object();
  return w.str();
}

}  // namespace sparcs::milp
