#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "milp/simplex.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/span.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace sparcs::core {
namespace {

/// Tasks with identical design points, as (D(m), R(m)) sorted by latency.
struct TaskClass {
  std::vector<std::pair<double, double>> points;
  int tasks = 0;
};

/// The data of LB(N)'s level-packing relaxation (bounds.hpp): the levels are
/// the distinct D(m) of the graph, since a partition's level is one of its
/// tasks' latencies.
struct LevelRelaxation {
  std::vector<double> levels;  ///< ascending
  std::vector<TaskClass> classes;
  int min_partitions = 1;  ///< MinAreaPartitions()

  LevelRelaxation(const graph::TaskGraph& graph, const arch::Device& device)
      : min_partitions(min_area_partitions(graph, device)) {
    std::map<std::vector<std::pair<double, double>>, int> tasks;
    for (const graph::Task& task : graph.tasks()) {
      std::vector<std::pair<double, double>> points;
      for (const graph::DesignPoint& point : task.design_points) {
        points.emplace_back(point.latency_ns, point.area);
        levels.push_back(point.latency_ns);
      }
      std::sort(points.begin(), points.end());
      ++tasks[points];
    }
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    for (auto& [points, count] : tasks) classes.push_back({points, count});
  }

  /// One c per level plus one x per (class, level no faster than the
  /// class's fastest point).
  [[nodiscard]] int num_vars() const {
    std::size_t vars = levels.size();
    for (const TaskClass& cls : classes) {
      vars += static_cast<std::size_t>(
          levels.end() - std::lower_bound(levels.begin(), levels.end(),
                                          cls.points.front().first));
    }
    return static_cast<int>(vars);
  }

  /// The relaxation for `num_partitions`; `cost` receives
  /// sum_l c_l (l + C_T), which the caller minimizes or bounds.
  [[nodiscard]] milp::Model model(const arch::Device& device,
                                  int num_partitions,
                                  milp::LinExpr& cost) const {
    milp::Model model("latency_relaxation_n" +
                      std::to_string(num_partitions));
    std::vector<milp::LinExpr> area(levels.size());
    milp::LinExpr used;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const milp::VarId c = model.add_integer(
          0, num_partitions, "c_" + trim_double(levels[l]));
      cost += milp::LinExpr(c, levels[l] + device.reconfig_time_ns);
      used += milp::LinExpr(c);
      area[l] -= milp::LinExpr(c, device.resource_capacity);
    }
    for (std::size_t k = 0; k < classes.size(); ++k) {
      const TaskClass& cls = classes[k];
      milp::LinExpr cover;
      double cheapest = milp::kInfinity;  // a_k(l): least area with D <= l
      std::size_t next = 0;
      for (std::size_t l = 0; l < levels.size(); ++l) {
        for (; next < cls.points.size() && cls.points[next].first <= levels[l];
             ++next) {
          cheapest = std::min(cheapest, cls.points[next].second);
        }
        if (next == 0) continue;  // no point of the class is this fast
        const milp::VarId x = model.add_continuous(
            0, cls.tasks, str_format("x_k%zu_", k) + trim_double(levels[l]));
        cover += milp::LinExpr(x);
        area[l] += milp::LinExpr(x, cheapest);
      }
      model.add_constraint(std::move(cover) == static_cast<double>(cls.tasks),
                           str_format("cover_k%zu", k));
    }
    for (std::size_t l = 0; l < levels.size(); ++l) {
      model.add_constraint(std::move(area[l]) <= 0.0,
                           "area_" + trim_double(levels[l]));
    }
    // Each used partition holds at most R_max of the cheapest areas, so
    // every design uses at least MinAreaPartitions() of them.
    model.add_constraint(
        milp::LinExpr(used) >= static_cast<double>(min_partitions),
        "min_partitions");
    model.add_constraint(std::move(used) <= static_cast<double>(num_partitions),
                         "partitions");
    return model;
  }
};

/// `solver` narrowed to the one-thread, uncertified search LB(N) runs.
milp::SolverParams relaxation_params(milp::SolverParams solver) {
  solver.num_threads = 1;
  solver.certify = milp::CertifyMode::kOff;
  return solver;
}

}  // namespace

int min_area_partitions(const graph::TaskGraph& graph,
                        const arch::Device& device) {
  graph.validate();
  device.validate();
  const double total = graph::total_task_weight(
      graph, [&](graph::TaskId t) { return graph.min_area(t); });
  return std::max(
      1, static_cast<int>(std::ceil(total / device.resource_capacity - 1e-9)));
}

int max_area_partitions(const graph::TaskGraph& graph,
                        const arch::Device& device) {
  graph.validate();
  device.validate();
  const double total = graph::total_task_weight(
      graph, [&](graph::TaskId t) { return graph.max_area(t); });
  return std::max(
      1, static_cast<int>(std::ceil(total / device.resource_capacity - 1e-9)));
}

double max_latency(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions) {
  SPARCS_REQUIRE(num_partitions >= 1, "need at least one partition");
  const double serial = graph::total_task_weight(
      graph, [&](graph::TaskId t) { return graph.max_latency(t); });
  return serial + num_partitions * device.reconfig_time_ns;
}

double min_latency(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions) {
  SPARCS_REQUIRE(num_partitions >= 1, "need at least one partition");
  return graph::min_latency_critical_path(graph) +
         num_partitions * device.reconfig_time_ns;
}

LatencyBound latency_relaxation_bound(const graph::TaskGraph& graph,
                                      const arch::Device& device,
                                      int num_partitions,
                                      const milp::SolverParams& solver,
                                      bool solve_milp) {
  graph.validate();
  device.validate();
  const double floor = min_latency(graph, device, num_partitions);
  trace::Span span("Latency_Bound");
  span.arg("N", static_cast<std::int64_t>(num_partitions));
  Stopwatch stopwatch;
  const LevelRelaxation relaxation(graph, device);
  const int vars = relaxation.num_vars();
  span.arg("vars", static_cast<std::int64_t>(vars));
  double lp = -milp::kInfinity;
  LatencyBound bound{floor, LatencyBoundSource::kMinLatency, {}};
  std::int64_t nodes = 0;
  if (vars <= milp::kLpBoundingMaxVars) {
    milp::LinExpr cost;
    milp::Model model = relaxation.model(device, num_partitions, cost);
    model.set_objective(std::move(cost));
    const milp::LpResult relaxed = milp::solve_lp(milp::relaxation_of(model));
    if (relaxed.status == milp::LpStatus::kOptimal) lp = relaxed.objective;
    // Only an LP above the floor can lift the MILP above it.
    if (lp > floor) bound = {lp, LatencyBoundSource::kLp, {}};
    if (lp > floor && solve_milp) {
      // Dive toward the LP's packing: try each count c_l (variable l) at its
      // rounded-up LP value first, and branch on the counts the LP left
      // fractional before the other ones it uses.
      for (std::size_t l = 0; l < relaxation.levels.size(); ++l) {
        const milp::VarId c = static_cast<milp::VarId>(l);
        const double value = relaxed.x[l];
        model.set_branch_hint(c, std::ceil(value - 1e-6));
        if (value > 1e-6) {
          model.set_branch_priority(
              c, std::abs(value - std::round(value)) > 1e-6 ? 2 : 1);
        }
      }
      const milp::MilpSolution exact =
          milp::Solver(model,
                       milp::optimality_params(relaxation_params(solver)))
              .solve();
      nodes = exact.stats.nodes_explored;
      if (exact.status == milp::SolveStatus::kOptimal) {
        bound = {std::max(lp, exact.objective), LatencyBoundSource::kMilp, {}};
        for (std::size_t l = 0; l < relaxation.levels.size(); ++l) {
          bound.levels.insert(bound.levels.end(),
                              static_cast<std::size_t>(std::lround(
                                  exact.values[l])),
                              relaxation.levels[l]);
        }
      }
    }
  }
  static constexpr const char* kSourceNames[] = {"MinLatency", "LP", "MILP"};
  const char* source = kSourceNames[static_cast<int>(bound.source)];
  span.arg("lp", lp);
  span.arg("lb", bound.ns);
  span.arg("nodes", nodes);
  span.arg("source", std::string(source));
  SPARCS_DLOG << "LB(N=" << num_partitions << ") = " << bound.ns << " ns from "
              << source << " (MinLatency " << floor << ", LP " << lp << ", "
              << vars << " vars, " << nodes << " MILP nodes) in "
              << stopwatch.seconds() << " s";
  return bound;
}

milp::MilpSolution certify_latency_bound(const graph::TaskGraph& graph,
                                         const arch::Device& device,
                                         int num_partitions, double target,
                                         const milp::SolverParams& solver) {
  graph.validate();
  device.validate();
  milp::LinExpr cost;
  milp::Model model =
      LevelRelaxation(graph, device).model(device, num_partitions, cost);
  model.add_constraint(std::move(cost) <= target, "latency_ub");
  milp::SolverParams params = relaxation_params(solver);
  params.certify = milp::CertifyMode::kFull;
  return milp::Solver(model, milp::first_feasible_params(params)).solve();
}

}  // namespace sparcs::core
