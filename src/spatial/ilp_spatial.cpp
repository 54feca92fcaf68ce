#include "spatial/ilp_spatial.hpp"

#include <algorithm>

#include "milp/model.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace sparcs::spatial {

IlpSpatialResult spatial_partition_ilp(const Netlist& netlist,
                                       const Board& board, bool to_optimality,
                                       milp::SolverParams solver_params) {
  netlist.validate();
  board.validate();

  milp::Model model("spatial");
  const int n = netlist.num_nodes();
  const int k_max = board.num_fpgas;

  // X_nk: node n on device k. Created node-major so the DFS assigns whole
  // nodes before moving on; bigger nodes first (first-fail on area).
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return netlist.nodes[static_cast<std::size_t>(a)].area >
           netlist.nodes[static_cast<std::size_t>(b)].area;
  });

  std::vector<std::vector<milp::VarId>> x(
      static_cast<std::size_t>(n));
  int priority = n;
  for (const int node : order) {
    auto& row = x[static_cast<std::size_t>(node)];
    for (int k = 0; k < k_max; ++k) {
      const milp::VarId v = model.add_binary(
          str_format("X_%s_f%d",
                     netlist.nodes[static_cast<std::size_t>(node)].name.c_str(),
                     k));
      model.set_branch_priority(v, priority);
      row.push_back(v);
    }
    --priority;
  }

  for (int node = 0; node < n; ++node) {
    milp::LinExpr sum;
    for (int k = 0; k < k_max; ++k) {
      sum += milp::LinExpr(x[static_cast<std::size_t>(node)][static_cast<std::size_t>(k)]);
    }
    model.add_constraint(std::move(sum) == 1.0,
                         "uniq_" + std::to_string(node));
  }
  for (int k = 0; k < k_max; ++k) {
    milp::LinExpr usage;
    for (int node = 0; node < n; ++node) {
      usage += milp::LinExpr(
          x[static_cast<std::size_t>(node)][static_cast<std::size_t>(k)],
          netlist.nodes[static_cast<std::size_t>(node)].area);
    }
    model.add_constraint(std::move(usage) <= board.fpga_capacity,
                         "cap_f" + std::to_string(k));
  }

  milp::LinExpr cut;
  for (std::size_t e = 0; e < netlist.nets.size(); ++e) {
    const Net& net = netlist.nets[e];
    if (net.weight <= 0.0) continue;
    const milp::VarId c = model.add_binary("cut_e" + std::to_string(e));
    model.set_branch_hint(c, 0.0);
    for (int k = 0; k < k_max; ++k) {
      milp::LinExpr lhs =
          milp::LinExpr(x[static_cast<std::size_t>(net.a)][static_cast<std::size_t>(k)]) -
          milp::LinExpr(x[static_cast<std::size_t>(net.b)][static_cast<std::size_t>(k)]) -
          milp::LinExpr(c);
      model.add_constraint(std::move(lhs) <= 0.0,
                           str_format("cutdef_e%zu_f%d", e, k));
    }
    cut += milp::LinExpr(c, net.weight);
  }
  model.add_constraint(cut, milp::Sense::kLessEqual,
                       board.interconnect_capacity, "interconnect");
  model.set_objective(cut, /*minimize=*/true);

  // Symmetry breaking: the largest node sits on device 0. Devices are
  // interchangeable, so this loses no solutions but prunes k_max-fold
  // duplicates.
  if (!order.empty()) {
    model.tighten_bounds(
        x[static_cast<std::size_t>(order.front())][0], 1.0, 1.0);
  }

  Stopwatch stopwatch;
  solver_params.stop_at_first_feasible = !to_optimality;
  if (to_optimality) {
    solver_params.use_lp_bounding = true;
    solver_params.objective_improvement =
        std::max(solver_params.objective_improvement, 1e-3);
  }
  milp::Solver solver(model, solver_params);
  const milp::MilpSolution solution = solver.solve();

  IlpSpatialResult result;
  result.status = solution.status;
  result.nodes_explored = solution.stats.nodes_explored;
  result.seconds = stopwatch.seconds();
  if (solution.has_solution()) {
    SpatialAssignment assignment;
    assignment.fpga_of.assign(static_cast<std::size_t>(n), -1);
    for (int node = 0; node < n; ++node) {
      for (int k = 0; k < k_max; ++k) {
        if (solution.values[static_cast<std::size_t>(
                x[static_cast<std::size_t>(node)][static_cast<std::size_t>(k)])] >
            0.5) {
          assignment.fpga_of[static_cast<std::size_t>(node)] = k;
        }
      }
      SPARCS_CHECK(assignment.fpga_of[static_cast<std::size_t>(node)] >= 0,
                   "spatial ILP returned an unassigned node");
    }
    assignment.cut_weight = cut_weight(netlist, assignment.fpga_of);
    result.assignment = std::move(assignment);
  }
  return result;
}

}  // namespace sparcs::spatial
