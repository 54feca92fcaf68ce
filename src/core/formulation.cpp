#include "core/formulation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/algorithms.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"

namespace sparcs::core {

using graph::TaskId;
using milp::LinExpr;
using milp::Sense;
using milp::VarId;

IlpFormulation::IlpFormulation(const graph::TaskGraph& graph,
                               const arch::Device& device, int num_partitions,
                               double d_max, double d_min,
                               FormulationOptions options)
    : graph_(graph),
      device_(device),
      n_(num_partitions),
      d_max_(d_max),
      d_min_(d_min),
      options_(options),
      model_("tp_n" + std::to_string(num_partitions)) {
  graph.validate();
  device.validate();
  SPARCS_REQUIRE(n_ >= 1, "need at least one partition");
  SPARCS_REQUIRE(d_min_ <= d_max_, "latency window is empty");

  create_variables();
  add_uniqueness();
  add_temporal_order();
  if (options_.include_memory &&
      std::isfinite(device_.memory_capacity)) {
    add_memory();
  }
  add_resource();
  bool use_paths = options_.latency_form == FormulationOptions::LatencyForm::kPathBased;
  if (use_paths) {
    const graph::PathEnumeration paths =
        graph::enumerate_root_leaf_paths(graph_, options_.max_paths);
    if (paths.truncated) {
      SPARCS_WLOG << "path enumeration exceeded " << options_.max_paths
                  << " paths; falling back to the flow-based latency form";
      use_paths = false;
    }
  }
  if (use_paths) {
    add_latency_path_based();
  } else {
    add_latency_flow_based();
  }
  add_eta_definition();
  add_latency_window();
  if (options_.strengthening_cuts) add_strengthening_cuts();
}

void IlpFormulation::create_variables() {
  const int num_tasks = graph_.num_tasks();
  const std::vector<TaskId> topo = graph::topological_order(graph_);

  y_.assign(static_cast<std::size_t>(num_tasks), {});
  sorted_points_.assign(static_cast<std::size_t>(num_tasks), {});
  for (TaskId t = 0; t < num_tasks; ++t) {
    const auto& points = graph_.task(t).design_points;
    std::vector<int> order(points.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto& pa = points[static_cast<std::size_t>(a)];
      const auto& pb = points[static_cast<std::size_t>(b)];
      if (pa.latency_ns != pb.latency_ns) return pa.latency_ns < pb.latency_ns;
      return pa.area < pb.area;
    });
    sorted_points_[static_cast<std::size_t>(t)] = std::move(order);
  }

  // Y variables in topological task order so the DFS assigns producers
  // before consumers; priority decreases along the topological order.
  int topo_pos = 0;
  for (const TaskId t : topo) {
    auto& slots = y_[static_cast<std::size_t>(t)];
    const int points = num_points(t);
    slots.assign(static_cast<std::size_t>(n_ * points), -1);
    for (int p = 1; p <= n_; ++p) {
      for (int k = 0; k < points; ++k) {
        const auto& dp =
            graph_.task(t).design_points[static_cast<std::size_t>(
                design_point_index(t, k))];
        const VarId v = model_.add_binary(
            str_format("Y_p%d_%s_%s", p, graph_.task(t).name.c_str(),
                       dp.module_set.c_str()));
        model_.set_branch_priority(v, 2 * (num_tasks - topo_pos));
        slots[static_cast<std::size_t>((p - 1) * points + k)] = v;
      }
    }
    ++topo_pos;
  }

  const double d_ub = std::max(0.0, d_max_ - device_.reconfig_time_ns);
  d_.clear();
  for (int p = 1; p <= n_; ++p) {
    d_.push_back(
        model_.add_continuous(0.0, d_ub, "d_p" + std::to_string(p)));
  }
  eta_ = model_.add_integer(1, n_, "eta");
}

VarId IlpFormulation::y(TaskId t, int p, int k) const {
  SPARCS_REQUIRE(p >= 1 && p <= n_, "partition index out of range");
  const auto& slots = y_[static_cast<std::size_t>(t)];
  const int points = num_points(t);
  SPARCS_REQUIRE(k >= 0 && k < points, "design point index out of range");
  return slots[static_cast<std::size_t>((p - 1) * points + k)];
}

int IlpFormulation::num_points(TaskId t) const {
  return static_cast<int>(sorted_points_[static_cast<std::size_t>(t)].size());
}

int IlpFormulation::design_point_index(TaskId t, int k) const {
  return sorted_points_[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
}

VarId IlpFormulation::d(int p) const {
  SPARCS_REQUIRE(p >= 1 && p <= n_, "partition index out of range");
  return d_[static_cast<std::size_t>(p - 1)];
}

LinExpr IlpFormulation::y_sum(TaskId t, int p) const {
  LinExpr expr;
  for (int k = 0; k < num_points(t); ++k) expr += LinExpr(y(t, p, k));
  return expr;
}

LinExpr IlpFormulation::y_range_sum(TaskId t, int p_lo, int p_hi) const {
  LinExpr expr;
  for (int p = std::max(1, p_lo); p <= std::min(n_, p_hi); ++p) {
    expr += y_sum(t, p);
  }
  return expr;
}

LinExpr IlpFormulation::task_latency_expr(TaskId t) const {
  LinExpr expr;
  for (int p = 1; p <= n_; ++p) expr += task_latency_in_partition(t, p);
  return expr;
}

LinExpr IlpFormulation::task_latency_in_partition(TaskId t, int p) const {
  LinExpr expr;
  const auto& points = graph_.task(t).design_points;
  for (int k = 0; k < num_points(t); ++k) {
    const double latency =
        points[static_cast<std::size_t>(design_point_index(t, k))].latency_ns;
    expr += LinExpr(y(t, p, k), latency);
  }
  return expr;
}

LinExpr IlpFormulation::partition_index_expr(TaskId t) const {
  LinExpr expr;
  for (int p = 1; p <= n_; ++p) {
    for (int k = 0; k < num_points(t); ++k) {
      expr += LinExpr(y(t, p, k), static_cast<double>(p));
    }
  }
  return expr;
}

// (1): every task placed in exactly one partition with one module set.
void IlpFormulation::add_uniqueness() {
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    model_.add_constraint(y_range_sum(t, 1, n_) == 1.0,
                          "uniq_" + graph_.task(t).name);
  }
}

// (2): a producer may not land in a later partition than its consumer.
// Ordering rows are only needed for the transitive reduction of the edge
// set; edges implied transitively add nothing (optional, on by default).
void IlpFormulation::add_temporal_order() {
  std::vector<int> order_edges;
  if (options_.reduce_order_edges) {
    order_edges = graph::transitive_reduction_edges(graph_);
  } else {
    order_edges.resize(static_cast<std::size_t>(graph_.num_edges()));
    for (int e = 0; e < graph_.num_edges(); ++e) {
      order_edges[static_cast<std::size_t>(e)] = e;
    }
  }
  for (const int ei : order_edges) {
    const graph::DataEdge& e = graph_.edges()[static_cast<std::size_t>(ei)];
    if (options_.order_form == FormulationOptions::OrderForm::kAggregated) {
      model_.add_constraint(
          partition_index_expr(e.from) <= partition_index_expr(e.to),
          str_format("order_%s_%s", graph_.task(e.from).name.c_str(),
                     graph_.task(e.to).name.c_str()));
      continue;
    }
    for (int p = 1; p <= n_ - 1; ++p) {
      // t2 in partition p excludes t1 from partitions p+1..N.
      LinExpr lhs = y_sum(e.to, p) + y_range_sum(e.from, p + 1, n_);
      model_.add_constraint(
          std::move(lhs) <= 1.0,
          str_format("order_%s_%s_p%d", graph_.task(e.from).name.c_str(),
                     graph_.task(e.to).name.c_str(), p));
    }
  }
}

// (3)-(5): live data while partition p executes must fit in M_max.
void IlpFormulation::add_memory() {
  // One w variable per edge per partition p in 2..N, with the linearized
  // lower bound w >= sum(t1 in 1..p-1) + sum(t2 in p..N) - 1 (eqs (4)/(5)).
  std::vector<std::vector<VarId>> w(graph_.edges().size());
  for (std::size_t ei = 0; ei < graph_.edges().size(); ++ei) {
    const graph::DataEdge& e = graph_.edges()[ei];
    if (e.data_units <= 0.0) continue;
    for (int p = 2; p <= n_; ++p) {
      const VarId wv = model_.add_binary(
          str_format("w_p%d_%s_%s", p, graph_.task(e.from).name.c_str(),
                     graph_.task(e.to).name.c_str()));
      model_.set_branch_hint(wv, 0.0);  // prefer "no crossing"
      w[ei].push_back(wv);
      LinExpr forcing = y_range_sum(e.from, 1, p - 1) +
                        y_range_sum(e.to, p, n_) - LinExpr(wv);
      model_.add_constraint(std::move(forcing) <= 1.0,
                            str_format("wdef_p%d_e%zu", p, ei));
    }
  }

  for (int p = 1; p <= n_; ++p) {
    LinExpr usage;
    bool any = false;
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      const graph::Task& task = graph_.task(t);
      if (task.env_in > 0.0) {
        usage += task.env_in * y_range_sum(t, p, n_);
        any = true;
      }
      if (task.env_out > 0.0) {
        usage += task.env_out * y_range_sum(t, 1, p);
        any = true;
      }
    }
    for (std::size_t ei = 0; ei < graph_.edges().size(); ++ei) {
      const graph::DataEdge& e = graph_.edges()[ei];
      if (e.data_units <= 0.0 || p < 2) continue;
      usage += e.data_units * LinExpr(w[ei][static_cast<std::size_t>(p - 2)]);
      any = true;
    }
    if (any) {
      model_.add_constraint(std::move(usage) <= device_.memory_capacity,
                            "mem_p" + std::to_string(p));
    }
  }
}

// (6): per-partition area capacity.
void IlpFormulation::add_resource() {
  for (int p = 1; p <= n_; ++p) {
    LinExpr usage;
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      const auto& points = graph_.task(t).design_points;
      for (int k = 0; k < num_points(t); ++k) {
        const double area =
            points[static_cast<std::size_t>(design_point_index(t, k))].area;
        usage += LinExpr(y(t, p, k), area);
      }
    }
    model_.add_constraint(std::move(usage) <= device_.resource_capacity,
                          "area_p" + std::to_string(p));
  }
}

// (7): d_p dominates the latency of every root->leaf path restricted to p.
void IlpFormulation::add_latency_path_based() {
  const graph::PathEnumeration paths =
      graph::enumerate_root_leaf_paths(graph_, options_.max_paths);
  SPARCS_CHECK(!paths.truncated, "caller must have checked the path cap");
  for (std::size_t pi = 0; pi < paths.paths.size(); ++pi) {
    for (int p = 1; p <= n_; ++p) {
      LinExpr lhs;
      for (const TaskId t : paths.paths[pi]) {
        lhs += task_latency_in_partition(t, p);
      }
      lhs -= LinExpr(d(p));
      model_.add_constraint(std::move(lhs) <= 0.0,
                            str_format("lat_path%zu_p%d", pi, p));
    }
  }
}

// Flow-based alternative to (7): completion times chain along edges that do
// not cross a partition boundary; d_p dominates completions inside p.
void IlpFormulation::add_latency_flow_based() {
  const double big_m = std::max(0.0, d_max_ - device_.reconfig_time_ns);
  std::vector<VarId> completion;
  completion.reserve(static_cast<std::size_t>(graph_.num_tasks()));
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    const VarId c = model_.add_continuous(0.0, big_m,
                                          "c_" + graph_.task(t).name);
    completion.push_back(c);
    // Completion covers at least the task's own latency.
    model_.add_constraint(task_latency_expr(t) - LinExpr(c) <= 0.0,
                          "cself_" + graph_.task(t).name);
  }
  for (std::size_t ei = 0; ei < graph_.edges().size(); ++ei) {
    const graph::DataEdge& e = graph_.edges()[ei];
    // z = 1 iff the edge crosses partitions.
    const VarId z = model_.add_binary(str_format(
        "z_%s_%s", graph_.task(e.from).name.c_str(),
        graph_.task(e.to).name.c_str()));
    LinExpr diff = partition_index_expr(e.to) - partition_index_expr(e.from);
    model_.add_constraint(static_cast<double>(n_) * LinExpr(z) >= diff,
                          str_format("zlo_e%zu", ei));
    model_.add_constraint(LinExpr(z) <= diff, str_format("zhi_e%zu", ei));
    // Same-partition chaining: c_t2 >= c_t1 + latency(t2) - M*z.
    LinExpr chain =
        LinExpr(completion[static_cast<std::size_t>(e.from)]) +
        task_latency_expr(e.to) - LinExpr(completion[static_cast<std::size_t>(e.to)]) -
        big_m * LinExpr(z);
    model_.add_constraint(std::move(chain) <= 0.0,
                          str_format("chain_e%zu", ei));
  }
  // d_p >= c_t when t is in p.
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    for (int p = 1; p <= n_; ++p) {
      LinExpr lhs = LinExpr(completion[static_cast<std::size_t>(t)]) -
                    LinExpr(d(p)) - big_m * (1.0 - y_sum(t, p));
      model_.add_constraint(std::move(lhs) <= 0.0,
                            str_format("dcover_%s_p%d",
                                       graph_.task(t).name.c_str(), p));
    }
  }
}

// (8): eta dominates the partition index of every leaf task.
void IlpFormulation::add_eta_definition() {
  for (const TaskId t : graph_.leaves()) {
    model_.add_constraint(partition_index_expr(t) - LinExpr(eta_) <= 0.0,
                          "eta_" + graph_.task(t).name);
  }
}

// (9)/(10): total latency (execution plus reconfiguration) inside the window.
void IlpFormulation::add_latency_window() {
  LinExpr total;
  for (int p = 1; p <= n_; ++p) total += LinExpr(d(p));
  total += LinExpr(eta_, device_.reconfig_time_ns);
  model_.add_constraint(total <= d_max_, "latency_ub");
  LinExpr total2;
  for (int p = 1; p <= n_; ++p) total2 += LinExpr(d(p));
  total2 += LinExpr(eta_, device_.reconfig_time_ns);
  model_.add_constraint(std::move(total2) >= d_min_, "latency_lb");
}

// Valid inequalities: per-task area/latency aggregation variables give the
// solver's activity-based propagation a global view (e.g. total minimum area
// exceeding N * R_max is detected before any branching).
void IlpFormulation::add_strengthening_cuts() {
  LinExpr total_area;
  std::vector<VarId> task_latency_vars(
      static_cast<std::size_t>(graph_.num_tasks()), -1);
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    const auto& points = graph_.task(t).design_points;
    const VarId a = model_.add_continuous(graph_.min_area(t),
                                          graph_.max_area(t),
                                          "a_" + graph_.task(t).name);
    LinExpr area_expr;
    for (int p = 1; p <= n_; ++p) {
      for (int k = 0; k < num_points(t); ++k) {
        area_expr += LinExpr(
            y(t, p, k),
            points[static_cast<std::size_t>(design_point_index(t, k))].area);
      }
    }
    model_.add_constraint(std::move(area_expr) - LinExpr(a) == 0.0,
                          "adef_" + graph_.task(t).name);
    total_area += LinExpr(a);

    const VarId l = model_.add_continuous(graph_.min_latency(t),
                                          graph_.max_latency(t),
                                          "l_" + graph_.task(t).name);
    model_.add_constraint(task_latency_expr(t) - LinExpr(l) == 0.0,
                          "ldef_" + graph_.task(t).name);
    task_latency_vars[static_cast<std::size_t>(t)] = l;
  }
  model_.add_constraint(std::move(total_area) <=
                            static_cast<double>(n_) *
                                device_.resource_capacity,
                        "total_area_cut");

  // For every root->leaf path: its tasks' latencies, wherever they land,
  // are covered by the sum of partition latencies.
  const graph::PathEnumeration paths =
      graph::enumerate_root_leaf_paths(graph_, options_.max_paths);
  if (!paths.truncated) {
    LinExpr dsum;
    for (int p = 1; p <= n_; ++p) dsum += LinExpr(d(p));
    for (std::size_t pi = 0; pi < paths.paths.size(); ++pi) {
      LinExpr lhs;
      for (const TaskId t : paths.paths[pi]) {
        lhs += LinExpr(task_latency_vars[static_cast<std::size_t>(t)]);
      }
      lhs -= dsum;
      model_.add_constraint(std::move(lhs) <= 0.0,
                            str_format("path_cut%zu", pi));
    }
  }
}

void IlpFormulation::apply_hints(const PartitionedDesign& design) {
  SPARCS_REQUIRE(static_cast<int>(design.assignment.size()) ==
                     graph_.num_tasks(),
                 "hint design does not cover all tasks");
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    const TaskAssignment& a = design.assignment[static_cast<std::size_t>(t)];
    if (a.partition < 1 || a.partition > n_) continue;  // not hintable here
    for (int p = 1; p <= n_; ++p) {
      for (int k = 0; k < num_points(t); ++k) {
        const bool selected =
            p == a.partition && design_point_index(t, k) == a.design_point;
        model_.set_branch_hint(y(t, p, k), selected ? 1.0 : 0.0);
      }
    }
  }
}

void IlpFormulation::set_latency_objective() {
  LinExpr obj;
  for (int p = 1; p <= n_; ++p) obj += LinExpr(d(p));
  obj += LinExpr(eta_, device_.reconfig_time_ns);
  model_.set_objective(std::move(obj), /*minimize=*/true);
}

PartitionedDesign IlpFormulation::decode(
    const std::vector<double>& values) const {
  SPARCS_REQUIRE(static_cast<int>(values.size()) == model_.num_vars(),
                 "assignment arity mismatch");
  PartitionedDesign design;
  design.num_partitions_allocated = n_;
  design.assignment.assign(static_cast<std::size_t>(graph_.num_tasks()), {});
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    bool found = false;
    for (int p = 1; p <= n_ && !found; ++p) {
      for (int k = 0; k < num_points(t) && !found; ++k) {
        if (values[static_cast<std::size_t>(y(t, p, k))] > 0.5) {
          design.assignment[static_cast<std::size_t>(t)] =
              TaskAssignment{p, design_point_index(t, k)};
          found = true;
        }
      }
    }
    SPARCS_CHECK(found, "no Y variable selected for task " +
                            graph_.task(t).name);
  }
  recompute_latency(graph_, device_, design);
  return design;
}

}  // namespace sparcs::core
