#include "core/formulation.hpp"

#include <algorithm>
#include <limits>
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

namespace {

/// The task graph as a path family's DAG (no target, no terms yet).
milp::PathFamily task_dag(const graph::TaskGraph& graph) {
  milp::PathFamily dag;
  dag.topo_order = graph::topological_order(graph);
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    for (const TaskId s : graph.successors(t)) dag.succ.push_back(s);
    dag.succ_begin.push_back(static_cast<std::int32_t>(dag.succ.size()));
  }
  return dag;
}

}  // namespace

IlpFormulation::IlpFormulation(const graph::TaskGraph& graph,
                               const arch::Device& device, int num_partitions,
                               double d_max, double d_min,
                               FormulationOptions options)
    : graph_(graph),
      device_(device),
      n_(num_partitions),
      model_("tp_n" + std::to_string(num_partitions)) {
  graph.validate();
  device.validate();
  SPARCS_REQUIRE(n_ >= 1, "need at least one partition");

  create_variables();
  add_uniqueness();
  add_temporal_order();
  // The memory rows are implied by uniqueness (1) and the variable bounds
  // when M_max covers all the data any boundary can hold (DESIGN §10).
  if (device_.memory_capacity < max_live_memory(graph_)) add_memory();
  add_resource();
  milp::PathFamily dag = task_dag(graph_);
  dag.count_paths();
  if (static_cast<std::uint64_t>(dag.num_paths) > options.max_paths) {
    SPARCS_ILOG << "the task graph has more than " << options.max_paths
                << " root->leaf paths; (7) uses per-partition potentials "
                   "instead of one row per path";
    add_latency_potentials();
  } else {
    add_latency_path_based(dag);
  }
  add_eta_definition();
  add_latency_window();
  set_window(d_max, d_min);
}

void IlpFormulation::set_window(double d_max, double d_min) {
  SPARCS_REQUIRE(d_min <= d_max, "latency window is empty");
  const double d_ub = std::max(0.0, d_max - device_.reconfig_time_ns);
  for (const VarId d : d_) model_.set_bounds(d, 0.0, d_ub);
  model_.set_rhs(latency_ub_, d_max);
  model_.set_rhs(latency_lb_, d_min);
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

  // set_window() sets the upper bounds.
  d_.clear();
  for (int p = 1; p <= n_; ++p) {
    d_.push_back(model_.add_continuous(0.0, 0.0, "d_p" + std::to_string(p)));
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

// (1): every task placed in exactly one partition with one module set.
void IlpFormulation::add_uniqueness() {
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    model_.add_constraint(y_range_sum(t, 1, n_) == 1.0,
                          "uniq_" + graph_.task(t).name);
  }
}

// (2): a producer may not land in a later partition than its consumer.
// Ordering rows are only needed for the transitive reduction of the edge
// set; edges implied transitively add nothing.
void IlpFormulation::add_temporal_order() {
  for (const int ei : graph::transitive_reduction_edges(graph_)) {
    const graph::DataEdge& e = graph_.edges()[static_cast<std::size_t>(ei)];
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
  w_.assign(graph_.edges().size(), {});
  for (std::size_t ei = 0; ei < graph_.edges().size(); ++ei) {
    const graph::DataEdge& e = graph_.edges()[ei];
    if (e.data_units <= 0.0) continue;
    for (int p = 2; p <= n_; ++p) {
      const VarId wv = model_.add_binary(
          str_format("w_p%d_%s_%s", p, graph_.task(e.from).name.c_str(),
                     graph_.task(e.to).name.c_str()));
      model_.set_branch_hint(wv, 0.0);  // prefer "no crossing"
      w_[ei].push_back(wv);
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
      usage += e.data_units * LinExpr(w_[ei][static_cast<std::size_t>(p - 2)]);
      any = true;
    }
    if (any) {
      model_.add_constraint(std::move(usage) <= device_.memory_capacity,
                            "mem_p" + std::to_string(p));
    }
  }
}

// (6): per-partition area capacity. Summed over the partitions, the same
// terms define each task's area a_t, and sum_t a_t <= N * R_max is a valid
// inequality: it gives the solver's activity-based propagation a global
// view (e.g. total minimum area exceeding N * R_max is detected before any
// branching).
void IlpFormulation::add_resource() {
  std::vector<LinExpr> task_area(static_cast<std::size_t>(graph_.num_tasks()));
  for (int p = 1; p <= n_; ++p) {
    LinExpr usage;
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      const auto& points = graph_.task(t).design_points;
      for (int k = 0; k < num_points(t); ++k) {
        const double area =
            points[static_cast<std::size_t>(design_point_index(t, k))].area;
        usage += LinExpr(y(t, p, k), area);
        task_area[static_cast<std::size_t>(t)] += LinExpr(y(t, p, k), area);
      }
    }
    model_.add_constraint(std::move(usage) <= device_.resource_capacity,
                          "area_p" + std::to_string(p));
  }
  LinExpr total_area;
  a_.clear();
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    const VarId a = model_.add_continuous(graph_.min_area(t),
                                          graph_.max_area(t),
                                          "a_" + graph_.task(t).name);
    a_.push_back(a);
    model_.add_constraint(
        std::move(task_area[static_cast<std::size_t>(t)]) - LinExpr(a) == 0.0,
        "adef_" + graph_.task(t).name);
    total_area += LinExpr(a);
  }
  model_.add_constraint(std::move(total_area) <=
                            static_cast<double>(n_) *
                                device_.resource_capacity,
                        "total_area_cut");
}

// (7): d_p dominates the latency of every root->leaf path restricted to p.
// Each partition's rows form one path family over the task graph, which the
// model builds and the solver propagates as one longest-path constraint.
void IlpFormulation::add_latency_path_based(const milp::PathFamily& dag) {
  for (int p = 1; p <= n_; ++p) {
    milp::PathFamily family = dag;
    family.target = d(p);
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      LinExpr latency = task_latency_in_partition(t, p);
      latency.normalize();  // zero latencies drop out
      family.terms.insert(family.terms.end(), latency.terms().begin(),
                          latency.terms().end());
      family.term_begin.push_back(
          static_cast<std::int32_t>(family.terms.size()));
    }
    model_.add_path_family(std::move(family), "lat_path",
                           "_p" + std::to_string(p));
  }
}

// (7) above the path cap: potentials s_pt >= 0 chained along the edges of
// the transitive reduction, and d_p above every leaf. They project onto
// exactly the path rows' polyhedron (DESIGN.md §3).
void IlpFormulation::add_latency_potentials() {
  const std::vector<int> edges = graph::transitive_reduction_edges(graph_);
  s_.assign(static_cast<std::size_t>(n_), {});
  for (int p = 1; p <= n_; ++p) {
    std::vector<VarId>& s = s_[static_cast<std::size_t>(p - 1)];
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      s.push_back(model_.add_continuous(
          0.0, milp::kInfinity,
          str_format("s_p%d_%s", p, graph_.task(t).name.c_str())));
    }
    // s_pt plus t's latency in p: the longest path in p that ends at t.
    const auto ends_at = [&](TaskId t) {
      return LinExpr(s[static_cast<std::size_t>(t)]) +
             task_latency_in_partition(t, p);
    };
    for (const int ei : edges) {
      const graph::DataEdge& e = graph_.edges()[static_cast<std::size_t>(ei)];
      model_.add_constraint(
          ends_at(e.from) <= LinExpr(s[static_cast<std::size_t>(e.to)]),
          str_format("pot_edge_p%d_%s_%s", p, graph_.task(e.from).name.c_str(),
                     graph_.task(e.to).name.c_str()));
    }
    for (const TaskId t : graph_.leaves()) {
      model_.add_constraint(
          ends_at(t) <= LinExpr(d(p)),
          str_format("pot_leaf_p%d_%s", p, graph_.task(t).name.c_str()));
    }
  }
}

// (8): eta dominates the partition index of every leaf task.
void IlpFormulation::add_eta_definition() {
  for (const TaskId t : graph_.leaves()) {
    LinExpr index;  // sum_{p,m} p * Y_ptm
    for (int p = 1; p <= n_; ++p) index += static_cast<double>(p) * y_sum(t, p);
    model_.add_constraint(std::move(index) - LinExpr(eta_) <= 0.0,
                          "eta_" + graph_.task(t).name);
  }
}

// (9)/(10): total latency (execution plus reconfiguration) inside the
// window; set_window() sets the right-hand sides.
void IlpFormulation::add_latency_window() {
  LinExpr total;
  for (int p = 1; p <= n_; ++p) total += LinExpr(d(p));
  total += LinExpr(eta_, device_.reconfig_time_ns);
  latency_ub_ = model_.add_constraint(total <= 0.0, "latency_ub");
  latency_lb_ = model_.add_constraint(std::move(total) >= 0.0, "latency_lb");
}

void IlpFormulation::apply_hints(const PartitionedDesign& design) {
  SPARCS_REQUIRE(static_cast<int>(design.assignment.size()) ==
                     graph_.num_tasks(),
                 "hint design does not cover all tasks");
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    hint_task(t, design.assignment[static_cast<std::size_t>(t)]);
  }
}

void IlpFormulation::clear_hints() {
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) hint_task(t, {});
}

void IlpFormulation::hint_task(TaskId t, const TaskAssignment& a) {
  const bool usable = a.partition >= 1 && a.partition <= n_;
  for (int p = 1; p <= n_; ++p) {
    for (int k = 0; k < num_points(t); ++k) {
      double hint = std::numeric_limits<double>::quiet_NaN();  // none
      if (usable) {
        hint = p == a.partition && design_point_index(t, k) == a.design_point
                   ? 1.0
                   : 0.0;
      }
      model_.set_branch_hint(y(t, p, k), hint);
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

std::vector<double> IlpFormulation::encode(
    const PartitionedDesign& design) const {
  SPARCS_REQUIRE(static_cast<int>(design.assignment.size()) ==
                     graph_.num_tasks(),
                 "design does not cover all tasks");
  std::vector<double> values(static_cast<std::size_t>(model_.num_vars()), 0.0);
  const auto set = [&](VarId v, double value) {
    values[static_cast<std::size_t>(v)] = value;
  };
  const auto partition_of = [&](TaskId t) {
    return design.assignment[static_cast<std::size_t>(t)].partition;
  };
  int eta = 1;
  for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
    const TaskAssignment& a = design.assignment[static_cast<std::size_t>(t)];
    SPARCS_REQUIRE(a.partition >= 1 && a.partition <= n_,
                   "task " + graph_.task(t).name + " lies outside 1..N");
    int k = 0;
    while (k < num_points(t) && design_point_index(t, k) != a.design_point) ++k;
    SPARCS_REQUIRE(k < num_points(t),
                   "task " + graph_.task(t).name + " has no such design point");
    set(y(t, a.partition, k), 1.0);
    set(a_[static_cast<std::size_t>(t)],
        graph_.task(t).design_points[static_cast<std::size_t>(a.design_point)]
            .area);
    eta = std::max(eta, a.partition);
  }
  set(eta_, eta);
  // w_pe: the edge's data crosses into p (producer before p, consumer at or
  // after it).
  for (std::size_t ei = 0; ei < w_.size(); ++ei) {
    const graph::DataEdge& e = graph_.edges()[ei];
    for (std::size_t i = 0; i < w_[ei].size(); ++i) {
      const int p = static_cast<int>(i) + 2;
      set(w_[ei][i],
          partition_of(e.from) < p && partition_of(e.to) >= p ? 1.0 : 0.0);
    }
  }
  // Longest path in p ending before each task (s_pt), through tasks at
  // their latency in p and zero elsewhere; d_p is the longest over leaves.
  const std::vector<TaskId> topo = graph::topological_order(graph_);
  std::vector<double> start(static_cast<std::size_t>(graph_.num_tasks()));
  for (int p = 1; p <= n_; ++p) {
    std::fill(start.begin(), start.end(), 0.0);
    double longest = 0.0;
    for (const TaskId t : topo) {
      const TaskAssignment& a = design.assignment[static_cast<std::size_t>(t)];
      const double latency =
          a.partition == p ? graph_.task(t)
                                 .design_points[static_cast<std::size_t>(
                                     a.design_point)]
                                 .latency_ns
                           : 0.0;
      const double end = start[static_cast<std::size_t>(t)] + latency;
      longest = std::max(longest, end);
      for (const TaskId s : graph_.successors(t)) {
        double& next = start[static_cast<std::size_t>(s)];
        next = std::max(next, end);
      }
      if (!s_.empty()) {
        set(s_[static_cast<std::size_t>(p - 1)][static_cast<std::size_t>(t)],
            start[static_cast<std::size_t>(t)]);
      }
    }
    set(d(p), longest);
  }
  return values;
}

}  // namespace sparcs::core
