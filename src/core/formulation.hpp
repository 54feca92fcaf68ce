// ILP formulation of combined temporal partitioning and design space
// exploration (Section 3.2.3 of the paper).
//
// Variables:
//   Y_ptm  binary — task t in partition p using module set m  (uniqueness (1))
//   w_pt1t2 binary — edge (t1,t2) crosses the boundary into partition p,
//           i.e. t1 in 1..p-1 while t2 in p..N (memory modeling (3)-(5))
//   d_p    continuous — execution latency of partition p (7)
//   eta    integer — number of partitions actually used (8)
// Constraints: uniqueness (1), temporal order (2), memory (3) with the
// linearized w lower bounds (4)/(5), resource (6), per-partition latency via
// root->leaf paths (7), eta definition (8), and the latency window (9)/(10)
//   sum_p d_p + eta*C_T in [Dmin, Dmax].
// The path rows of (7) for partition p are one milp::PathFamily: the
// formulation hands over the target d_p, the task graph and each task's
// D(m)*Y_ptm terms, and Model::add_path_family builds the rows
// lat_path{i}_p{p}, one per root->leaf path in the family's path order. The
// solver propagates them as one longest-path constraint, and one family
// visit counts as one propagation visit. The rows stay in the model for the
// LP, the certificate checker and certificates.
// The memory block (w, (3)-(5)) is built only when M_max is below
// max_live_memory(graph): otherwise (1) and the variable bounds imply it
// (DESIGN.md §10), and it would only slow propagation down. Temporal-order
// rows (2) are built for the transitive reduction of the edge set only:
// an edge implied by a longer path adds no ordering information.
//
// Beyond the paper's model:
//  - when the task graph has more than FormulationOptions::max_paths
//    root->leaf paths (counted by milp::PathFamily::count_paths, saturating
//    instead of overflowing), (7) is built from per-partition potentials
//    s_pt >= 0: s_pv >= s_pu + sum_m D(m)*Y_pum per reduction edge and
//    d_p >= s_pt + sum_m D(m)*Y_ptm per leaf, plain rows that project onto
//    exactly the path rows' polyhedron (DESIGN.md §3);
//  - one valid inequality: per-task area variables a_t, defined by (6)'s
//    terms summed over the partitions, and the total-area row
//    sum_t a_t <= N * R_max, which lets the solver's bound propagation
//    detect that the tasks cannot fit in N partitions before branching.
#pragma once

#include <vector>

#include "arch/device.hpp"
#include "core/solution.hpp"
#include "graph/algorithms.hpp"
#include "graph/task_graph.hpp"
#include "milp/model.hpp"

namespace sparcs::core {

struct FormulationOptions {
  /// Root->leaf path count above which (7) switches from one row per path
  /// to per-partition potentials.
  std::size_t max_paths = 20000;
};

/// Builds and owns the MILP model for one partition bound N. The latency
/// window [Dmin, Dmax] lives in set_window() alone, so one model serves every
/// probe of a Reduce_Latency stage.
class IlpFormulation {
 public:
  /// Builds the model and sets the window [d_min, d_max] (set_window()).
  IlpFormulation(const graph::TaskGraph& graph, const arch::Device& device,
                 int num_partitions, double d_max, double d_min,
                 FormulationOptions options = {});

  [[nodiscard]] const milp::Model& model() const { return model_; }
  [[nodiscard]] int num_partitions() const { return n_; }

  /// Y variable of (task, partition p in 1..N, sorted design point k).
  [[nodiscard]] milp::VarId y(graph::TaskId t, int p, int k) const;
  /// Number of design points of task t (== its sorted list length).
  [[nodiscard]] int num_points(graph::TaskId t) const;
  /// Maps sorted design point index k to the task's design_points index.
  [[nodiscard]] int design_point_index(graph::TaskId t, int k) const;
  [[nodiscard]] milp::VarId d(int p) const;
  [[nodiscard]] milp::VarId eta() const { return eta_; }

  /// Moves the latency window to [d_min, d_max]: the right-hand sides of
  /// (9)/(10) and each d_p's upper bound max(0, d_max - C_T). Afterwards
  /// the model equals a fresh build at that window.
  void set_window(double d_max, double d_min);

  /// Switches the model from feasibility to minimize sum_p d_p + C_T * eta
  /// (used by the optimal reference mode).
  void set_latency_objective();

  /// Warm start (the analog of a CPLEX MIP start): biases the solver's
  /// branching toward `design` by hinting each task's Y variables. The
  /// search still explores the full space on backtracking. Every Y hint is
  /// overwritten: a task the design places outside 1..N gets none (NaN), so
  /// no hint of an earlier call survives.
  void apply_hints(const PartitionedDesign& design);
  /// Resets every Y hint to none, as in a fresh build.
  void clear_hints();

  /// Decodes a solver assignment into a partitioned design (latencies are
  /// recomputed from the assignment, not read from d_p).
  [[nodiscard]] PartitionedDesign decode(
      const std::vector<double>& values) const;
  /// Inverse of decode(): the assignment of every variable (Y, w, d_p, eta,
  /// a_t, and s_pt above the path cap) that puts `design` into the model, for
  /// certify_feasible to check exactly. d_p is the longest path in p, with
  /// the tasks of other partitions at zero latency. REQUIREs every task in
  /// 1..N at one of its design points.
  [[nodiscard]] std::vector<double> encode(
      const PartitionedDesign& design) const;

 private:
  void create_variables();
  void add_uniqueness();
  void add_temporal_order();
  void add_memory();
  void add_resource();
  void add_latency_path_based(const milp::PathFamily& dag);
  void add_latency_potentials();
  void add_eta_definition();
  void add_latency_window();
  /// Hints task t's Y variables toward `a`, or clears them when `a` does not
  /// place t in 1..N.
  void hint_task(graph::TaskId t, const TaskAssignment& a);

  /// Sum over module sets of Y_ptm for fixed (t, p).
  [[nodiscard]] milp::LinExpr y_sum(graph::TaskId t, int p) const;
  /// Sum over partitions in [p_lo, p_hi] and module sets for task t.
  [[nodiscard]] milp::LinExpr y_range_sum(graph::TaskId t, int p_lo,
                                          int p_hi) const;
  /// Task latency restricted to partition p.
  [[nodiscard]] milp::LinExpr task_latency_in_partition(graph::TaskId t,
                                                        int p) const;

  const graph::TaskGraph& graph_;
  const arch::Device& device_;
  int n_;

  milp::Model model_;
  /// y_[t][ (p-1) * num_points(t) + k ]
  std::vector<std::vector<milp::VarId>> y_;
  /// Per task: design point indices sorted by increasing latency.
  std::vector<std::vector<int>> sorted_points_;
  std::vector<milp::VarId> d_;
  milp::VarId eta_ = -1;
  /// w_[edge][p - 2] for p in 2..N; empty without the memory block or for
  /// an edge that carries no data.
  std::vector<std::vector<milp::VarId>> w_;
  std::vector<milp::VarId> a_;  ///< a_t, per task
  /// s_[p - 1][t], built above the path cap only.
  std::vector<std::vector<milp::VarId>> s_;
  milp::ConstraintId latency_ub_ = -1, latency_lb_ = -1;
};

}  // namespace sparcs::core
