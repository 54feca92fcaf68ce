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
//
// Options cover the paper's formulation plus documented variants:
//  - temporal order as the paper's pairwise rows or an aggregated
//    partition-index row per edge (smaller model, weaker relaxation);
//  - latency via path enumeration (paper) or a flow-based big-M form that
//    stays polynomial when the task graph has exponentially many paths;
//  - optional valid inequalities (per-task area/latency aggregation
//    variables, a total-area cut, and path cuts on sum_p d_p) that make the
//    solver's bound propagation detect global infeasibility early.
#pragma once

#include <vector>

#include "arch/device.hpp"
#include "core/solution.hpp"
#include "graph/task_graph.hpp"
#include "milp/model.hpp"

namespace sparcs::core {

struct FormulationOptions {
  enum class OrderForm {
    kPairwise,    ///< the paper's eq. (2): one row per edge per partition
    kAggregated,  ///< one row per edge on partition-index sums
  };
  enum class LatencyForm {
    kPathBased,  ///< the paper's eq. (7): one row per root-leaf path per partition
    kFlowBased,  ///< big-M completion-time chaining (polynomial size)
  };

  OrderForm order_form = OrderForm::kPairwise;
  LatencyForm latency_form = LatencyForm::kPathBased;
  /// Emit temporal-order rows only for the transitive reduction of the edge
  /// set (edges implied by two-hop paths add no ordering information).
  bool reduce_order_edges = true;
  /// Model the on-board memory constraint (disable for M_max = infinity).
  bool include_memory = true;
  /// Add the valid inequalities described above.
  bool strengthening_cuts = true;
  /// Path-enumeration cap; beyond it the latency form automatically falls
  /// back to kFlowBased.
  std::size_t max_paths = 20000;
};

/// Builds and owns the MILP model for one (N, Dmax, Dmin) query.
class IlpFormulation {
 public:
  IlpFormulation(const graph::TaskGraph& graph, const arch::Device& device,
                 int num_partitions, double d_max, double d_min,
                 FormulationOptions options = {});

  [[nodiscard]] const milp::Model& model() const { return model_; }
  [[nodiscard]] int num_partitions() const { return n_; }
  [[nodiscard]] const FormulationOptions& options() const { return options_; }

  /// Y variable of (task, partition p in 1..N, sorted design point k).
  [[nodiscard]] milp::VarId y(graph::TaskId t, int p, int k) const;
  /// Number of design points of task t (== its sorted list length).
  [[nodiscard]] int num_points(graph::TaskId t) const;
  /// Maps sorted design point index k to the task's design_points index.
  [[nodiscard]] int design_point_index(graph::TaskId t, int k) const;
  [[nodiscard]] milp::VarId d(int p) const;
  [[nodiscard]] milp::VarId eta() const { return eta_; }

  /// Switches the model from feasibility to minimize sum_p d_p + C_T * eta
  /// (used by the optimal reference mode).
  void set_latency_objective();

  /// Warm start (the analog of a CPLEX MIP start): biases the solver's
  /// branching toward `design` by hinting each task's Y variables. The
  /// search still explores the full space on backtracking.
  void apply_hints(const PartitionedDesign& design);

  /// Decodes a solver assignment into a partitioned design (latencies are
  /// recomputed from the assignment, not read from d_p).
  [[nodiscard]] PartitionedDesign decode(
      const std::vector<double>& values) const;

 private:
  void create_variables();
  void add_uniqueness();
  void add_temporal_order();
  void add_memory();
  void add_resource();
  void add_latency_path_based();
  void add_latency_flow_based();
  void add_eta_definition();
  void add_latency_window();
  void add_strengthening_cuts();

  /// Sum over module sets of Y_ptm for fixed (t, p).
  [[nodiscard]] milp::LinExpr y_sum(graph::TaskId t, int p) const;
  /// Sum over partitions in [p_lo, p_hi] and module sets for task t.
  [[nodiscard]] milp::LinExpr y_range_sum(graph::TaskId t, int p_lo,
                                          int p_hi) const;
  /// Task latency expression sum_{p,m} D(m) * Y_ptm.
  [[nodiscard]] milp::LinExpr task_latency_expr(graph::TaskId t) const;
  /// Task latency restricted to partition p.
  [[nodiscard]] milp::LinExpr task_latency_in_partition(graph::TaskId t,
                                                        int p) const;
  /// Task partition-index expression sum_{p,m} p * Y_ptm.
  [[nodiscard]] milp::LinExpr partition_index_expr(graph::TaskId t) const;

  const graph::TaskGraph& graph_;
  const arch::Device& device_;
  int n_;
  double d_max_, d_min_;
  FormulationOptions options_;

  milp::Model model_;
  /// y_[t][ (p-1) * num_points(t) + k ]
  std::vector<std::vector<milp::VarId>> y_;
  /// Per task: design point indices sorted by increasing latency.
  std::vector<std::vector<int>> sorted_points_;
  std::vector<milp::VarId> d_;
  milp::VarId eta_ = -1;
};

}  // namespace sparcs::core
