#include <gtest/gtest.h>

#include <sstream>

#include "arch/device.hpp"
#include "core/solution.hpp"
#include "io/csv.hpp"
#include "io/dot.hpp"
#include "io/table.hpp"
#include "support/error.hpp"
#include "workloads/ar_filter.hpp"

namespace sparcs::io {
namespace {

TEST(DotTest, TaskGraphExport) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const std::string dot = to_dot_string(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("T1"), std::string::npos);
  EXPECT_NE(dot.find("T1 -> T2"), std::string::npos);
  EXPECT_EQ(dot.find("cluster"), std::string::npos);
}

TEST(DotTest, PartitionedExportHasClusters) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("d", 400, 64, 50);
  core::PartitionedDesign design;
  design.num_partitions_allocated = 2;
  design.assignment = {{1, 0}, {1, 0}, {1, 0}, {2, 0}, {2, 0}, {2, 0}};
  core::recompute_latency(g, dev, design);
  const std::string dot = to_dot_string(g, design);
  EXPECT_NE(dot.find("cluster_p1"), std::string::npos);
  EXPECT_NE(dot.find("cluster_p2"), std::string::npos);
  EXPECT_NE(dot.find("partition 1"), std::string::npos);
}

TEST(AsciiTableTest, AlignsColumns) {
  AsciiTable table({"a", "long_header"});
  table.add_row({"xxxxx", "1"});
  table.add_separator();
  table.add_row({"y", "2"});
  const std::string s = table.to_string();
  EXPECT_NE(s.find("| a     | long_header |"), std::string::npos);
  EXPECT_NE(s.find("| xxxxx | 1           |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 3u);
}

TEST(AsciiTableTest, RejectsBadRows) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidArgumentError);
  EXPECT_THROW(AsciiTable({}), InvalidArgumentError);
}

TEST(TraceRenderTest, ShowsInfeasibleAndFeasibleRows) {
  core::Trace trace;
  core::IterationRecord r1;
  r1.num_partitions = 4;
  r1.iteration = 1;
  r1.d_max_bound = 25440 + 400;
  r1.d_min_bound = 795 + 400;
  r1.outcome = core::IterationOutcome::kFeasible;
  r1.achieved_latency = 7000 + 400;
  trace.push_back(r1);
  core::IterationRecord r2 = r1;
  r2.num_partitions = 5;
  r2.iteration = 1;
  r2.outcome = core::IterationOutcome::kInfeasible;
  r2.achieved_latency = 0;
  trace.push_back(r2);

  const std::string s = render_trace(trace, 100.0, /*subtract_reconfig=*/true);
  EXPECT_NE(s.find("Inf."), std::string::npos);
  EXPECT_NE(s.find("7000"), std::string::npos);   // 7400 - 4*100
  EXPECT_NE(s.find("25440"), std::string::npos);  // bound without N*Ct
}

TEST(TraceRenderTest, ShowsSolverStatsColumns) {
  core::Trace trace;
  core::IterationRecord r;
  r.num_partitions = 4;
  r.iteration = 1;
  r.d_max_bound = 1000;
  r.d_min_bound = 500;
  r.outcome = core::IterationOutcome::kFeasible;
  r.achieved_latency = 800;
  r.nodes = 12;
  r.stats.nodes_pruned_by_bound = 3;
  r.stats.nodes_pruned_infeasible = 4;
  r.stats.simplex_iterations = 91;
  trace.push_back(r);

  const std::string s = render_trace(trace, 0.0, /*subtract_reconfig=*/false);
  EXPECT_NE(s.find("pruned"), std::string::npos);
  EXPECT_NE(s.find("LPit"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);   // 3 + 4 pruned nodes
  EXPECT_NE(s.find("91"), std::string::npos);  // simplex iterations
}

TEST(CsvTest, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, TraceRoundTripShape) {
  core::Trace trace;
  core::IterationRecord r;
  r.num_partitions = 3;
  r.iteration = 2;
  r.d_max_bound = 123.5;
  r.d_min_bound = 50;
  r.outcome = core::IterationOutcome::kLimit;
  r.nodes = 5000;
  r.seconds = 0.125;
  r.stats.simplex_iterations = 17;
  r.stats.nodes_pruned_by_bound = 2;
  r.stats.nodes_pruned_infeasible = 1;
  trace.push_back(r);
  core::IterationRecord f;
  f.num_partitions = 4;
  f.iteration = 1;
  f.d_max_bound = 2000.25;
  f.d_min_bound = 1000;
  f.outcome = core::IterationOutcome::kFeasible;
  f.achieved_latency = 1500.125;
  f.nodes = 11;
  f.seconds = 1.5;
  trace.push_back(f);
  f.iteration = 2;
  f.outcome = core::IterationOutcome::kUncertified;
  f.achieved_latency = 0.0;
  trace.push_back(f);
  std::ostringstream os;
  write_trace_csv(os, trace);
  // Every column of every row; the last two are the solver-stat columns
  // (LP iterations, and the two prune counters folded into one).
  EXPECT_EQ(os.str(),
            "N,iteration,d_max_bound,d_min_bound,outcome,achieved_latency_ns,"
            "nodes,seconds,simplex_iterations,nodes_pruned\n"
            "3,2,123.5,50,limit,0,5000,0.125,17,3\n"
            "4,1,2000.25,1000,feasible,1500.125,11,1.5,0,0\n"
            "4,2,2000.25,1000,uncertified,0,11,1.5,0,0\n");
}

}  // namespace
}  // namespace sparcs::io
