#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "milp/types.hpp"
#include "support/error.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"

namespace sparcs::core {
namespace {

TEST(BoundsTest, DctPartitionBounds576) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  // Total min area 16*64 + 16*84 = 2368 -> ceil(2368/576) = 5.
  EXPECT_EQ(min_area_partitions(g, dev), 5);
  // Total max area 16*96 + 16*112 = 3328 -> ceil(3328/576) = 6.
  EXPECT_EQ(max_area_partitions(g, dev), 6);
}

TEST(BoundsTest, DctPartitionBounds1024) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 1024, 4096, 100);
  EXPECT_EQ(min_area_partitions(g, dev), 3);   // 2368/1024 = 2.31
  EXPECT_EQ(max_area_partitions(g, dev), 4);   // 3328/1024 = 3.25
}

TEST(BoundsTest, ExactDivisionDoesNotRoundUp) {
  graph::TaskGraph g("t");
  g.add_task("a", {{"m", 100, 10}});
  g.add_task("b", {{"m", 100, 10}});
  const arch::Device dev = arch::custom("d", 100, 10, 0);
  EXPECT_EQ(min_area_partitions(g, dev), 2);
  const arch::Device dev2 = arch::custom("d", 200, 10, 0);
  EXPECT_EQ(min_area_partitions(g, dev2), 1);
}

TEST(BoundsTest, LatencyBoundsIncludeReconfig) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 1000);
  EXPECT_DOUBLE_EQ(max_latency(g, dev, 5), 25440.0 + 5 * 1000.0);
  EXPECT_DOUBLE_EQ(min_latency(g, dev, 5), 795.0 + 5 * 1000.0);
  // Monotone in N.
  EXPECT_GT(min_latency(g, dev, 6), min_latency(g, dev, 5));
}

TEST(BoundsTest, MinAtMostMax) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("d", 200, 64, 50);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_LE(min_latency(g, dev, n), max_latency(g, dev, n));
  }
  EXPECT_LE(min_area_partitions(g, dev), max_area_partitions(g, dev));
}

TEST(BoundsTest, InvalidPartitionCountRejected) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("d", 200, 64, 50);
  EXPECT_THROW(max_latency(g, dev, 0), InvalidArgumentError);
  EXPECT_THROW(min_latency(g, dev, -1), InvalidArgumentError);
}

// LB(N) on the DCT at Table 3's device: the level-packing relaxation lifts
// the bound far above MinLatency(N) = 1295/1395/1495 ns. LB(6) = 3030 is the
// latency Table 3 reaches at N = 6.
TEST(LatencyRelaxationTest, DctTable3Bounds) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  const double expected[] = {3170.0, 3030.0, 3030.0};
  for (int n = 5; n <= 7; ++n) {
    const LatencyBound bound = latency_relaxation_bound(g, dev, n);
    EXPECT_NEAR(bound.ns, expected[n - 5], 1e-6) << "N=" << n;
    EXPECT_EQ(bound.source, LatencyBoundSource::kMilp) << "N=" << n;
    // The optimum's levels, one per used partition, cost LB(N) exactly.
    EXPECT_LE(bound.levels.size(), static_cast<std::size_t>(n)) << "N=" << n;
    EXPECT_TRUE(std::is_sorted(bound.levels.begin(), bound.levels.end()));
    double cost = 0.0;
    for (const double level : bound.levels) cost += level + 100.0;
    EXPECT_NEAR(cost, bound.ns, 1e-6) << "N=" << n;
  }
  // Without the MILP the LP's fractional packing stands in: weaker, but
  // still above MinLatency(6) = 1395.
  const LatencyBound lp = latency_relaxation_bound(g, dev, 6, {}, false);
  EXPECT_EQ(lp.source, LatencyBoundSource::kLp);
  EXPECT_TRUE(lp.levels.empty());
  EXPECT_GT(lp.ns, min_latency(g, dev, 6));
  EXPECT_LT(lp.ns, 3030.0);
}

// At Ct = 10 ms the LP alone packs the tasks into fractional partitions and
// stays at MinLatency(N); the row sum_l c_l >= MinAreaPartitions lifts it,
// so the MILP runs and prices the partitions the areas need.
TEST(LatencyRelaxationTest, DctLargeCtBoundsCountTheNeededPartitions) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const LatencyBound t4 =
      latency_relaxation_bound(g, arch::custom("d", 576, 4096, 1e7), 5);
  EXPECT_NEAR(t4.ns, 50002670.0, 1e-3);
  EXPECT_EQ(t4.source, LatencyBoundSource::kMilp);
  EXPECT_EQ(t4.levels.size(), 5u);
  const LatencyBound t6 =
      latency_relaxation_bound(g, arch::custom("d", 1024, 4096, 1e7), 3);
  EXPECT_NEAR(t6.ns, 30001440.0, 1e-3);
  EXPECT_EQ(t6.source, LatencyBoundSource::kMilp);
  EXPECT_EQ(t6.levels.size(), 3u);
}

// More partitions only relax sum c_l <= N, so the relaxation cannot rise;
// through N = 10 it stays above the growing MinLatency(N).
TEST(LatencyRelaxationTest, DctBoundIsNonIncreasingInN) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  double previous = latency_relaxation_bound(g, dev, 5).ns;
  for (int n = 6; n <= 10; ++n) {
    const double bound = latency_relaxation_bound(g, dev, n).ns;
    EXPECT_LE(bound, previous + 1e-6) << "N=" << n;
    EXPECT_GT(bound, min_latency(g, dev, n)) << "N=" << n;
    previous = bound;
  }
}

// On the AR filter the relaxation's LP never beats the critical path, so
// LB(N) is MinLatency(N) in every reconfiguration regime of Table 1.
TEST(LatencyRelaxationTest, ArBoundIsMinLatency) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  for (const double ct : {1.0, 50.0, 500.0, 1e7}) {
    const arch::Device dev = arch::custom("d", 200, 64, ct);
    for (int n = min_area_partitions(g, dev);
         n <= max_area_partitions(g, dev) + 1; ++n) {
      const LatencyBound bound = latency_relaxation_bound(g, dev, n);
      EXPECT_EQ(bound.ns, min_latency(g, dev, n)) << "Ct=" << ct << " N=" << n;
      EXPECT_EQ(bound.source, LatencyBoundSource::kMinLatency)
          << "Ct=" << ct << " N=" << n;
    }
  }
}

// The bound's certificate form: a target below LB(N) is a certified
// infeasible relaxation, a target at LB(N) is feasible.
TEST(LatencyRelaxationTest, CertifiesTargetsBelowTheBound) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  const arch::Device dev = arch::custom("d", 576, 4096, 100);
  const milp::MilpSolution below = certify_latency_bound(g, dev, 6, 2973.125);
  EXPECT_EQ(below.status, milp::SolveStatus::kInfeasible);
  EXPECT_EQ(below.certified, milp::CertifyStatus::kCertified);
  EXPECT_GE(below.stats.certificates_checked, 1);
  const milp::MilpSolution at = certify_latency_bound(g, dev, 6, 3030.0);
  EXPECT_TRUE(at.has_solution());
}

/// Checks `bound` against the relaxation's own certificate form: a design
/// of the relaxation costs LB(N), and none costs LB(N) - 1 (certified).
/// Latencies and C_T are whole ns here, so R(N) is too.
void expect_certified_optimum(const graph::TaskGraph& g,
                              const arch::Device& dev, int n,
                              const LatencyBound& bound) {
  EXPECT_TRUE(certify_latency_bound(g, dev, n, bound.ns).has_solution())
      << "N=" << n;
  const milp::MilpSolution below =
      certify_latency_bound(g, dev, n, bound.ns - 1.0);
  EXPECT_EQ(below.status, milp::SolveStatus::kInfeasible) << "N=" << n;
  EXPECT_EQ(below.certified, milp::CertifyStatus::kCertified) << "N=" << n;
}

// The walk's R(N) against the relaxation's MILP, on the DCT at the devices
// of Tables 3-8 over each sweep's partition range: every LB(N) the walk
// finds is the relaxation's certified optimum. One walk answers the whole
// range, as it does in a sweep, and a repeated N pops nothing new.
TEST(LatencyRelaxationTest, WalkFindsTheCertifiedOptimumAtTheDctTables) {
  const graph::TaskGraph g = workloads::dct_task_graph();
  int exact = 0;
  for (const double rmax : {576.0, 1024.0}) {
    for (const double ct : {100.0, 1e7}) {
      const arch::Device dev = arch::custom("d", rmax, 4096, ct);
      LatencyBoundWalk walk(g, dev);
      for (int n = min_area_partitions(g, dev);
           n <= max_area_partitions(g, dev) + 1; ++n) {
        const LatencyBound bound = walk.bound(n);
        EXPECT_EQ(bound.ns, latency_relaxation_bound(g, dev, n).ns)
            << "Rmax " << rmax << " Ct " << ct << " N=" << n;
        const std::int64_t popped = walk.popped();
        EXPECT_EQ(walk.bound(n).levels, bound.levels);
        EXPECT_EQ(walk.popped(), popped);
        if (bound.source != LatencyBoundSource::kMilp) continue;
        ++exact;
        expect_certified_optimum(g, dev, n, bound);
      }
    }
  }
  EXPECT_EQ(exact, 8);
}

// Twelve tasks with the same 24 points: latency 100 + 10j at area 76 - j.
// At Rmax 106 twelve tasks at the least area, 53, need MinAreaPartitions = 6
// partitions, two per partition at the slowest level, 330 ns. At C_T = 1 ms
// every multiset of up to 5 levels is cheaper than any of 6, and there are
// C(29, 5) - 1 = 118,754 of them: the walk reaches its cap before any
// multiset it could check, and the MILP gives LB(6) = 6 (C_T + 330), which
// the LP already reaches. (The relaxation's proof at LB(6) - 1 outgrows the
// proof recorder's cap here, so only the design at LB(6) is certified.)
TEST(LatencyRelaxationTest, WalkPastItsCapFallsBackToTheMilp) {
  std::vector<graph::DesignPoint> points;
  for (int j = 0; j < 24; ++j) {
    points.push_back({"p" + std::to_string(j), 76.0 - j, 100.0 + 10 * j});
  }
  graph::TaskGraph g("levels");
  for (int i = 0; i < 12; ++i) g.add_task("t" + std::to_string(i), points);
  const arch::Device dev = arch::custom("d", 106, 4096, 1e6);
  ASSERT_EQ(min_area_partitions(g, dev), 6);
  LatencyBoundWalk walk(g, dev);
  const LatencyBound bound = walk.bound(6);
  EXPECT_EQ(walk.popped(), kLevelWalkMaxPops);
  EXPECT_EQ(bound.source, LatencyBoundSource::kMilp);
  EXPECT_NEAR(bound.ns, 6 * (1e6 + 330.0), 1e-6);
  EXPECT_EQ(bound.levels, std::vector<double>(6, 330.0));
  EXPECT_TRUE(certify_latency_bound(g, dev, 6, bound.ns).has_solution());
}

}  // namespace
}  // namespace sparcs::core
