// Cross-cutting property sweeps over random instances:
//  - the path-based and the potential latency forms each reach the
//    exhaustive optimum, and their root LPs have the same optimum;
//  - the optimal reference (solve_optimal) proves the exhaustive optimum;
//  - every solver-produced design passes the independent validator AND the
//    ILP's own memory accounting matches the validator's;
//  - no design holds more live data than max_live_memory, the bound below
//    which the formulation builds its memory rows;
//  - the iterative partitioner never loses to the greedy baselines, and a
//    stage answered by a warm start at LB(N) runs no search after it;
//  - LB(N) never exceeds the exhaustive optimum over at most N partitions,
//    is the relaxation's certified optimum, and the level fill of its
//    optimum is a valid design no faster than it.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "arch/device.hpp"
#include "core/baselines.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "core/partitioner.hpp"
#include "graph/algorithms.hpp"
#include "milp/simplex.hpp"
#include "milp/solver.hpp"
#include "warm_start_rows.hpp"
#include "workloads/synthetic.hpp"

namespace sparcs::core {
namespace {

graph::TaskGraph seeded_graph(std::uint64_t seed) {
  workloads::RandomGraphOptions options;
  options.num_tasks = 7;
  options.num_layers = 3;
  options.num_design_points = 2;
  options.seed = seed;
  return workloads::random_task_graph(options);
}

class FormulationVariantsTest
    : public ::testing::TestWithParam<std::uint64_t> {};

/// M_max of DecodedDesignsPassTheValidator: below max_live_memory of most
/// of its graphs (36-48 units), so their memory rows are built.
constexpr double kValidatorSweepMmax = 40.0;

TEST_P(FormulationVariantsTest, BothLatencyFormsReachTheExhaustiveOptimum) {
  const graph::TaskGraph g = seeded_graph(GetParam());
  const arch::Device dev = arch::custom("d", 300, 2048, 60);
  const int n = min_area_partitions(g, dev) + 1;
  const auto brute = exhaustive_optimal(g, dev, n);
  ASSERT_TRUE(brute.has_value()) << "seed " << GetParam();

  // max_paths = 0 forces the potential latency form.
  for (const std::size_t max_paths : {FormulationOptions{}.max_paths,
                                      std::size_t{0}}) {
    FormulationOptions options;
    options.max_paths = max_paths;
    IlpFormulation form(g, dev, n, max_latency(g, dev, n),
                        min_latency(g, dev, n), options);
    form.set_latency_objective();
    milp::SolverParams params;
    params.use_lp_bounding = true;
    params.objective_improvement = 1.0;
    const milp::MilpSolution s = milp::Solver(form.model(), params).solve();
    ASSERT_EQ(s.status, milp::SolveStatus::kOptimal)
        << "seed " << GetParam() << " max_paths " << max_paths;
    EXPECT_NEAR(form.decode(s.values).total_latency_ns,
                brute->total_latency_ns, 1e-6)
        << "seed " << GetParam() << " max_paths " << max_paths;
  }
}

// The optimal reference's race of propagation-only and LP-bounded rounds
// proves the exhaustive optimum, with and without the memory rows (Mmax 40
// builds them for most graphs here).
TEST_P(FormulationVariantsTest, OptimalRaceReachesTheExhaustiveOptimum) {
  const graph::TaskGraph g = seeded_graph(GetParam());
  for (const double mmax : {2048.0, kValidatorSweepMmax}) {
    const arch::Device dev = arch::custom("d", 300, mmax, 60);
    const int n = min_area_partitions(g, dev) + 1;
    const auto brute = exhaustive_optimal(g, dev, n);
    milp::SolverParams params;
    params.num_threads = 1;
    const OptimalResult r = solve_optimal(g, dev, n, params);
    if (!brute) {
      EXPECT_EQ(r.status, milp::SolveStatus::kInfeasible)
          << "seed " << GetParam() << " Mmax " << mmax;
      continue;
    }
    ASSERT_EQ(r.status, milp::SolveStatus::kOptimal)
        << "seed " << GetParam() << " Mmax " << mmax;
    EXPECT_NEAR(r.latency_ns, brute->total_latency_ns, 1e-6)
        << "seed " << GetParam() << " Mmax " << mmax;
  }
}

TEST_P(FormulationVariantsTest, DecodedDesignsPassTheValidator) {
  const graph::TaskGraph g = seeded_graph(GetParam() * 17 + 3);
  // Tight memory so the w-variable accounting is actually exercised.
  const arch::Device dev = arch::custom("d", 300, kValidatorSweepMmax, 60);
  const int n = min_area_partitions(g, dev) + 1;
  IlpFormulation form(g, dev, n, max_latency(g, dev, n),
                      min_latency(g, dev, n));
  const milp::MilpSolution s = milp::Solver(form.model(), milp::first_feasible_params()).solve();
  if (!s.has_solution()) {
    // The validator-side exhaustive check must agree there is nothing.
    if (g.num_tasks() <= 8) {
      EXPECT_FALSE(exhaustive_optimal(g, dev, n).has_value())
          << "seed " << GetParam();
    }
    return;
  }
  const PartitionedDesign design = form.decode(s.values);
  const DesignCheck check = validate_design(g, dev, design);
  EXPECT_TRUE(check.ok) << check.violation;
  // The model's memory rows imply the validator's accounting partition by
  // partition.
  for (int p = 1; p <= n; ++p) {
    EXPECT_LE(partition_memory(g, design, p), dev.memory_capacity + 1e-6)
        << "partition " << p;
  }
}

// The premise of leaving the memory rows out when M_max >= max_live_memory:
// no design, valid or not on area, holds more live data at any boundary.
TEST_P(FormulationVariantsTest, LiveMemoryNeverExceedsTheSkipBound) {
  const graph::TaskGraph g = seeded_graph(GetParam() * 17 + 3);
  const double bound = max_live_memory(g);
  const std::vector<graph::TaskId> topo = graph::topological_order(g);
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 5);
    PartitionedDesign design;
    design.num_partitions_allocated = n;
    design.assignment.assign(static_cast<std::size_t>(g.num_tasks()), {});
    for (const graph::TaskId t : topo) {
      // Temporal order: never before a producer's partition.
      int lo = 1;
      for (const graph::TaskId pred : g.predecessors(t)) {
        lo = std::max(lo, design.assignment[static_cast<std::size_t>(pred)]
                              .partition);
      }
      const int points = static_cast<int>(g.task(t).design_points.size());
      design.assignment[static_cast<std::size_t>(t)] = TaskAssignment{
          lo + static_cast<int>(rng() % static_cast<std::uint64_t>(n - lo + 1)),
          static_cast<int>(rng() % static_cast<std::uint64_t>(points))};
    }
    for (int p = 1; p <= n; ++p) {
      EXPECT_LE(partition_memory(g, design, p), bound)
          << "seed " << GetParam() << " trial " << trial << " partition "
          << p;
    }
  }
}

TEST_P(FormulationVariantsTest, IterativeNeverLosesToGreedy) {
  const graph::TaskGraph g = seeded_graph(GetParam() * 31 + 11);
  const arch::Device dev = arch::custom("d", 300, 2048, 60);
  PartitionerOptions options;
  options.budget.delta = 30.0;
  options.budget.solver.time_limit_sec = 5.0;
  const PartitionerReport report =
      TemporalPartitioner(g, dev, options).run();
  // LB(N) stays below the designs of these graphs, so no stage is answered
  // by a warm start today; RandomGraphOptimalityTest's sweep has some.
  testing::expect_warm_start_rows(g, dev, report);
  if (!report.feasible) return;
  for (const PointPolicy policy :
       {PointPolicy::kMinArea, PointPolicy::kMinLatency}) {
    const auto greedy = greedy_first_fit(g, dev, policy);
    if (greedy.has_value()) {
      EXPECT_LE(report.achieved_latency, greedy->total_latency_ns + 1e-6)
          << "seed " << GetParam();
    }
  }
}

// LB(N) is a lower bound on every design with at most N partitions. The
// 200-unit device packs these graphs tighter than the 300-unit one, which
// is where the relaxation's area packing bites.
TEST_P(FormulationVariantsTest, LatencyBoundNeverExceedsTheExhaustiveOptimum) {
  const graph::TaskGraph g = seeded_graph(GetParam());
  for (const double rmax : {300.0, 200.0}) {
    const arch::Device dev = arch::custom("d", rmax, 2048, 60);
    const int n_lo = min_area_partitions(g, dev);
    for (int n = n_lo; n <= n_lo + 2; ++n) {
      const auto brute = exhaustive_optimal(g, dev, n);
      if (!brute.has_value()) continue;
      EXPECT_LE(latency_relaxation_bound(g, dev, n).ns,
                brute->total_latency_ns + 1e-6)
          << "seed " << GetParam() << " Rmax " << rmax << " N=" << n;
    }
  }
}

// The walk's R(N) is the relaxation's optimum: its certificate form has a
// design at LB(N) and none at LB(N) - 1 (certified). These graphs have whole
// ns latencies and C_T, so R(N) is whole too. The proof at LB(N) - 1 is
// checked on the 300-unit device only: at 200 units its search and exact
// check add about 10 s to the suite (its rationals outgrow 128 bits).
TEST_P(FormulationVariantsTest, LatencyBoundIsTheCertifiedRelaxationOptimum) {
  const graph::TaskGraph g = seeded_graph(GetParam());
  for (const double rmax : {300.0, 200.0}) {
    const arch::Device dev = arch::custom("d", rmax, 2048, 60);
    const int n_lo = min_area_partitions(g, dev);
    for (int n = n_lo; n <= n_lo + 2; ++n) {
      const LatencyBound bound = latency_relaxation_bound(g, dev, n);
      if (bound.source != LatencyBoundSource::kMilp) continue;
      EXPECT_TRUE(certify_latency_bound(g, dev, n, bound.ns).has_solution())
          << "seed " << GetParam() << " Rmax " << rmax << " N=" << n;
      if (rmax != 300.0) continue;
      const milp::MilpSolution below =
          certify_latency_bound(g, dev, n, bound.ns - 1.0);
      EXPECT_EQ(below.status, milp::SolveStatus::kInfeasible)
          << "seed " << GetParam() << " Rmax " << rmax << " N=" << n;
      EXPECT_EQ(below.certified, milp::CertifyStatus::kCertified)
          << "seed " << GetParam() << " Rmax " << rmax << " N=" << n;
    }
  }
}

// level_fill packed to LB(N)'s levels gives a valid design within N
// partitions, never below LB(N), and the same design on every call.
TEST_P(FormulationVariantsTest, LevelFillOfTheBoundIsAValidDesign) {
  const graph::TaskGraph g = seeded_graph(GetParam());
  for (const double rmax : {300.0, 200.0}) {
    const arch::Device dev = arch::custom("d", rmax, 2048, 60);
    const int n_lo = min_area_partitions(g, dev);
    for (int n = n_lo; n <= n_lo + 2; ++n) {
      const LatencyBound bound = latency_relaxation_bound(g, dev, n);
      for (const std::vector<double>& levels :
           {bound.levels, std::vector<double>{}}) {
        const auto design = level_fill(g, dev, n, levels);
        if (!design.has_value()) continue;
        EXPECT_TRUE(validate_design(g, dev, *design).ok)
            << "seed " << GetParam() << " Rmax " << rmax << " N=" << n;
        EXPECT_LE(design->num_partitions_used, n);
        EXPECT_GE(design->total_latency_ns, bound.ns - 1e-6)
            << "seed " << GetParam() << " Rmax " << rmax << " N=" << n;
        const auto again = level_fill(g, dev, n, levels);
        ASSERT_TRUE(again.has_value());
        for (std::size_t t = 0; t < design->assignment.size(); ++t) {
          EXPECT_EQ(again->assignment[t].partition,
                    design->assignment[t].partition);
          EXPECT_EQ(again->assignment[t].design_point,
                    design->assignment[t].design_point);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulationVariantsTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// DecodedDesignsPassTheValidator checks the memory rows only on graphs that
// can hold more than its M_max.
TEST(FormulationVariantsSweep, ValidatorSweepBuildsTheMemoryRows) {
  int seeds_with_rows = 0;
  for (std::uint64_t seed = 1; seed < 11; ++seed) {
    if (kValidatorSweepMmax < max_live_memory(seeded_graph(seed * 17 + 3))) {
      ++seeds_with_rows;
    }
  }
  EXPECT_GE(seeds_with_rows, 1);
}

// LatencyBoundNeverExceedsTheExhaustiveOptimum is vacuous unless the
// relaxation rises above MinLatency(N) on some of its instances.
TEST(FormulationVariantsSweep, LatencyBoundSweepLiftsTheFloor) {
  int lifted = 0;
  for (std::uint64_t seed = 1; seed < 11; ++seed) {
    const graph::TaskGraph g = seeded_graph(seed);
    for (const double rmax : {300.0, 200.0}) {
      const arch::Device dev = arch::custom("d", rmax, 2048, 60);
      const int n = min_area_partitions(g, dev);
      if (latency_relaxation_bound(g, dev, n).ns > min_latency(g, dev, n)) {
        ++lifted;
      }
    }
  }
  EXPECT_GE(lifted, 1);
}

// LatencyBoundIsTheCertifiedRelaxationOptimum is vacuous unless the
// relaxation's optimum is LB(N) on some of its instances.
TEST(FormulationVariantsSweep, LatencyBoundSweepReachesTheRelaxationOptimum) {
  int exact = 0;
  for (std::uint64_t seed = 1; seed < 11; ++seed) {
    const graph::TaskGraph g = seeded_graph(seed);
    for (const double rmax : {300.0, 200.0}) {
      const arch::Device dev = arch::custom("d", rmax, 2048, 60);
      const int n_lo = min_area_partitions(g, dev);
      LatencyBoundWalk walk(g, dev);
      for (int n = n_lo; n <= n_lo + 2; ++n) {
        if (walk.bound(n).source == LatencyBoundSource::kMilp) ++exact;
      }
    }
  }
  EXPECT_GE(exact, 1);
}

/// Largest violation of `lp`'s rows at x, each relative to the row's largest
/// term |a_j x_j| or |rhs| (at least 1).
double worst_row_violation(const milp::LpProblem& lp,
                           const std::vector<double>& x) {
  double worst = 0.0;
  for (const milp::LpProblem::Row& row : lp.rows) {
    double activity = 0.0;
    double scale = std::max(1.0, std::abs(row.rhs));
    for (const milp::LinTerm& term : row.terms) {
      const double ax = term.coef * x[static_cast<std::size_t>(term.var)];
      activity += ax;
      scale = std::max(scale, std::abs(ax));
    }
    double violation = 0.0;
    if (row.sense != milp::Sense::kGreaterEqual) {
      violation = std::max(violation, activity - row.rhs);
    }
    if (row.sense != milp::Sense::kLessEqual) {
      violation = std::max(violation, row.rhs - activity);
    }
    worst = std::max(worst, violation / scale);
  }
  return worst;
}

// The potentials project onto exactly the path rows' polyhedron, so the
// latency objective's root LP has one optimum in both forms; and an LP the
// simplex calls optimal has an x that meets its rows.
TEST(FormulationVariantsSweep, PotentialRootLpEqualsThePathRootLp) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workloads::RandomGraphOptions graph_options;  // 12 tasks, 3 points each
    graph_options.seed = seed;
    const graph::TaskGraph g = workloads::random_task_graph(graph_options);
    const arch::Device dev = arch::custom("d", 300, 2048, 60);
    const int n = min_area_partitions(g, dev) + 1;
    double objective[2] = {0.0, 0.0};
    for (const int form_index : {0, 1}) {
      FormulationOptions options;
      if (form_index == 1) options.max_paths = 0;  // the potential form
      // d_min = 0: a window floor would pin both LPs at MinLatency(N).
      IlpFormulation form(g, dev, n, max_latency(g, dev, n), 0.0, options);
      ASSERT_EQ(form.model().path_families().empty(), form_index == 1);
      form.set_latency_objective();
      const milp::LpProblem lp = milp::relaxation_of(form.model());
      const milp::LpResult result = milp::solve_lp(lp);
      ASSERT_EQ(result.status, milp::LpStatus::kOptimal)
          << "seed " << seed << " form " << form_index;
      EXPECT_LE(worst_row_violation(lp, result.x), 1e-6)
          << "seed " << seed << " form " << form_index;
      objective[form_index] = result.objective;
    }
    EXPECT_NEAR(objective[1], objective[0], 1e-6 * std::abs(objective[0]))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace sparcs::core
