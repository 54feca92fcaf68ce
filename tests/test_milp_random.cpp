// Property tests: the branch & bound must agree with brute-force enumeration
// on randomly generated small integer programs, with and without LP bounding.
#include <gtest/gtest.h>

#include "brute_force.hpp"
#include "milp/checker.hpp"
#include "milp/solver.hpp"
#include "propagation_fixpoint.hpp"
#include "support/rng.hpp"

namespace sparcs::milp {
namespace {

/// Generates a random binary program with `n` variables and `rows`
/// constraints of mixed senses plus a random objective.
Model random_binary_model(std::uint64_t seed, int n, int rows) {
  Rng rng(seed);
  Model m("rand" + std::to_string(seed));
  for (int i = 0; i < n; ++i) m.add_binary("x" + std::to_string(i));
  for (int r = 0; r < rows; ++r) {
    LinExpr lhs;
    int nnz = 0;
    for (VarId v = 0; v < n; ++v) {
      if (rng.chance(0.6)) {
        lhs += static_cast<double>(rng.uniform_int(-4, 6)) * LinExpr(v);
        ++nnz;
      }
    }
    if (nnz == 0) continue;
    const double rhs = static_cast<double>(rng.uniform_int(-3, 8));
    const int pick = static_cast<int>(rng.uniform_int(0, 2));
    const Sense sense = pick == 0   ? Sense::kLessEqual
                        : pick == 1 ? Sense::kGreaterEqual
                                    : Sense::kEqual;
    m.add_constraint(lhs, sense, rhs, "r" + std::to_string(r));
  }
  LinExpr obj;
  for (VarId v = 0; v < n; ++v) {
    obj += static_cast<double>(rng.uniform_int(-5, 9)) * LinExpr(v);
  }
  m.set_objective(obj, /*minimize=*/rng.chance(0.5));
  return m;
}

class RandomMilpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMilpTest, MatchesBruteForce) {
  const Model m = random_binary_model(GetParam(), 9, 5);
  const auto expected = testing::brute_force_best_objective(m);
  const MilpSolution s = Solver(m, optimality_params()).solve();
  if (!expected.has_value()) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible)
        << "solver found a solution for an infeasible model";
    return;
  }
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << to_string(s.status);
  EXPECT_NEAR(s.objective, *expected, 1e-6);
  EXPECT_TRUE(check_solution(m, s.values).ok);
}

TEST_P(RandomMilpTest, PropagationOnlyAgreesWithLpBounding) {
  const Model m = random_binary_model(GetParam() ^ 0xabcdef, 8, 4);
  SolverParams no_lp;
  no_lp.use_lp_bounding = false;
  SolverParams with_lp;
  with_lp.use_lp_bounding = true;
  const MilpSolution s1 = Solver(m, no_lp).solve();
  const MilpSolution s2 = Solver(m, with_lp).solve();
  EXPECT_EQ(s1.status, s2.status);
  if (s1.has_solution() && s2.has_solution()) {
    EXPECT_NEAR(s1.objective, s2.objective, 1e-6);
  }
}

TEST_P(RandomMilpTest, FirstFeasibleIsFeasible) {
  const Model m = random_binary_model(GetParam() * 31 + 7, 10, 6);
  const MilpSolution s = Solver(m, first_feasible_params()).solve();
  if (s.has_solution()) {
    EXPECT_TRUE(check_solution(m, s.values).ok);
  } else {
    EXPECT_FALSE(testing::brute_force_best_objective(m).has_value());
  }
}

TEST_P(RandomMilpTest, MixedIntegerAgainstBruteForceOnIntegers) {
  // Random model with small general-integer domains.
  Rng rng(GetParam() + 99);
  Model m;
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    m.add_integer(0, 3, "z" + std::to_string(i));
  }
  for (int r = 0; r < 4; ++r) {
    LinExpr lhs;
    for (VarId v = 0; v < n; ++v) {
      lhs += static_cast<double>(rng.uniform_int(-2, 4)) * LinExpr(v);
    }
    m.add_constraint(lhs, Sense::kLessEqual,
                     static_cast<double>(rng.uniform_int(0, 14)),
                     "r" + std::to_string(r));
  }
  LinExpr obj;
  for (VarId v = 0; v < n; ++v) {
    obj += static_cast<double>(rng.uniform_int(-3, 5)) * LinExpr(v);
  }
  m.set_objective(obj);
  const auto expected = testing::brute_force_best_objective(m);
  const MilpSolution s = Solver(m, optimality_params()).solve();
  if (!expected.has_value()) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, *expected, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMilpTest,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Random program over general integers and continuous variables whose rows
/// carry terms of both signs.
Model random_mixed_model(Rng& rng) {
  Model m;
  for (int i = 0; i < 6; ++i) m.add_integer(-2, 4, "z" + std::to_string(i));
  for (int i = 0; i < 3; ++i) {
    m.add_continuous(-5.0, 10.0, "c" + std::to_string(i));
  }
  for (int r = 0; r < 7; ++r) {
    LinExpr lhs;
    for (VarId v = 0; v < m.num_vars(); ++v) {
      if (rng.chance(0.5)) {
        lhs += 0.5 * static_cast<double>(rng.uniform_int(-5, 5)) * LinExpr(v);
      }
    }
    const int pick = static_cast<int>(rng.uniform_int(0, 2));
    const Sense sense = pick == 0   ? Sense::kLessEqual
                        : pick == 1 ? Sense::kGreaterEqual
                                    : Sense::kEqual;
    m.add_constraint(lhs, sense, static_cast<double>(rng.uniform_int(-6, 10)),
                     "r" + std::to_string(r));
  }
  return m;
}

// Propagation queues a unit only when a bound it reads moves. Fixing random
// variables one at a time, the fixpoint each propagate(d, {v}) reaches must
// be one that a pass over every row cannot tighten, on binary and on mixed
// programs.
TEST(RandomPropagationTest, IncrementalPropagationReachesTheFullFixpoint) {
  int checked = 0, conflicts = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919 + 3);
    for (const Model& m :
         {random_binary_model(seed + 500, 14, 9), random_mixed_model(rng)}) {
      const testing::FixpointCounts counts =
          testing::check_incremental_fixpoint(m, rng, 6);
      checked += counts.checked;
      conflicts += counts.conflicts;
      ASSERT_FALSE(HasFailure()) << "seed " << seed;
    }
  }
  EXPECT_GT(checked, 300);
  EXPECT_GT(conflicts, 50);
}

}  // namespace
}  // namespace sparcs::milp
