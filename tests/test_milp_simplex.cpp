#include <gtest/gtest.h>

#include "milp/certify.hpp"
#include "milp/simplex.hpp"

namespace sparcs::milp {
namespace {

constexpr double kTol = 1e-6;

TEST(SimplexTest, TwoVarMaximizationClassic) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0
  // => min -3x - 5y; optimum at (2, 6), objective -36.
  LpProblem lp;
  const int x = lp.add_var(-3.0, 0.0, kInfinity);
  const int y = lp.add_var(-5.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}}, Sense::kLessEqual, 4.0);
  lp.add_row({{y, 2.0}}, Sense::kLessEqual, 12.0);
  lp.add_row({{x, 3.0}, {y, 2.0}}, Sense::kLessEqual, 18.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -36.0, kTol);
  EXPECT_NEAR(r.x[0], 2.0, kTol);
  EXPECT_NEAR(r.x[1], 6.0, kTol);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y s.t. x + y = 5, x <= 3 => (3,2) not needed; optimum any point,
  // objective 5.
  LpProblem lp;
  const int x = lp.add_var(1.0, 0.0, 3.0);
  const int y = lp.add_var(1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 5.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, kTol);
  EXPECT_NEAR(r.x[0] + r.x[1], 5.0, kTol);
}

TEST(SimplexTest, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 4, x - y >= -2, x,y >= 0. Optimum (1,3)? Check:
  // corner candidates: (4,0): obj 8; intersection x+y=4, y-x=2 -> (1,3): 11.
  // So optimum is (4,0) with objective 8.
  LpProblem lp;
  const int x = lp.add_var(2.0, 0.0, kInfinity);
  const int y = lp.add_var(3.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 4.0);
  lp.add_row({{x, 1.0}, {y, -1.0}}, Sense::kGreaterEqual, -2.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, kTol);
  EXPECT_NEAR(r.x[0], 4.0, kTol);
  EXPECT_NEAR(r.x[1], 0.0, kTol);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x >= 5 and x <= 3 via rows.
  LpProblem lp;
  const int x = lp.add_var(1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}}, Sense::kGreaterEqual, 5.0);
  lp.add_row({{x, 1.0}}, Sense::kLessEqual, 3.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, StartPointSatisfyingEveryRowNeedsNoIteration) {
  // The start point x = y = 0 satisfies each row, so every slack starts
  // basic, no artificial is needed, and a non-negative objective is already
  // optimal there.
  LpProblem lp;
  const int x = lp.add_var(1.0, 0.0, 10.0);
  const int y = lp.add_var(2.0, 0.0, 10.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 5.0);
  lp.add_row({{x, 1.0}, {y, -1.0}}, Sense::kGreaterEqual, -3.0);
  lp.add_row({{x, 1.0}, {y, -2.0}}, Sense::kEqual, 0.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_NEAR(r.objective, 0.0, kTol);
}

TEST(SimplexTest, FarkasRayOverSatisfiedAndViolatedRowsCertifies) {
  // x = y (r3) and x + y <= 4 give x <= 2; x + 2y >= 9 needs x >= 3. The
  // start point x = y = 0 satisfies every row but the >= one, so only that
  // row starts with an artificial; the ray must still refute exactly.
  Model m("mixed");
  const VarId x = m.add_continuous(0.0, 10.0, "x");
  const VarId y = m.add_continuous(0.0, 10.0, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y) <= 4.0, "r0");
  m.add_constraint(LinExpr(y) - LinExpr(x) <= 1.0, "r1");
  m.add_constraint(LinExpr(x) + 2.0 * LinExpr(y) >= 9.0, "r2");
  m.add_constraint(LinExpr(x) - LinExpr(y) == 0.0, "r3");
  LpParams params;
  params.want_certificate = true;
  const LpResult r = solve_lp(relaxation_of(m), params);
  ASSERT_EQ(r.status, LpStatus::kInfeasible);
  ASSERT_EQ(r.certificate.kind, LpCertificate::Kind::kFarkas);
  InfeasibilityProof proof;
  ProofNode leaf;
  leaf.kind = ProofNode::Kind::kFarkas;
  leaf.rows = {0, 1, 2, 3};
  leaf.y = r.certificate.y;
  proof.nodes.push_back(leaf);
  const CertifyCheck check = certify_infeasible(m, proof);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(SimplexTest, InfeasibleBoundsDetected) {
  LpProblem lp;
  lp.add_var(1.0, 5.0, 3.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  // min -x with x >= 0 unconstrained above.
  LpProblem lp;
  const int x = lp.add_var(-1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}}, Sense::kGreaterEqual, 0.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, BoundedAboveByVariableBound) {
  // min -x with 0 <= x <= 7: optimum 7 via a pure bound flip.
  LpProblem lp;
  lp.add_var(-1.0, 0.0, 7.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -7.0, kTol);
  EXPECT_NEAR(r.x[0], 7.0, kTol);
}

TEST(SimplexTest, FreeVariable) {
  // min x s.t. x >= -10 expressed as a row (variable itself free).
  LpProblem lp;
  const int x = lp.add_var(1.0, -kInfinity, kInfinity);
  lp.add_row({{x, 1.0}}, Sense::kGreaterEqual, -10.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -10.0, kTol);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y, x in [-5, 5], y in [-3, 3], x + y >= -6.
  LpProblem lp;
  const int x = lp.add_var(1.0, -5.0, 5.0);
  const int y = lp.add_var(1.0, -3.0, 3.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, -6.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -6.0, kTol);
}

TEST(SimplexTest, DegenerateProblem) {
  // Multiple redundant constraints intersecting at the optimum.
  LpProblem lp;
  const int x = lp.add_var(-1.0, 0.0, kInfinity);
  const int y = lp.add_var(-1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 2.0);
  lp.add_row({{x, 1.0}}, Sense::kLessEqual, 1.0);
  lp.add_row({{y, 1.0}}, Sense::kLessEqual, 1.0);
  lp.add_row({{x, 2.0}, {y, 2.0}}, Sense::kLessEqual, 4.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, kTol);
}

TEST(SimplexTest, FixedVariableViaBounds) {
  LpProblem lp;
  const int x = lp.add_var(1.0, 4.0, 4.0);
  const int y = lp.add_var(1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 9.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 4.0, kTol);
  EXPECT_NEAR(r.x[1], 5.0, kTol);
}

TEST(SimplexTest, ZeroObjectiveFeasibilityProblem) {
  LpProblem lp;
  const int x = lp.add_var(0.0, 0.0, 10.0);
  const int y = lp.add_var(0.0, 0.0, 10.0);
  lp.add_row({{x, 1.0}, {y, 2.0}}, Sense::kEqual, 8.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0] + 2.0 * r.x[1], 8.0, kTol);
}

TEST(SimplexTest, LargerDiet) {
  // A small diet-style LP with a known optimum.
  // min 0.6a + 0.35b s.t. 5a + 7b >= 8 ; 4a + 2b >= 15 ; a, b >= 0.
  // Binding: 4a + 2b = 15 with b = 0 -> a = 3.75 gives 5a = 18.75 >= 8 ok.
  // obj = 2.25. Alternative corner: intersection -> a = (15*7-2*8)/(4*7-2*5)
  // = (105-16)/18 = 4.944, b negative -> infeasible. So optimum 2.25.
  LpProblem lp;
  const int a = lp.add_var(0.6, 0.0, kInfinity);
  const int b = lp.add_var(0.35, 0.0, kInfinity);
  lp.add_row({{a, 5.0}, {b, 7.0}}, Sense::kGreaterEqual, 8.0);
  lp.add_row({{a, 4.0}, {b, 2.0}}, Sense::kGreaterEqual, 15.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.25, 1e-5);
}

TEST(SimplexTest, RelaxationOfModel) {
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_integer(0, 3, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y) <= 2.5, "c");
  m.set_objective(-(LinExpr(x) + LinExpr(y)), /*minimize=*/true);
  const LpProblem lp = relaxation_of(m);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.5, kTol);
}

TEST(SimplexTest, MaximizationFlipReported) {
  Model m;
  const VarId x = m.add_continuous(0, 4, "x");
  m.set_objective(LinExpr(x), /*minimize=*/false);
  bool flipped = false;
  const LpProblem lp = relaxation_of(m, &flipped);
  EXPECT_TRUE(flipped);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, kTol);  // minimized negation
}

}  // namespace
}  // namespace sparcs::milp
