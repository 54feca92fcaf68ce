#include <gtest/gtest.h>

#include "milp/expr.hpp"
#include "milp/model.hpp"
#include "support/error.hpp"

namespace sparcs::milp {
namespace {

TEST(LinExprTest, ConstructionAndEvaluate) {
  LinExpr e(VarId{0});
  e += LinExpr(VarId{1}, 2.0);
  e.add_constant(3.0);
  EXPECT_DOUBLE_EQ(e.evaluate({10.0, 5.0}), 10.0 + 10.0 + 3.0);
}

TEST(LinExprTest, OperatorAlgebra) {
  const LinExpr x0(VarId{0});
  const LinExpr x1(VarId{1});
  LinExpr e = 2.0 * x0 + x1 - 0.5 * x0;
  e.normalize();
  ASSERT_EQ(e.terms().size(), 2u);
  EXPECT_DOUBLE_EQ(e.terms()[0].coef, 1.5);
  EXPECT_DOUBLE_EQ(e.terms()[1].coef, 1.0);
}

TEST(LinExprTest, NormalizeMergesAndDrops) {
  LinExpr e;
  e.add_term(2, 1.0);
  e.add_term(1, 2.0);
  e.add_term(2, -1.0);
  e.normalize();
  ASSERT_EQ(e.terms().size(), 1u);
  EXPECT_EQ(e.terms()[0].var, 1);
}

TEST(LinExprTest, Negation) {
  LinExpr e = -(LinExpr(VarId{0}) + 2.0);
  EXPECT_DOUBLE_EQ(e.constant(), -2.0);
  EXPECT_DOUBLE_EQ(e.terms()[0].coef, -1.0);
}

TEST(LinExprTest, ToStringReadable) {
  LinExpr e = 3.0 * LinExpr(VarId{2}) - LinExpr(VarId{7}, 1.5) + 4.0;
  const std::string s = e.to_string();
  EXPECT_NE(s.find("3 x2"), std::string::npos);
  EXPECT_NE(s.find("1.5 x7"), std::string::npos);
  EXPECT_NE(s.find("4"), std::string::npos);
}

TEST(RelationTest, MovesConstantsToRhs) {
  const Relation r = (LinExpr(VarId{0}) + 5.0 <= LinExpr(VarId{1}) + 7.0);
  EXPECT_EQ(r.sense, Sense::kLessEqual);
  EXPECT_DOUBLE_EQ(r.lhs.constant(), 0.0);
  EXPECT_DOUBLE_EQ(r.rhs, 2.0);
  ASSERT_EQ(r.lhs.terms().size(), 2u);
}

TEST(ModelTest, AddVariablesAndStats) {
  Model m("test");
  m.add_binary("b");
  m.add_integer(0, 10, "i");
  m.add_continuous(-1, 1, "c");
  const ModelStats s = m.stats();
  EXPECT_EQ(s.num_vars, 3);
  EXPECT_EQ(s.num_binary, 1);
  EXPECT_EQ(s.num_integer, 1);
  EXPECT_EQ(s.num_continuous, 1);
}

TEST(ModelTest, ConstraintNormalization) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  const VarId y = m.add_continuous(0, 10, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y) + 1.0 >= 4.0, "c");
  const ConstraintInfo& c = m.constraint(0);
  EXPECT_EQ(c.sense, Sense::kGreaterEqual);
  EXPECT_DOUBLE_EQ(c.rhs, 3.0);
  EXPECT_EQ(c.terms.size(), 2u);
}

TEST(ModelTest, TightenBoundsOnlyTightens) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  m.tighten_bounds(x, -5, 8);
  EXPECT_DOUBLE_EQ(m.var(x).lb, 0);
  EXPECT_DOUBLE_EQ(m.var(x).ub, 8);
  EXPECT_THROW(m.tighten_bounds(x, 9, 20), InvalidArgumentError);
}

TEST(ModelTest, EmptyBoundBoxRejected) {
  Model m;
  EXPECT_THROW(m.add_continuous(5, 4, "bad"), InvalidArgumentError);
}

TEST(ModelTest, ValidateRejectsInfiniteIntegerBounds) {
  Model m;
  m.add_var(VarType::kInteger, 0, kInfinity, "i");
  EXPECT_THROW(m.validate(), InvalidArgumentError);
}

TEST(ModelTest, BranchAnnotations) {
  Model m;
  const VarId x = m.add_binary("x");
  m.set_branch_priority(x, 5);
  m.set_branch_hint(x, 1.0);
  EXPECT_EQ(m.var(x).branch_priority, 5);
  EXPECT_DOUBLE_EQ(m.var(x).branch_hint, 1.0);
}

}  // namespace
}  // namespace sparcs::milp
