#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "milp/compiled.hpp"
#include "milp/propagation.hpp"
#include "support/error.hpp"

namespace sparcs::milp {
namespace {

TEST(PropagationTest, UnitPropagationOnEquality) {
  // x + y = 1 with x fixed to 1 forces y = 0.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint(LinExpr(x) + LinExpr(y) == 1.0, "uniq");
  m.set_bounds(x, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.ub(y), 0.0);
  EXPECT_TRUE(domains.is_fixed(y));
}

TEST(PropagationTest, ConflictOnOverCommittedKnapsack) {
  // 5x + 5y <= 4 with both fixed to 1 is a conflict.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint(5.0 * LinExpr(x) + 5.0 * LinExpr(y) <= 4.0, "cap");
  m.set_bounds(x, 1, 1);
  m.set_bounds(y, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  EXPECT_FALSE(prop.propagate(domains, {}, st));
  EXPECT_EQ(st.conflicts, 1);
}

TEST(PropagationTest, KnapsackFixesImpossibleItem) {
  // 5x + 3y <= 4: x can never be 1.
  Model m;
  const VarId x = m.add_binary("x");
  m.add_binary("y");
  m.add_constraint(5.0 * LinExpr(x) + 3.0 * LinExpr(VarId{1}) <= 4.0, "cap");
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.ub(x), 0.0);
}

TEST(PropagationTest, ContinuousBoundTightening) {
  // d >= 3x with x = 1 and d <= 10 gives d in [3, 10].
  Model m;
  const VarId x = m.add_binary("x");
  const VarId d = m.add_continuous(0, 10, "d");
  m.add_constraint(3.0 * LinExpr(x) - LinExpr(d) <= 0.0, "def");
  m.set_bounds(x, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_NEAR(domains.lb(d), 3.0, 1e-9);
}

TEST(PropagationTest, ChainedPropagationAcrossConstraints) {
  // x=1 -> y>=2 (row1), y>=2 -> z<=1 (row2 via z + y <= 3).
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_integer(0, 5, "y");
  const VarId z = m.add_integer(0, 5, "z");
  m.add_constraint(2.0 * LinExpr(x) - LinExpr(y) <= 0.0, "row1");
  m.add_constraint(LinExpr(z) + LinExpr(y) <= 3.0, "row2");
  m.set_bounds(x, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.lb(y), 2.0);
  EXPECT_DOUBLE_EQ(domains.ub(z), 1.0);
}

TEST(PropagationTest, IntegerRounding) {
  // 2y >= 3 forces integer y >= 2.
  Model m;
  const VarId y = m.add_integer(0, 5, "y");
  m.add_constraint(2.0 * LinExpr(y) >= 3.0, "r");
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.lb(y), 2.0);
}

TEST(PropagationTest, InfiniteBoundsHandled) {
  // x free continuous, x >= 5 via row; no crash, bound set.
  Model m;
  const VarId x = m.add_continuous(-kInfinity, kInfinity, "x");
  const VarId y = m.add_continuous(-kInfinity, kInfinity, "y");
  m.add_constraint(LinExpr(x) >= 5.0, "r1");
  m.add_constraint(LinExpr(x) + LinExpr(y) <= 7.0, "r2");
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.lb(x), 5.0);
  EXPECT_DOUBLE_EQ(domains.ub(y), 2.0);
}

TEST(PropagationTest, RollbackRestoresBounds) {
  Model m;
  const VarId x = m.add_binary("x");
  CompiledModel compiled(m);
  Domains domains(compiled);
  const std::size_t mark = domains.checkpoint();
  domains.set_lb(x, 1.0);
  EXPECT_TRUE(domains.is_fixed(x));
  domains.rollback(mark);
  EXPECT_DOUBLE_EQ(domains.lb(x), 0.0);
  EXPECT_FALSE(domains.is_fixed(x));
}

TEST(PropagationTest, SetBoundsIgnoreNonImprovements) {
  Model m;
  const VarId x = m.add_integer(2, 8, "x");
  CompiledModel compiled(m);
  Domains domains(compiled);
  EXPECT_FALSE(domains.set_lb(x, 1.0));
  EXPECT_FALSE(domains.set_ub(x, 9.0));
  EXPECT_TRUE(domains.set_lb(x, 3.0));
  EXPECT_TRUE(domains.set_ub(x, 7.0));
}

TEST(PropagationTest, ConflictingCallCountsItsVisits) {
  // x = 1 forces y = 0 through "uniq", which "need" then refutes: the call
  // ends in a conflict, and both of its visits still count.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint(LinExpr(x) + LinExpr(y) == 1.0, "uniq");
  m.add_constraint(LinExpr(y) >= 1.0, "need");
  m.set_bounds(x, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  EXPECT_FALSE(prop.propagate(domains, {}, st));
  EXPECT_EQ(st.conflicts, 1);
  EXPECT_EQ(st.constraints_processed, 2);
}

/// Diamond a -> {b, c} -> d, one binary per node with latency 2, 5, 3, 1,
/// as a path family over target t; registering it builds the rows
/// sum(path) - t <= 0  of its paths a-b-d and a-c-d.
struct Diamond {
  Model m;
  VarId a, b, c, d, t;
  ConstraintId abd = -1, acd = -1;

  explicit Diamond(double t_ub) {
    a = m.add_binary("a");
    b = m.add_binary("b");
    c = m.add_binary("c");
    d = m.add_binary("d");
    t = m.add_continuous(0, t_ub, "t");
  }

  PathFamily family() const {
    PathFamily f;
    f.target = t;
    f.succ_begin = {0, 2, 3, 4, 4};
    f.succ = {1, 2, 3, 3};
    f.topo_order = {0, 1, 2, 3};
    f.term_begin = {0, 1, 2, 3, 4};
    f.terms = {{a, 2.0}, {b, 5.0}, {c, 3.0}, {d, 1.0}};
    return f;
  }

  void add_family(PathFamily f) {
    const int index = m.add_path_family(std::move(f), "path", "");
    abd = m.path_families()[static_cast<std::size_t>(index)].rows[0];
    acd = m.path_families()[static_cast<std::size_t>(index)].rows[1];
  }
};

TEST(PropagationTest, PathFamilyTightensFromTheLongestPaths) {
  // a = b = 1: path a-b-d has weight 7, so t >= 7, and with t <= 7.5 the
  // path leaves no room for d. Path a-c-d (weight 2) leaves room for c.
  Diamond dia(7.5);
  dia.add_family(dia.family());
  dia.m.set_bounds(dia.a, 1, 1);
  dia.m.set_bounds(dia.b, 1, 1);
  CompiledModel compiled(dia.m);
  ASSERT_EQ(compiled.num_round_units(), 1);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  DerivationLog log;
  prop.set_log(&log);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_EQ(st.constraints_processed, 1);  // one visit of the family
  EXPECT_DOUBLE_EQ(domains.lb(dia.t), 7.0);
  EXPECT_DOUBLE_EQ(domains.ub(dia.d), 0.0);
  EXPECT_DOUBLE_EQ(domains.ub(dia.c), 1.0);
  ASSERT_EQ(log.derivations.size(), 2u);
  for (const Derivation& der : log.derivations) {
    EXPECT_EQ(der.constraint, dia.abd);
  }
}

TEST(PropagationTest, PathFamilyConflictCitesTheLongestPath) {
  for (const bool via_b : {true, false}) {
    // Every node on: paths weigh 8 (a-b-d) and 6 (a-c-d). With b off,
    // a-c-d is the longest.
    Diamond dia(via_b ? 7.5 : 5.5);
    dia.add_family(dia.family());
    for (const VarId v : {dia.a, dia.c, dia.d}) dia.m.set_bounds(v, 1, 1);
    dia.m.set_bounds(dia.b, via_b ? 1 : 0, via_b ? 1 : 0);
    CompiledModel compiled(dia.m);
    Domains domains(compiled);
    Propagator prop(compiled, 1e-7, 50);
    DerivationLog log;
    prop.set_log(&log);
    PropagationStats st;
    EXPECT_FALSE(prop.propagate(domains, {}, st));
    EXPECT_EQ(log.conflict_row, via_b ? dia.abd : dia.acd);
  }
}

// z = 1 lowers ub(x) through "fix" (z + x <= 1). Only units that read
// ub(x) are queued by that: a <= row with positive terms reads lower bounds
// only, a >= row reads ub of its positive terms, an = row every bound.
TEST(PropagationTest, RowsAreQueuedOnlyForTheBoundsTheyRead) {
  const auto visits = [](Sense sense) {
    Model m;
    const VarId x = m.add_binary("x");
    const VarId y = m.add_binary("y");
    const VarId z = m.add_binary("z");
    const VarId w = m.add_binary("w");
    m.add_constraint(LinExpr(z) + LinExpr(x) <= 1.0, "fix");
    // None of these rows binds, so each visit derives nothing.
    const LinExpr reader = LinExpr(x) + LinExpr(y);
    if (sense == Sense::kEqual) {
      m.add_constraint(reader - LinExpr(w) == 0.0, "reader");
    } else {
      m.add_constraint(reader, sense, sense == Sense::kLessEqual ? 2.0 : 0.0,
                       "reader");
    }
    CompiledModel compiled(m);
    Domains domains(compiled);
    Propagator prop(compiled, 1e-7, 50);
    PropagationStats st;
    EXPECT_TRUE(prop.propagate(domains, {}, st));
    EXPECT_EQ(st.bounds_tightened, 0);
    domains.set_lb(z, 1.0);
    st = {};
    EXPECT_TRUE(prop.propagate(domains, {z}, st));
    EXPECT_DOUBLE_EQ(domains.ub(x), 0.0);
    EXPECT_EQ(st.bounds_tightened, 1);
    return st.constraints_processed;
  };
  EXPECT_EQ(visits(Sense::kLessEqual), 1);  // "fix" alone
  EXPECT_EQ(visits(Sense::kGreaterEqual), 2);
  EXPECT_EQ(visits(Sense::kEqual), 2);

  // A family reads lb of its terms and ub of its target: lowering ub(a)
  // leaves it alone, lowering ub(t) to 10 queues it (its paths weigh 8 at
  // most, so it derives nothing).
  for (const bool target : {false, true}) {
    Diamond dia(20);
    dia.add_family(dia.family());
    const VarId z = dia.m.add_binary("z");
    if (target) {
      dia.m.add_constraint(8.0 * LinExpr(z) + LinExpr(dia.t) <= 18.0, "fix");
    } else {
      dia.m.add_constraint(LinExpr(z) + LinExpr(dia.a) <= 1.0, "fix");
    }
    CompiledModel compiled(dia.m);
    Domains domains(compiled);
    Propagator prop(compiled, 1e-7, 50);
    PropagationStats st;
    ASSERT_TRUE(prop.propagate(domains, {}, st));
    domains.set_lb(z, 1.0);
    st = {};
    ASSERT_TRUE(prop.propagate(domains, {z}, st));
    EXPECT_EQ(st.bounds_tightened, 1);
    EXPECT_EQ(st.constraints_processed, target ? 2 : 1);
  }
}

// A term's new bound lies its side's slack beyond the bound it has, so a
// visit whose widest term |a|*(ub - lb) fits in the slack returns before the
// per-term loop. At the boundary the loop derives nothing either, and one
// step inside it the loop's bound is what propagation ends with.
TEST(PropagationTest, TighteningSkipIsExactAtTheBoundary) {
  constexpr double kTol = 1e-7;
  const auto propagate = [&](const Model& m, PropagationStats& st) {
    CompiledModel compiled(m);
    Domains domains(compiled);
    Propagator prop(compiled, kTol, 50);
    EXPECT_TRUE(prop.propagate(domains, {}, st));
    return std::vector<double>{domains.lb(0), domains.ub(0), domains.lb(1),
                               domains.ub(1)};
  };
  // Integral terms: 3x + 2y with x in [0, 4] and y in [0, 5]; the widest
  // term spans 12.
  for (const Sense sense : {Sense::kLessEqual, Sense::kGreaterEqual}) {
    const bool le = sense == Sense::kLessEqual;
    for (const double step : {0.0, 1.0}) {
      Model m;
      const VarId x = m.add_integer(0, 4, "x");
      const VarId y = m.add_integer(0, 5, "y");
      // <=: slack rhs - 0; >=: slack 22 - rhs.
      const double slack = 12.0 - step;
      m.add_constraint(3.0 * LinExpr(x) + 2.0 * LinExpr(y), sense,
                       le ? slack : 22.0 - slack, "r");
      PropagationStats st;
      const std::vector<double> b = propagate(m, st);
      EXPECT_EQ(st.bounds_tightened, step == 0.0 ? 0 : 1);
      // One step inside: x <= floor(11 / 3) = 3, or x >= ceil(1 / 3) = 1.
      EXPECT_EQ(b, (step == 0.0 ? std::vector<double>{0, 4, 0, 5}
                    : le        ? std::vector<double>{0, 3, 0, 5}
                                : std::vector<double>{1, 4, 0, 5}));
    }
  }
  // Per term: 3x + y with x in [0, 4] and y in [0, 11] leaves a slack of 11.
  // x's span of 12 is one step over it and takes the loop's bound; y's span
  // equals it, and y keeps its bounds.
  for (const Sense sense : {Sense::kLessEqual, Sense::kGreaterEqual}) {
    const bool le = sense == Sense::kLessEqual;
    Model m;
    const VarId x = m.add_integer(0, 4, "x");
    const VarId y = m.add_integer(0, 11, "y");
    // <=: slack rhs - 0; >=: slack 23 - rhs.
    m.add_constraint(3.0 * LinExpr(x) + LinExpr(y), sense, le ? 11.0 : 12.0,
                     "r");
    PropagationStats st;
    const std::vector<double> b = propagate(m, st);
    EXPECT_EQ(st.bounds_tightened, 1);
    // x <= floor(11 / 3) = 3, or x >= ceil(1 / 3) = 1.
    EXPECT_EQ(b, (le ? std::vector<double>{0, 3, 0, 11}
                     : std::vector<double>{1, 4, 0, 11}));
  }
  // Continuous terms: 2.5x + y <= rhs with x in [0, 4], y in [0, 1]. The
  // per-term loop moves ub(x) only when the slack is more than 2.5 * tol
  // below the span of 10.
  for (const double below : {0.0, 0.5 * 2.5 * kTol, 2.0 * 2.5 * kTol}) {
    Model m;
    const VarId x = m.add_continuous(0, 4, "x");
    const VarId y = m.add_continuous(0, 1, "y");
    m.add_constraint(2.5 * LinExpr(x) + LinExpr(y) <= 10.0 - below, "r");
    PropagationStats st;
    const std::vector<double> b = propagate(m, st);
    const bool moves = below > 2.5 * kTol;
    EXPECT_EQ(st.bounds_tightened, moves ? 1 : 0) << below;
    EXPECT_DOUBLE_EQ(b[1], moves ? (10.0 - below) / 2.5 : 4.0) << below;
  }
  // A family node: b = 1 makes every path through a weigh 5 at least, and
  // a's term spans 2. ub(t) = 7 leaves exactly that room; 6 leaves none.
  for (const double cap : {7.0, 6.0}) {
    Diamond dia(cap);
    dia.add_family(dia.family());
    dia.m.set_bounds(dia.b, 1, 1);
    CompiledModel compiled(dia.m);
    Domains domains(compiled);
    Propagator prop(compiled, kTol, 50);
    PropagationStats st;
    ASSERT_TRUE(prop.propagate(domains, {}, st));
    EXPECT_DOUBLE_EQ(domains.lb(dia.t), 5.0);
    EXPECT_EQ(st.bounds_tightened, cap == 7.0 ? 1 : 2);
    EXPECT_DOUBLE_EQ(domains.ub(dia.a), cap == 7.0 ? 1.0 : 0.0);
    EXPECT_DOUBLE_EQ(domains.ub(dia.d), 1.0);
  }
}

// A call that ends on a conflict or on its round budget leaves units
// queued. The next call must not see them: from the same domains it makes
// the visits and reaches the bounds a fresh Propagator does.
TEST(PropagationTest, CallAfterAnEarlyExitMatchesAFreshPropagator) {
  // A chain x0 + 1 <= x1, ..., x9 + 1 <= x10 over [0, 100]: a full pass
  // takes about 55 visits, so one round (10 units) stops well before the
  // fixpoint.
  Model m;
  std::vector<VarId> x;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(m.add_integer(0, 100, "x" + std::to_string(i)));
  }
  for (int i = 0; i < 10; ++i) {
    m.add_constraint(LinExpr(x[i]) - LinExpr(x[i + 1]) <= -1.0,
                     "c" + std::to_string(i));
  }
  const CompiledModel compiled(m);
  const auto expect_next_call_matches_fresh = [&](Propagator& used,
                                                  int rounds, Domains& domains,
                                                  VarId v, double ub,
                                                  const char* label) {
    ASSERT_TRUE(domains.set_ub(v, ub)) << label;
    Domains fresh_domains = domains;
    Propagator fresh(compiled, 1e-7, rounds);
    PropagationStats used_st, fresh_st;
    const bool used_ok = used.propagate(domains, {v}, used_st);
    EXPECT_EQ(used_ok, fresh.propagate(fresh_domains, {v}, fresh_st))
        << label;
    EXPECT_EQ(used_st.constraints_processed, fresh_st.constraints_processed)
        << label;
    EXPECT_EQ(used_st.bounds_tightened, fresh_st.bounds_tightened) << label;
    for (const VarId u : x) {
      EXPECT_EQ(domains.lb(u), fresh_domains.lb(u)) << label << " x" << u;
      EXPECT_EQ(domains.ub(u), fresh_domains.ub(u)) << label << " x" << u;
    }
  };
  {
    Domains domains(compiled);
    Propagator prop(compiled, 1e-7, /*max_rounds=*/1);
    PropagationStats st;
    ASSERT_TRUE(prop.propagate(domains, {}, st));
    ASSERT_EQ(st.constraints_processed, 11);  // the budget, plus one
    expect_next_call_matches_fresh(prop, 1, domains, x[10], 50.0, "budget");
  }
  {
    Domains domains(compiled);
    Propagator prop(compiled, 1e-7, 50);
    const std::size_t mark = domains.checkpoint();
    ASSERT_TRUE(domains.set_lb(x[0], 95.0));
    PropagationStats st;
    ASSERT_FALSE(prop.propagate(domains, {x[0]}, st));  // x10 >= 105
    domains.rollback(mark);
    expect_next_call_matches_fresh(prop, 50, domains, x[5], 60.0, "conflict");
  }
}

TEST(PropagationTest, ValidateRejectsFamiliesThatDoNotMatchTheirRows) {
  {
    // Rows are built from the family, so only its structure can be wrong.
    Diamond dia(10);
    PathFamily backwards = dia.family();
    backwards.topo_order = {3, 1, 2, 0};  // edges run against it
    EXPECT_THROW(dia.add_family(backwards), InvalidArgumentError);
    PathFamily repeated = dia.family();
    repeated.terms[3].var = dia.a;  // a twice on both paths
    EXPECT_THROW(dia.add_family(repeated), InvalidArgumentError);
    EXPECT_EQ(dia.m.num_constraints(), 0);
    EXPECT_TRUE(dia.m.path_families().empty());
  }
  {
    Diamond dia(10);
    PathFamily reordered = dia.family();
    reordered.topo_order = {0, 2, 1, 3};  // fine: b and c are unordered
    dia.add_family(reordered);
    EXPECT_NO_THROW(dia.m.validate());
    // The path order follows the CSR successors, not topo_order.
    EXPECT_EQ(dia.m.constraint(dia.abd).terms.size(), 4u);
    EXPECT_EQ(dia.m.constraint(dia.abd).terms[1].var, dia.b);
    EXPECT_EQ(dia.m.constraint(dia.acd).terms[1].var, dia.c);
  }
}

}  // namespace
}  // namespace sparcs::milp
