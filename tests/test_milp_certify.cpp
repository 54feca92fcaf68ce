// Certificate-rejection suite: the exact checker must refuse certificates
// that are wrong by any margin — a Farkas ray with the wrong sign structure,
// an incumbent violating a constraint by one ulp, branch boxes that fail to
// cover a domain — and the solver/partitioner must answer a refused
// certificate by demoting the verdict, never by changing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "core/partitioner.hpp"
#include "milp/certify.hpp"
#include "milp/solver.hpp"
#include "support/failpoint.hpp"
#include "support/json.hpp"
#include "support/observer.hpp"
#include "support/telemetry.hpp"
#include "support/stopwatch.hpp"
#include "workloads/ar_filter.hpp"

namespace sparcs::milp {
namespace {

// --- certify_feasible -------------------------------------------------------

/// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6; optimum 20 at {b, c}.
Model knapsack_model() {
  Model m("knapsack");
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(c) <=
                       6.0,
                   "cap");
  m.set_objective(10.0 * LinExpr(a) + 13.0 * LinExpr(b) + 7.0 * LinExpr(c),
                  /*minimize=*/false);
  return m;
}

TEST(CertifyFeasibleTest, AcceptsExactSolution) {
  const CertifyCheck check =
      certify_feasible(knapsack_model(), {0.0, 1.0, 1.0});
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(CertifyFeasibleTest, RejectsOneUlpConstraintViolation) {
  // 0.1 * 3 evaluates to 0.30000000000000004 in doubles: exactly one ulp
  // above 0.3. Every tolerance-based checker accepts this point; the exact
  // checker must reject it, and the integral variable leaves no room for
  // the continuous-repair pass to mask the violation.
  Model m("ulp");
  m.add_integer(0, 10, "x");
  m.add_constraint(0.1 * LinExpr(0) <= 0.3, "tight");
  EXPECT_FALSE(certify_feasible(m, {3.0}).ok);
  // One step down the violation disappears (0.1 * 2 < 0.3 exactly).
  EXPECT_TRUE(certify_feasible(m, {2.0}).ok);
}

TEST(CertifyFeasibleTest, RejectsNonIntegralValue) {
  Model m("frac");
  m.add_integer(0, 10, "x");
  m.add_constraint(LinExpr(0) <= 5.0, "cap");
  EXPECT_FALSE(certify_feasible(m, {std::nextafter(3.0, 4.0)}).ok);
  EXPECT_TRUE(certify_feasible(m, {3.0}).ok);
}

TEST(CertifyFeasibleTest, RejectsOutOfBoundsValue) {
  Model m("oob");
  m.add_integer(0, 4, "x");
  EXPECT_FALSE(certify_feasible(m, {5.0}).ok);
}

// --- certify_infeasible -----------------------------------------------------

/// x + y >= 3 with x, y binary: infeasible (max lhs is 2).
Model infeasible_model() {
  Model m("infeasible");
  m.add_binary("x");
  m.add_binary("y");
  m.add_constraint(LinExpr(0) + LinExpr(1) >= 3.0, "need3");
  return m;
}

/// Infeasible in a way interval propagation cannot see: no single row
/// tightens any bound (each residual interval is slack), but summing the
/// three pairwise rows gives x + y + z <= 3, contradicting the >= 4 row —
/// a refutation only the LP finds, so the proof carries a Farkas leaf.
Model lp_refuted_model() {
  Model m("lp_refuted");
  const VarId x = m.add_integer(0, 2, "x");
  const VarId y = m.add_integer(0, 2, "y");
  const VarId z = m.add_integer(0, 2, "z");
  m.add_constraint(LinExpr(x) + LinExpr(y) <= 2.0, "xy");
  m.add_constraint(LinExpr(y) + LinExpr(z) <= 2.0, "yz");
  m.add_constraint(LinExpr(x) + LinExpr(z) <= 2.0, "xz");
  m.add_constraint(LinExpr(x) + LinExpr(y) + LinExpr(z) >= 4.0, "sum");
  return m;
}

TEST(CertifyInfeasibleTest, SolverProofPassesExactCheck) {
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(infeasible_model(), params).solve();
  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.certified, CertifyStatus::kCertified) << s.certify_detail;
  ASSERT_NE(s.proof, nullptr);
  EXPECT_TRUE(certify_infeasible(infeasible_model(), *s.proof).ok);
}

TEST(CertifyInfeasibleTest, LpRefutedProofCarriesFarkasLeafAndPasses) {
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(lp_refuted_model(), params).solve();
  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.certified, CertifyStatus::kCertified) << s.certify_detail;
  ASSERT_NE(s.proof, nullptr);
  bool saw_farkas = false;
  for (const ProofNode& node : s.proof->nodes) {
    saw_farkas |= node.kind == ProofNode::Kind::kFarkas;
  }
  EXPECT_TRUE(saw_farkas);
  EXPECT_TRUE(certify_infeasible(lp_refuted_model(), *s.proof).ok);
}

/// LP-feasible at the root (b = 1/2, x = y = z = 1) but infeasible on both
/// branches of b: b = 0 leaves x + y + z >= 4, b = 1 leaves x + y + z - 2 >= 2,
/// and the pairwise rows cap the sum at 3. No single row tightens a bound
/// under either branch, so only the node LP, with b folded into its rhs,
/// refutes each child.
Model branch_refuted_model() {
  Model m("branch_refuted");
  const VarId b = m.add_binary("b");
  m.set_branch_priority(b, 1);
  const VarId x = m.add_integer(0, 2, "x");
  const VarId y = m.add_integer(0, 2, "y");
  const VarId z = m.add_integer(0, 2, "z");
  m.add_constraint(LinExpr(x) + LinExpr(y) <= 2.0, "xy");
  m.add_constraint(LinExpr(y) + LinExpr(z) <= 2.0, "yz");
  m.add_constraint(LinExpr(x) + LinExpr(z) <= 2.0, "xz");
  m.add_constraint(LinExpr(x) + LinExpr(y) + LinExpr(z) + 2.0 * LinExpr(b) >=
                       4.0,
                   "low");
  m.add_constraint(LinExpr(x) + LinExpr(y) + LinExpr(z) - 2.0 * LinExpr(b) >=
                       2.0,
                   "high");
  return m;
}

TEST(CertifyInfeasibleTest, FarkasLeavesBelowTheRootCertifyExactly) {
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(branch_refuted_model(), params).solve();
  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.certified, CertifyStatus::kCertified) << s.certify_detail;
  ASSERT_NE(s.proof, nullptr);
  int farkas_below_root = 0;
  for (const ProofNode& node : s.proof->nodes) {
    if (node.kind == ProofNode::Kind::kFarkas) {
      EXPECT_EQ(node.rank.size(), 1u);
      ++farkas_below_root;
    }
  }
  EXPECT_EQ(farkas_below_root, 2);  // one per branch of b
  EXPECT_TRUE(certify_infeasible(branch_refuted_model(), *s.proof).ok);
}

TEST(CertifyInfeasibleTest, RejectsFarkasRayOnFeasibleModel) {
  // A single-leaf "proof" whose ray claims the knapsack capacity row alone
  // refutes the box. No sign combination can: the model is feasible.
  InfeasibilityProof proof;
  ProofNode leaf;
  leaf.kind = ProofNode::Kind::kFarkas;
  leaf.rows = {0};
  leaf.y = {1.0};
  proof.nodes.push_back(leaf);
  EXPECT_FALSE(certify_infeasible(knapsack_model(), proof).ok);
}

TEST(CertifyInfeasibleTest, RejectsZeroAndWrongSignRays) {
  const Model m = infeasible_model();
  {
    InfeasibilityProof proof;
    ProofNode leaf;
    leaf.kind = ProofNode::Kind::kFarkas;
    leaf.rows = {0};
    leaf.y = {0.0};  // the zero ray proves nothing
    proof.nodes.push_back(leaf);
    EXPECT_FALSE(certify_infeasible(m, proof).ok);
  }
  {
    InfeasibilityProof proof;
    ProofNode leaf;
    leaf.kind = ProofNode::Kind::kFarkas;
    leaf.rows = {0};
    // need3 is a >= row: its multiplier must be <= 0 (y = -1 is the genuine
    // certificate). The sign condition rejects the flipped ray outright.
    leaf.y = {1.0};
    proof.nodes.push_back(leaf);
    EXPECT_FALSE(certify_infeasible(m, proof).ok);
  }
  {
    // And the correctly-signed ray on the same row is accepted.
    InfeasibilityProof proof;
    ProofNode leaf;
    leaf.kind = ProofNode::Kind::kFarkas;
    leaf.rows = {0};
    leaf.y = {-1.0};
    proof.nodes.push_back(leaf);
    EXPECT_TRUE(certify_infeasible(m, proof).ok);
  }
}

TEST(CertifyInfeasibleTest, RejectsBranchesThatDoNotCoverTheDomain) {
  // Interior node splits x in [0,10] into [0,4] and [6,10], silently
  // dropping x = 5 — exactly the hole a buggy (or corrupted) search would
  // leave. Both children carry genuine conflicts for their own boxes.
  Model m("hole");
  m.add_integer(0, 10, "x");
  m.add_constraint(LinExpr(0) >= 20.0, "big");  // conflicts everywhere
  InfeasibilityProof proof;
  ProofNode root;
  root.kind = ProofNode::Kind::kBranched;
  root.var = 0;
  root.branches = {{0.0, 4.0}, {6.0, 10.0}};
  proof.nodes.push_back(root);
  for (int child = 0; child < 2; ++child) {
    ProofNode leaf;
    leaf.rank = {child};
    leaf.kind = ProofNode::Kind::kConflict;
    leaf.conflict_row = 0;
    proof.nodes.push_back(leaf);
  }
  EXPECT_FALSE(certify_infeasible(m, proof).ok);
  // Closing the hole makes the same proof pass.
  proof.nodes[0].branches = {{0.0, 4.0}, {5.0, 10.0}};
  EXPECT_TRUE(certify_infeasible(m, proof).ok);
}

TEST(CertifyInfeasibleTest, RejectsOverflowedProof) {
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(infeasible_model(), params).solve();
  ASSERT_NE(s.proof, nullptr);
  InfeasibilityProof truncated = *s.proof;
  truncated.overflowed = true;
  EXPECT_FALSE(certify_infeasible(infeasible_model(), truncated).ok);
}

TEST(CertifyInfeasibleTest, RejectsEmptyProof) {
  EXPECT_FALSE(certify_infeasible(infeasible_model(), {}).ok);
}

/// 2 * (x0 + ... + x7) == 9 over binaries: infeasible by parity, which
/// interval propagation only sees once most variables are fixed, so the
/// proof is a tree of a few hundred nodes.
Model parity_model() {
  Model m("parity");
  LinExpr sum;
  for (int i = 0; i < 8; ++i) {
    sum += 2.0 * LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == 9.0, "odd");
  return m;
}

InfeasibilityProof parity_proof() {
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(parity_model(), params).solve();
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_NE(s.proof, nullptr);
  return s.proof != nullptr ? *s.proof : InfeasibilityProof{};
}

std::string rank_text(const std::vector<std::int32_t>& rank) {
  if (rank.empty()) return "root";
  std::string out;
  for (const std::int32_t digit : rank) {
    if (!out.empty()) out += '.';
    out += std::to_string(digit);
  }
  return out;
}

// The checker indexes nodes by rank, not by position: a proof whose nodes
// arrive out of depth-first order (as stitched worker fragments do) checks
// the same.
TEST(CertifyInfeasibleTest, SolverProofCertifiesInAnyNodeOrder) {
  InfeasibilityProof proof = parity_proof();
  ASSERT_GE(proof.nodes.size(), 20u);
  ASSERT_TRUE(certify_infeasible(parity_model(), proof).ok);
  std::mt19937 rng(20261020);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(proof.nodes.begin(), proof.nodes.end(), rng);
    const CertifyCheck check = certify_infeasible(parity_model(), proof);
    EXPECT_TRUE(check.ok) << check.detail;
  }
  std::reverse(proof.nodes.begin(), proof.nodes.end());
  EXPECT_TRUE(certify_infeasible(parity_model(), proof).ok);
  // A stray node no branch leads to sorts between two siblings' subtrees;
  // the walk never enters it.
  ProofNode stray;
  stray.rank = {0, 99};
  proof.nodes.push_back(stray);
  const CertifyCheck with_stray = certify_infeasible(parity_model(), proof);
  EXPECT_TRUE(with_stray.ok) << with_stray.detail;
}

TEST(CertifyInfeasibleTest, RejectsADuplicatedRank) {
  InfeasibilityProof proof = parity_proof();
  ASSERT_GE(proof.nodes.size(), 20u);
  // A copy of a node deep in the tree, placed before the original.
  const ProofNode twin = proof.nodes[proof.nodes.size() / 2];
  ASSERT_FALSE(twin.rank.empty());
  proof.nodes.insert(proof.nodes.begin() + 1, twin);
  const CertifyCheck check = certify_infeasible(parity_model(), proof);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.detail, "duplicate proof node " + rank_text(twin.rank));
}

TEST(CertifyInfeasibleTest, RejectsABranchedNodeWithAMissingChild) {
  InfeasibilityProof proof = parity_proof();
  // Drop the last child of the deepest-ranked branched node that has two.
  const ProofNode* parent = nullptr;
  for (const ProofNode& node : proof.nodes) {
    if (node.kind == ProofNode::Kind::kBranched && node.branches.size() == 2 &&
        (parent == nullptr || node.rank.size() > parent->rank.size())) {
      parent = &node;
    }
  }
  ASSERT_NE(parent, nullptr);
  const std::string parent_rank = rank_text(parent->rank);
  std::vector<std::int32_t> child = parent->rank;
  child.push_back(1);
  const auto erased = std::erase_if(proof.nodes, [&child](const ProofNode& n) {
    return n.rank == child;
  });
  ASSERT_EQ(erased, 1u);
  const CertifyCheck check = certify_infeasible(parity_model(), proof);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.detail, "node " + parent_rank + ": child 1 has no proof");
}

TEST(CertifyInfeasibleTest, RejectsAProofWithoutARoot) {
  InfeasibilityProof proof = parity_proof();
  std::erase_if(proof.nodes,
                [](const ProofNode& node) { return node.rank.empty(); });
  const CertifyCheck check = certify_infeasible(parity_model(), proof);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.detail, "proof has no root node");
}

/// 8 pigeons in 7 holes: 56 binaries, infeasible, and a few thousand nodes
/// deep for propagation alone.
Model pigeonhole_model() {
  constexpr int kPigeons = 8;
  constexpr int kHoles = 7;
  Model m("pigeonhole");
  std::vector<std::vector<VarId>> x(kPigeons);
  for (int p = 0; p < kPigeons; ++p) {
    for (int h = 0; h < kHoles; ++h) {
      x[p].push_back(m.add_binary("x" + std::to_string(p) + "_" +
                                  std::to_string(h)));
    }
  }
  for (int p = 0; p < kPigeons; ++p) {
    LinExpr row;
    for (int h = 0; h < kHoles; ++h) row += LinExpr(x[p][h]);
    m.add_constraint(std::move(row) == 1.0, "pigeon" + std::to_string(p));
  }
  for (int h = 0; h < kHoles; ++h) {
    LinExpr row;
    for (int p = 0; p < kPigeons; ++p) row += LinExpr(x[p][h]);
    m.add_constraint(std::move(row) <= 1.0, "hole" + std::to_string(h));
  }
  return m;
}

// Workers hand each other subproblems, and a donated subproblem is entered
// on another worker: its proof leaves and tree records must still stitch into
// one exactly checkable proof and one connected tree.
TEST(CertifyInfeasibleTest, MultiWorkerProofAndTreeStayWhole) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs at least 2 hardware threads";
  }
  SolverParams params;
  params.num_threads = 4;
  params.certify = CertifyMode::kFull;
  Observer::Options record_tree;
  record_tree.tree = true;
  Observer observer(record_tree);
  MilpSolution s;
  {
    const ObserverScope bind(&observer);
    s = Solver(pigeonhole_model(), params).solve();
  }
  std::ostringstream dump;
  observer.tree()->write_json(dump);

  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.certified, CertifyStatus::kCertified) << s.certify_detail;
  const json::ParseResult tree = json::parse(dump.str());
  ASSERT_TRUE(tree.ok) << tree.error;
  EXPECT_EQ(tree.value.member_int("evicted"), 0);
  const json::Value* nodes = tree.value.find("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_FALSE(nodes->array().empty());
  std::set<std::int64_t> ids;
  for (const json::Value& node : nodes->array()) {
    ids.insert(node.member_int("id"));
  }
  for (const json::Value& node : nodes->array()) {
    const std::int64_t parent = node.member_int("parent", -1);
    if (parent >= 0) {
      EXPECT_EQ(ids.count(parent), 1u) << "missing parent " << parent;
    }
  }
}

// --- corrupt certificates through the solver and the partitioner ------------

class CertifyFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built without SPARCS_ENABLE_FAILPOINTS";
    }
    failpoint::disarm_all();
  }
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(CertifyFailpointTest, CorruptRayDemotesVerdictAfterDistrustRetry) {
  // Every Farkas ray is zeroed at extraction, so the first solve and the
  // distrust re-solve both produce uncheckable proofs. The verdict itself
  // must not move — infeasible stays infeasible — it just loses its
  // certificate.
  failpoint::arm("milp.certify.corrupt_ray");
  SolverParams params = optimality_params();
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(lp_refuted_model(), params).solve();
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.certified, CertifyStatus::kUncertified);
  EXPECT_EQ(s.stats.certify_retries, 1);
  EXPECT_GE(s.stats.certificates_failed, 1);
  EXPECT_EQ(s.stats.uncertified_verdicts, 1);
}

TEST_F(CertifyFailpointTest, DistrustRetryStaysInsideTheSolvesNodeBudget) {
  // 2(x1 + ... + x5) = 5 has no integer solution, but the row tightens no
  // bound until two variables are fixed to the same value, so propagation
  // refutes it in a tree of k nodes. With corrupt_proof the first attempt's proof fails
  // its check, and the distrust retry must search on what is left of the
  // node limit: k + k/2 nodes in all cannot hold a second k-node search.
  Model m("odd_sum");
  LinExpr twice_sum;
  for (int i = 0; i < 5; ++i) {
    twice_sum += 2.0 * LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(twice_sum) == 5.0, "odd");
  SolverParams params;
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  const MilpSolution clean = Solver(m, params).solve();
  ASSERT_EQ(clean.status, SolveStatus::kInfeasible);
  ASSERT_EQ(clean.certified, CertifyStatus::kCertified);
  const std::int64_t k = clean.stats.nodes_explored;
  ASSERT_GE(k, 4);

  failpoint::arm("milp.certify.corrupt_proof");
  params.node_limit = k + k / 2;
  const MilpSolution s = Solver(m, params).solve();
  EXPECT_EQ(s.stats.certify_retries, 1);
  EXPECT_EQ(s.status, SolveStatus::kLimitReached);
  EXPECT_LE(s.stats.nodes_explored, params.node_limit);
}

TEST_F(CertifyFailpointTest, SolveSecondsCoverBothAttemptsOfADistrustRetry) {
  // 2(x1 + ... + x17) = 17: a refutation large enough to time. With
  // corrupt_proof the first attempt's certificate fails and the distrust
  // retry searches again; the reported seconds must cover both attempts and
  // their checks, i.e. the whole wall time of solve().
  Model m("odd_sum");
  LinExpr twice_sum;
  for (int i = 0; i < 17; ++i) {
    twice_sum += 2.0 * LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(twice_sum) == 17.0, "odd");
  SolverParams params;
  params.num_threads = 1;
  params.certify = CertifyMode::kFull;
  failpoint::arm("milp.certify.corrupt_proof");
  Solver solver(m, params);
  const Stopwatch wall;
  const MilpSolution s = solver.solve();
  const double wall_sec = wall.seconds();
  EXPECT_EQ(s.stats.certify_retries, 1);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_NEAR(s.seconds, wall_sec, 0.1 * wall_sec);
}

TEST_F(CertifyFailpointTest, CorruptProofDegradesSweepWithoutChangingLatency) {
  // End-to-end: with corrupt certificates the sweep's infeasible probes go
  // uncertified and the affected stages stop on a conservative window. The
  // reported latency must come only from certified feasible incumbents —
  // identical to the clean run's — with the damage surfaced as
  // degraded/kDegraded, not as a different answer. Both corruption sites
  // are armed; the partitioning probes are propagation-refuted, so
  // corrupt_proof is the one that fires here.
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("ar_dev", 200, 64, 50);
  core::PartitionerOptions options;
  options.budget.delta = 20.0;
  options.budget.solver.node_limit = 200000;
  options.budget.solver.num_threads = 1;
  options.budget.solver.certify = CertifyMode::kFull;

  const core::PartitionerReport clean =
      core::TemporalPartitioner(g, dev, options).run();
  ASSERT_TRUE(clean.best.has_value());
  EXPECT_FALSE(clean.degraded);

  failpoint::arm("milp.certify.corrupt_ray");
  failpoint::arm("milp.certify.corrupt_proof");
  const core::PartitionerReport corrupted =
      core::TemporalPartitioner(g, dev, options).run();
  failpoint::disarm_all();

  ASSERT_TRUE(corrupted.best.has_value());
  EXPECT_EQ(corrupted.achieved_latency, clean.achieved_latency);
  EXPECT_TRUE(corrupted.degraded);
  bool saw_degraded_stage = false;
  for (const core::StageAccount& stage : corrupted.stages) {
    saw_degraded_stage |= stage.status == core::StageStatus::kDegraded;
  }
  EXPECT_TRUE(saw_degraded_stage);
  bool saw_uncertified_probe = false;
  for (const core::IterationRecord& row : corrupted.trace) {
    saw_uncertified_probe |=
        row.outcome == core::IterationOutcome::kUncertified;
  }
  EXPECT_TRUE(saw_uncertified_probe);
  EXPECT_GT(corrupted.solver_stats.uncertified_verdicts, 0);
}

}  // namespace
}  // namespace sparcs::milp
