// Tests for the live telemetry pipeline (support/telemetry.hpp): correlation
// ids, the live solve table, sampler lifecycle and JSONL shape, search-tree
// recording and dump invariants, the JSON log sink, the metrics snapshot
// epoch contract, and the solver's convergence timeline.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "milp/solver.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/span.hpp"
#include "support/telemetry.hpp"

namespace sparcs {
namespace {

using sparcs::testing::is_valid_json;
using sparcs::testing::is_valid_json_lines;

/// Leaves every telemetry/metrics/trace subsystem in the process-default
/// disabled state, so suites sharing the binary never see stale state.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    if (telemetry::sampler_running()) telemetry::stop_sampler();
    telemetry::set_active(false);
    telemetry::set_tree_active(false);
    telemetry::tree_clear();
    telemetry::reset_pipeline();
    set_json_log_sink(nullptr);
    metrics::set_enabled(false);
    metrics::registry().reset();
    trace::set_enabled(false);
    trace::clear();
  }
};

// --- correlation ids -------------------------------------------------------

TEST_F(TelemetryTest, CorrelationIdsAreUniqueAndNonZero) {
  const std::uint64_t a = telemetry::next_correlation_id();
  const std::uint64_t b = telemetry::next_correlation_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TelemetryTest, CorrelationScopeNestsAndRestores) {
  EXPECT_EQ(telemetry::current_correlation_id(), 0u);
  {
    telemetry::CorrelationScope outer(7);
    EXPECT_EQ(telemetry::current_correlation_id(), 7u);
    {
      telemetry::CorrelationScope inner(9);
      EXPECT_EQ(telemetry::current_correlation_id(), 9u);
    }
    EXPECT_EQ(telemetry::current_correlation_id(), 7u);
  }
  EXPECT_EQ(telemetry::current_correlation_id(), 0u);
}

// --- live solve table ------------------------------------------------------

TEST_F(TelemetryTest, SolveScopeInertWhileInactive) {
  telemetry::SolveScope scope("test");
  EXPECT_EQ(scope.id(), 0u);
  EXPECT_EQ(scope.slot(), nullptr);
  EXPECT_EQ(telemetry::current_correlation_id(), 0u);
}

TEST_F(TelemetryTest, SolveScopeClaimsAndReleasesSlot) {
  telemetry::set_active(true);
  const std::int64_t completed_before = telemetry::solves_completed();
  {
    telemetry::SolveScope scope("test");
    ASSERT_NE(scope.slot(), nullptr);
    EXPECT_NE(scope.id(), 0u);
    EXPECT_EQ(telemetry::current_correlation_id(), scope.id());
    EXPECT_EQ(scope.slot()->correlation.load(), scope.id());
    scope.slot()->nodes.fetch_add(5);
  }
  EXPECT_EQ(telemetry::solves_completed(), completed_before + 1);
  EXPECT_EQ(telemetry::current_correlation_id(), 0u);
}

TEST_F(TelemetryTest, SolveScopeReusesCallerCorrelation) {
  telemetry::set_active(true);
  telemetry::CorrelationScope outer(telemetry::next_correlation_id());
  const std::uint64_t outer_id = telemetry::current_correlation_id();
  telemetry::SolveScope scope("test");
  // A solve launched under an existing correlation id (a Reduce_Latency
  // probe) keeps it, so the probe's span and the solve's records join.
  EXPECT_EQ(scope.id(), outer_id);
}

// --- sampler ---------------------------------------------------------------

TEST_F(TelemetryTest, SamplerRequiresSink) {
  telemetry::SamplerOptions options;
  options.sink = nullptr;
  EXPECT_FALSE(telemetry::start_sampler(options));
  EXPECT_FALSE(telemetry::sampler_running());
}

TEST_F(TelemetryTest, SamplerEmitsWellFormedJsonl) {
  std::ostringstream sink;
  telemetry::SamplerOptions options;
  options.sink = &sink;
  options.interval_sec = 10.0;  // interval samples effectively disabled
  ASSERT_TRUE(telemetry::start_sampler(options));
  EXPECT_TRUE(telemetry::sampler_running());
  EXPECT_TRUE(telemetry::active());
  // A second sampler cannot start while one runs.
  EXPECT_FALSE(telemetry::start_sampler(options));

  telemetry::set_stage("phase1", 3);
  telemetry::publish_best_latency(4000.0, 3);
  telemetry::publish_best_latency(3500.0, 4);
  telemetry::sample_now();
  telemetry::stop_sampler();
  EXPECT_FALSE(telemetry::sampler_running());
  EXPECT_FALSE(telemetry::active());

  const std::string jsonl = sink.str();
  EXPECT_TRUE(is_valid_json_lines(jsonl));
  EXPECT_NE(jsonl.find("\"type\": \"start\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\": \"sample\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\": \"convergence\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\": \"final\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"stage\": \"phase1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"trigger\": \"stage\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"incumbent_latency_ns\": 3500"), std::string::npos);
}

TEST_F(TelemetryTest, SamplerReportsLiveSolves) {
  std::ostringstream sink;
  telemetry::SamplerOptions options;
  options.sink = &sink;
  options.interval_sec = 10.0;
  options.include_metrics = false;
  ASSERT_TRUE(telemetry::start_sampler(options));
  {
    telemetry::SolveScope scope("test");
    ASSERT_NE(scope.slot(), nullptr);
    scope.slot()->nodes.store(42);
    scope.slot()->incumbent.store(123.0);
    scope.slot()->has_incumbent.store(true);
    telemetry::sample_now();
  }
  telemetry::stop_sampler();
  const std::string jsonl = sink.str();
  EXPECT_TRUE(is_valid_json_lines(jsonl));
  EXPECT_NE(jsonl.find("\"nodes\": 42"), std::string::npos);
  EXPECT_NE(jsonl.find("\"incumbent\": 123"), std::string::npos);
}

TEST_F(TelemetryTest, ProgressLineIsRewrittenInPlace) {
  std::ostringstream sink, progress;
  telemetry::SamplerOptions options;
  options.sink = &sink;
  options.progress = &progress;
  options.interval_sec = 10.0;
  ASSERT_TRUE(telemetry::start_sampler(options));
  telemetry::set_stage("phase2", 6);
  telemetry::stop_sampler();
  const std::string text = progress.str();
  EXPECT_NE(text.find('\r'), std::string::npos);
  EXPECT_NE(text.find("phase2"), std::string::npos);
  EXPECT_NE(text.find("N=6"), std::string::npos);
}

// --- search tree -----------------------------------------------------------

TEST_F(TelemetryTest, TreeDumpRelabelsChildlessBranchedNodes) {
  telemetry::set_tree_active(true);
  const std::int64_t root = telemetry::tree_next_id();
  telemetry::tree_record({root, -1, 0, -1, 0.0, 0.0,
                          telemetry::NodeKind::kBranched});
  const std::int64_t child = telemetry::tree_next_id();
  telemetry::tree_record({child, root, 1, 4, 1.0, 1.0,
                          telemetry::NodeKind::kBranched});
  const std::int64_t leaf = telemetry::tree_next_id();
  telemetry::tree_record({leaf, child, 2, 5, 0.0, 0.0,
                          telemetry::NodeKind::kIntegral});
  const std::int64_t abandoned = telemetry::tree_next_id();
  telemetry::tree_record({abandoned, root, 1, 4, 0.0, 0.0,
                          telemetry::NodeKind::kBranched});
  EXPECT_EQ(telemetry::tree_size(), 4u);

  std::ostringstream json;
  telemetry::write_tree_json(json);
  ASSERT_TRUE(is_valid_json(json.str()));
  // `abandoned` branched but no child record exists: relabelled "budget" so
  // every non-root node in the dump has a prune reason or children.
  const std::string text = json.str();
  EXPECT_NE(text.find("\"recorded\": 4"), std::string::npos);
  EXPECT_NE(text.find("\"budget\""), std::string::npos);
  EXPECT_NE(text.find("\"integral\""), std::string::npos);

  std::ostringstream dot;
  telemetry::write_tree_dot(dot);
  EXPECT_NE(dot.str().find("digraph"), std::string::npos);
  EXPECT_NE(dot.str().find("->"), std::string::npos);
}

TEST_F(TelemetryTest, TreeRingBufferEvictsOldestFirst) {
  telemetry::set_tree_active(true);
  telemetry::set_tree_capacity(4);
  for (int i = 0; i < 10; ++i) {
    const std::int64_t id = telemetry::tree_next_id();
    telemetry::tree_record({id, id - 1, i, 0, 0.0, 0.0,
                            telemetry::NodeKind::kIntegral});
  }
  EXPECT_EQ(telemetry::tree_size(), 4u);
  std::ostringstream json;
  telemetry::write_tree_json(json);
  EXPECT_TRUE(is_valid_json(json.str()));
  EXPECT_NE(json.str().find("\"evicted\": 6"), std::string::npos);
  telemetry::set_tree_capacity(1 << 16);  // restore the default
}

TEST_F(TelemetryTest, TreeRecordingDisabledIsNoop) {
  telemetry::tree_record({telemetry::tree_next_id(), -1, 0, -1, 0.0, 0.0,
                          telemetry::NodeKind::kBranched});
  EXPECT_EQ(telemetry::tree_size(), 0u);
  std::ostringstream json;
  telemetry::write_tree_json(json);
  EXPECT_TRUE(is_valid_json(json.str()));
}

// --- JSON log sink ---------------------------------------------------------

TEST_F(TelemetryTest, JsonLogSinkEscapesAndCarriesCorrelation) {
  std::ostringstream sink;
  set_json_log_sink(&sink);
  const LogLevel before = log_level();
  set_log_level(LogLevel::kWarning);
  telemetry::set_active(true);
  {
    telemetry::CorrelationScope scope(1234);
    SPARCS_WLOG << "quote \" backslash \\ newline \n tab \t done";
  }
  SPARCS_WLOG << "no correlation";
  set_json_log_sink(nullptr);
  set_log_level(before);

  const std::string jsonl = sink.str();
  ASSERT_TRUE(is_valid_json_lines(jsonl));
  EXPECT_NE(jsonl.find("\"corr\": 1234"), std::string::npos);
  EXPECT_NE(jsonl.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\\"") , std::string::npos);
  EXPECT_NE(jsonl.find("\\n"), std::string::npos);
  // The second statement ran without a bound id: no "corr" on its line.
  const std::size_t second = jsonl.find("no correlation");
  ASSERT_NE(second, std::string::npos);
  const std::size_t line_start = jsonl.rfind('\n', second);
  EXPECT_EQ(jsonl.find("\"corr\"", line_start), std::string::npos);
}

// --- metrics snapshot epoch (snapshot-consistency contract) ----------------

TEST_F(TelemetryTest, SnapshotEpochAdvancesOnRegistryReset) {
  metrics::Registry& reg = metrics::registry();
  const std::uint64_t before = reg.snapshot().epoch;
  reg.reset();
  EXPECT_EQ(reg.snapshot().epoch, before + 1);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("\"epoch\""), std::string::npos);
}

TEST_F(TelemetryTest, SnapshotsStayConsistentUnderConcurrentAddAndReset) {
  metrics::set_enabled(true);
  metrics::Registry& reg = metrics::registry();
  metrics::Counter& counter = reg.counter("test.stress");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) counter.add(1);
    });
  }
  // Interleave snapshots and registry-wide resets against the writers. The
  // contract under test: every snapshot is internally consistent, counter
  // values never go negative, and deltas are only trusted within an epoch.
  std::int64_t last_value = 0;
  std::uint64_t last_epoch = reg.snapshot().epoch;
  for (int i = 0; i < 200; ++i) {
    if (i % 50 == 49) reg.reset();
    const metrics::MetricsSnapshot snap = reg.snapshot();
    for (const auto& entry : snap.counters) {
      EXPECT_GE(entry.value, 0);
      if (entry.name == "test.stress") {
        if (snap.epoch == last_epoch) {
          EXPECT_GE(entry.value, last_value);
        }
        last_value = entry.value;
        last_epoch = snap.epoch;
      }
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

// --- solver integration ----------------------------------------------------

TEST_F(TelemetryTest, SolveRecordsConvergenceTimeline) {
  milp::Model m("knapsack");
  const milp::VarId a = m.add_binary("a");
  const milp::VarId b = m.add_binary("b");
  const milp::VarId c = m.add_binary("c");
  m.add_constraint(3.0 * milp::LinExpr(a) + 4.0 * milp::LinExpr(b) +
                       2.0 * milp::LinExpr(c) <= 6.0, "cap");
  m.set_objective(10.0 * milp::LinExpr(a) + 13.0 * milp::LinExpr(b) +
                      7.0 * milp::LinExpr(c), /*minimize=*/false);
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 1;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  ASSERT_EQ(s.status, milp::SolveStatus::kOptimal);
  ASSERT_FALSE(s.stats.convergence.empty());
  // Maximization: incumbent objectives are non-decreasing over time, nodes
  // and timestamps non-decreasing, and the last incumbent is the optimum.
  double last_obj = -1e300;
  double last_t = 0.0;
  for (const milp::ConvergenceEvent& e : s.stats.convergence) {
    EXPECT_GE(e.t_sec, last_t);
    last_t = e.t_sec;
    if (e.kind == milp::ConvergenceEvent::Kind::kIncumbent) {
      EXPECT_GE(e.objective, last_obj);
      last_obj = e.objective;
    }
  }
  EXPECT_NEAR(last_obj, 20.0, 1e-6);
  const std::string json = s.stats.to_json();
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("\"convergence\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"incumbent\""), std::string::npos);
}

TEST_F(TelemetryTest, ParallelSolveMergesOrderedConvergence) {
  milp::Model m("pick");
  std::vector<milp::VarId> xs;
  milp::LinExpr sum;
  milp::LinExpr obj;
  for (int i = 0; i < 12; ++i) {
    xs.push_back(m.add_binary("x" + std::to_string(i)));
    sum += milp::LinExpr(xs.back());
    obj += static_cast<double>(i + 1) * milp::LinExpr(xs.back());
  }
  m.add_constraint(sum == 6.0, "pick6");
  m.set_objective(obj, /*minimize=*/true);
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 4;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  ASSERT_EQ(s.status, milp::SolveStatus::kOptimal);
  ASSERT_FALSE(s.stats.convergence.empty());
  double last_t = 0.0;
  for (const milp::ConvergenceEvent& e : s.stats.convergence) {
    EXPECT_GE(e.t_sec, last_t);  // merged timeline stays time-ordered
    last_t = e.t_sec;
  }
}

TEST_F(TelemetryTest, SolveUnderTelemetryPublishesLiveState) {
  telemetry::set_active(true);
  std::ostringstream sink;
  telemetry::SamplerOptions options;
  options.sink = &sink;
  options.interval_sec = 10.0;
  options.include_metrics = false;
  ASSERT_TRUE(telemetry::start_sampler(options));

  telemetry::set_tree_active(true);
  milp::Model m("tree");
  std::vector<milp::VarId> xs;
  milp::LinExpr sum;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(m.add_binary("x" + std::to_string(i)));
    sum += milp::LinExpr(xs.back());
  }
  m.add_constraint(sum == 4.0, "pick4");
  milp::SolverParams params;
  params.num_threads = 1;
  const milp::MilpSolution s =
      milp::Solver(m, milp::first_feasible_params(params)).solve();
  EXPECT_EQ(s.status, milp::SolveStatus::kFeasible);
  telemetry::stop_sampler();

  EXPECT_GT(telemetry::tree_size(), 0u);
  std::ostringstream json;
  telemetry::write_tree_json(json);
  EXPECT_TRUE(is_valid_json(json.str()));
  EXPECT_TRUE(is_valid_json_lines(sink.str()));
  EXPECT_GE(telemetry::solves_completed(), 1);
}

// --- live solve table exhaustion -------------------------------------------

TEST_F(TelemetryTest, SlotExhaustionDegradesGracefullyAndIsCounted) {
  telemetry::set_active(true);
  metrics::set_enabled(true);

  constexpr int kOverflow = 8;
  std::vector<std::unique_ptr<telemetry::SolveScope>> scopes;
  for (int i = 0; i < telemetry::kLiveSolveSlots + kOverflow; ++i) {
    scopes.push_back(std::make_unique<telemetry::SolveScope>("exhaustion"));
  }
  EXPECT_EQ(telemetry::live_solve_slots_in_use(), telemetry::kLiveSolveSlots);
  EXPECT_EQ(telemetry::live_solve_slots_exhausted(), kOverflow);
  EXPECT_EQ(metrics::registry()
                .counter("telemetry.live_solve.slot_exhausted")
                .value(),
            kOverflow);
  // Overflow scopes degrade, not break: they carry a working correlation id
  // (logs/spans stay joinable) and merely publish to no slot.
  EXPECT_EQ(scopes.back()->slot(), nullptr);
  EXPECT_NE(scopes.back()->id(), 0u);
  EXPECT_NE(scopes.front()->slot(), nullptr);

  // LIFO teardown keeps each scope's thread-local correlation restore exact.
  while (!scopes.empty()) scopes.pop_back();
  EXPECT_EQ(telemetry::live_solve_slots_in_use(), 0);

  telemetry::reset_pipeline();
  EXPECT_EQ(telemetry::live_solve_slots_exhausted(), 0);
}

TEST_F(TelemetryTest, SlotExhaustionUnderConcurrentScopes) {
  telemetry::set_active(true);

  constexpr int kThreads = telemetry::kLiveSolveSlots + 16;
  std::atomic<int> ready{0};
  std::atomic<bool> release{false};
  std::atomic<int> without_slot{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      const telemetry::SolveScope scope("concurrent-exhaustion");
      ready.fetch_add(1);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (scope.slot() == nullptr) without_slot.fetch_add(1);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  // Every thread holds its scope at this point: the table must be full and
  // the excess accounted, with no thread crashed or blocked.
  EXPECT_EQ(telemetry::live_solve_slots_in_use(), telemetry::kLiveSolveSlots);
  release.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(without_slot.load(), kThreads - telemetry::kLiveSolveSlots);
  EXPECT_EQ(telemetry::live_solve_slots_exhausted(),
            kThreads - telemetry::kLiveSolveSlots);
  EXPECT_EQ(telemetry::live_solve_slots_in_use(), 0);
}

// --- process memory --------------------------------------------------------

TEST_F(TelemetryTest, MemoryStatusReadsRss) {
  const telemetry::MemoryStatus mem = telemetry::read_memory_status();
#ifdef __linux__
  EXPECT_GT(mem.rss_kb, 0);
  EXPECT_GE(mem.rss_peak_kb, mem.rss_kb);
#else
  EXPECT_GE(mem.rss_kb, 0);
#endif
}

}  // namespace
}  // namespace sparcs
