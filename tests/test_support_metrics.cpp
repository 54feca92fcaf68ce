// Tests for the metrics registry (support/metrics.hpp) and the trace spans
// (support/span.hpp): registry semantics, snapshot JSON well-formedness,
// timer statistics, concurrent counter increments, and the Chrome
// trace-event shape of the span export.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.hpp"
#include "support/observer.hpp"
#include "support/span.hpp"
#include "json_checker.hpp"

namespace sparcs {
namespace {

// The JSON well-formedness checker lives in json_checker.hpp (shared with
// the telemetry and failpoint suites).
using sparcs::testing::is_valid_json;

/// A fresh registry per test.
class MetricsTest : public ::testing::Test {
 protected:
  metrics::Registry registry_;
};

/// Binds an observer that records spans for the test's duration.
class SpanTest : public ::testing::Test {
 protected:
  [[nodiscard]] std::string chrome_json() const {
    std::ostringstream os;
    observer_.spans()->write_chrome_json(os);
    return os.str();
  }

  Observer observer_{[] {
    Observer::Options options;
    options.spans = true;
    return options;
  }()};
  ObserverScope bind_{&observer_};
};

TEST(JsonCheckerSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(is_valid_json("{}"));
  EXPECT_TRUE(is_valid_json(R"({"a":[1,2.5,-3e4],"b":{"c":"x\n"},"d":null})"));
  EXPECT_TRUE(is_valid_json("[]"));
  EXPECT_FALSE(is_valid_json(""));
  EXPECT_FALSE(is_valid_json("{"));
  EXPECT_FALSE(is_valid_json(R"({"a":})"));
  EXPECT_FALSE(is_valid_json("[1,2,]"));
  EXPECT_FALSE(is_valid_json("{} trailing"));
}

TEST_F(MetricsTest, RegistryReturnsStableHandles) {
  metrics::Counter& a = registry_.counter("test.stable");
  metrics::Counter& b = registry_.counter("test.stable");
  EXPECT_EQ(&a, &b);
  metrics::Counter& c = registry_.counter("test.other");
  EXPECT_NE(&a, &c);
  metrics::Timer& t1 = registry_.timer("test.stable");
  metrics::Timer& t2 = registry_.timer("test.stable");
  EXPECT_EQ(&t1, &t2);  // same name, different kind: fine, separate stores
}

TEST_F(MetricsTest, CollectionRecords) {
  metrics::Counter& counter = registry_.counter("test.on");
  metrics::Gauge& gauge = registry_.gauge("test.on");
  counter.add();
  counter.add(41);
  gauge.set(-2.5);
  EXPECT_EQ(counter.value(), 42);
  EXPECT_EQ(gauge.value(), -2.5);
}

TEST_F(MetricsTest, TimerStatsAreConsistent) {
  metrics::Timer& timer = registry_.timer("test.timer");
  const double durations[] = {1e-6, 5e-4, 0.002, 0.002};
  for (const double d : durations) timer.record(d);
  const metrics::Timer::Stats stats = timer.stats();
  EXPECT_EQ(stats.count, 4);
  EXPECT_NEAR(stats.sum_sec, 1e-6 + 5e-4 + 0.004, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min_sec, 1e-6);
  EXPECT_DOUBLE_EQ(stats.max_sec, 0.002);
  EXPECT_LE(stats.min_sec, stats.max_sec);
  ASSERT_EQ(static_cast<int>(stats.buckets.size()),
            metrics::Timer::kNumBuckets);
  const std::int64_t bucket_total = std::accumulate(
      stats.buckets.begin(), stats.buckets.end(), std::int64_t{0});
  EXPECT_EQ(bucket_total, stats.count);
}

TEST_F(MetricsTest, ConcurrentCounterIncrementsAreExact) {
  metrics::Counter& counter = registry_.counter("test.threads");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, SnapshotJsonIsWellFormed) {
  registry_.counter("snap.counter").add(3);
  registry_.gauge("snap.gauge").set(1.25);
  registry_.timer("snap.timer").record(0.001);
  registry_.counter("snap.\"quoted\"\n").add(1);  // escaping
  const std::string json = registry_.snapshot().to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"snap.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"snap.timer\""), std::string::npos);
}

TEST_F(MetricsTest, SnapshotIsSortedByName) {
  registry_.counter("z.last").add(1);
  registry_.counter("a.first").add(1);
  const metrics::MetricsSnapshot snapshot = registry_.snapshot();
  ASSERT_GE(snapshot.counters.size(), 2u);
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LE(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
}

TEST(SpanUnboundTest, SpansWithoutAnObserverRecordNothing) {
  Observer::Options options;
  options.spans = true;
  Observer observer(options);
  {
    trace::Span span("never");
    span.arg("k", std::int64_t{1});
  }
  EXPECT_EQ(observer.spans()->size(), 0u);
}

TEST_F(SpanTest, SpanJsonHasChromeTraceShape) {
  {
    trace::Span outer("outer");
    outer.arg("n", std::int64_t{3});
    outer.arg("ratio", 0.5);
    outer.arg("label", std::string("a\"b"));
    {
      trace::Span inner("inner");
    }
  }
  EXPECT_EQ(observer_.spans()->size(), 2u);
  const std::string json = chrome_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_EQ(json.front(), '[');
  for (const char* key :
       {"\"name\"", "\"ph\":\"X\"", "\"ts\"", "\"dur\"", "\"pid\"",
        "\"tid\"", "\"cat\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":3"), std::string::npos);
}

TEST_F(SpanTest, SpanRecordsIntoTheObserverItStartedUnder) {
  Observer::Options options;
  options.spans = true;
  Observer other(options);
  {
    trace::Span span("started here");
    const ObserverScope rebind(&other);
    trace::Span nested("nested elsewhere");
  }
  EXPECT_EQ(observer_.spans()->size(), 1u);
  EXPECT_EQ(other.spans()->size(), 1u);
  EXPECT_NE(chrome_json().find("started here"), std::string::npos);
}

TEST(SpanUnboundTest, EmptyTraceExportIsLiteralEmptyArray) {
  const trace::Recorder recorder;
  std::ostringstream os;
  recorder.write_chrome_json(os);
  EXPECT_EQ(os.str(), "[]\n");
}

TEST_F(SpanTest, SpanArgEscapesHostileStrings) {
  {
    trace::Span span("escape");
    span.arg("quote", std::string("she said \"hi\""));
    span.arg("backslash", std::string("C:\\path\\file"));
    span.arg("newline", std::string("line1\nline2"));
    span.arg("control", std::string("bell\x07tab\tend"));
  }
  const std::string json = chrome_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(json.find("C:\\\\path\\\\file"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_NE(json.find("tab\\tend"), std::string::npos);
}

}  // namespace
}  // namespace sparcs
