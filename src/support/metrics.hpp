// Metrics registry: counters, gauges and timers/histograms.
//
// Each run that collects metrics owns one Registry through its Observer
// (support/observer.hpp); call sites ask the bound observer for it and skip
// the export when there is none. Handles returned by a registry are stable
// for the registry's lifetime. Snapshots render to JSON for the CLI's
// --metrics-json export and the telemetry samples.
//
// Counter::add and Gauge::set are relaxed atomics, safe from any thread of
// the run. Timer::record and Timer::stats share the per-timer mutex, so
// Stats is always internally consistent (count matches the bucket sum).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sparcs::metrics {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-value metric (e.g. "best latency so far").
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Duration histogram: count/sum/min/max plus log2-of-microseconds buckets.
class Timer {
 public:
  /// Number of log2(us) buckets; bucket i counts durations in
  /// [2^i, 2^(i+1)) microseconds (bucket 0 also absorbs sub-microsecond
  /// durations, the last bucket absorbs everything longer).
  static constexpr int kNumBuckets = 40;

  void record(double seconds);

  struct Stats {
    std::int64_t count = 0;
    double sum_sec = 0.0;
    double min_sec = 0.0;  ///< 0 while count == 0
    double max_sec = 0.0;
    std::vector<std::int64_t> buckets;  ///< kNumBuckets log2(us) counts
  };
  [[nodiscard]] Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::int64_t buckets_[kNumBuckets] = {};
};

/// Point-in-time copy of every registered metric, with JSON rendering.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::int64_t value;
  };
  struct GaugeEntry {
    std::string name;
    double value;
  };
  struct TimerEntry {
    std::string name;
    Timer::Stats stats;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<TimerEntry> timers;

  /// Renders {"counters":{...},"gauges":{...},"timers":{...}}. Timers render
  /// count/sum/min/max/mean in seconds plus the non-empty log2(us) buckets.
  [[nodiscard]] std::string to_json() const;
};

/// Name -> metric registry. Thread-safe; returned references remain valid
/// for the registry's lifetime.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Timer& timer(const std::string& name);

  /// Copies every metric, sorted by name within each kind.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> metric;
  };
  mutable std::mutex mu_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Timer>> timers_;
};

}  // namespace sparcs::metrics
