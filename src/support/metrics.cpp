#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/report_writer.hpp"

namespace sparcs::metrics {
namespace {

template <typename T, typename Entries>
T& find_or_add(Entries& entries, const std::string& name) {
  for (const auto& entry : entries) {
    if (entry.name == name) return *entry.metric;
  }
  entries.push_back({name, std::make_unique<T>()});
  return *entries.back().metric;
}

}  // namespace

void Timer::record(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // clamp negatives and NaN
  const double us = seconds * 1e6;
  int bucket = 0;
  if (us >= 1.0) {
    bucket = static_cast<int>(std::floor(std::log2(us)));
    bucket = std::clamp(bucket, 0, kNumBuckets - 1);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0 || seconds < min_) min_ = seconds;
  if (count_ == 0 || seconds > max_) max_ = seconds;
  ++count_;
  sum_ += seconds;
  ++buckets_[bucket];
}

Timer::Stats Timer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.count = count_;
  s.sum_sec = sum_;
  s.min_sec = min_;
  s.max_sec = max_;
  s.buckets.assign(buckets_, buckets_ + kNumBuckets);
  return s;
}

std::string MetricsSnapshot::to_json() const {
  report::ReportWriter w;
  w.begin_object();
  w.begin_object("counters");
  for (const auto& counter : counters) {
    w.field(counter.name, counter.value);
  }
  w.end_object();
  w.begin_object("gauges");
  for (const auto& gauge : gauges) {
    // Gauges can legitimately hold inf; the shared writer's sentinel keeps
    // the document parseable.
    w.field(gauge.name, std::isfinite(gauge.value) ? gauge.value : 0.0);
  }
  w.end_object();
  w.begin_object("timers");
  for (const auto& timer : timers) {
    const Timer::Stats& s = timer.stats;
    const double mean =
        s.count > 0 ? s.sum_sec / static_cast<double>(s.count) : 0.0;
    w.begin_object(timer.name);
    w.field("count", s.count);
    w.field("sum_sec", s.sum_sec);
    w.field("min_sec", s.min_sec);
    w.field("max_sec", s.max_sec);
    w.field("mean_sec", mean);
    w.begin_array("buckets_log2_us");
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      if (s.buckets[b] == 0) continue;
      w.begin_array();
      w.element(static_cast<std::int64_t>(b));
      w.element(s.buckets[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_add<Counter>(counters_, name);
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_add<Gauge>(gauges_, name);
}

Timer& Registry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_add<Timer>(timers_, name);
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& entry : counters_) {
    snap.counters.push_back({entry.name, entry.metric->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    snap.gauges.push_back({entry.name, entry.metric->value()});
  }
  snap.timers.reserve(timers_.size());
  for (const auto& entry : timers_) {
    snap.timers.push_back({entry.name, entry.metric->stats()});
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.timers.begin(), snap.timers.end(), by_name);
  return snap;
}

}  // namespace sparcs::metrics
