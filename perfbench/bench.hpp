// Shared pieces of the benchmark driver: metric and outcome records, order
// statistics, the in-process workload description, and the entry points of
// the traced replay (replay.cpp) and the service load generator
// (service_load.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/partitioner.hpp"
#include "graph/task_graph.hpp"
#include "milp/model.hpp"
#include "milp/types.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace sparcs;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one driver invocation reports: the contract's final JSON line.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one failed operation: a failed oracle, a rejected or failed
  /// job, or a determinism drift. The reason goes to stderr.
  void fail(const std::string& why);
};

/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Latency equality shared by every oracle: latencies are integral
/// nanoseconds plus reconfiguration terms, so a relative 1e-9 only absorbs
/// floating-point summation order.
bool same_latency(double a, double b);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Measures how much a shared host slows the measured work down
/// (calibration.cpp). A slice of the benchmark's own reference work is
/// timed at construction and after every half second of measured work; a
/// measurement's slowdown is the mean of the two slices bracketing it,
/// relative to the same work on a quiet host. Dividing a time by it gives
/// the time at quiet-host speed.
class HostCalibration {
 public:
  HostCalibration();
  /// Records one measurement of `seconds`, taking a slice when due.
  void measured(double seconds);
  /// Closes the last bracket; returns each measurement's slowdown in order.
  std::vector<double> slowdowns();

 private:
  std::vector<double> slices_;
  std::vector<std::size_t> rep_slice_;  ///< slice before each measurement
  double since_slice_s_ = 0.0;
};

/// One in-process workload: the generated inputs plus the partitioner
/// options every repetition runs with.
struct SweepSpec {
  std::string name;
  graph::TaskGraph graph;
  arch::Device device;
  core::PartitionerOptions options;
};

/// Per-layer totals of replaying one sweep's probes through the public layer
/// functions, each call timed from outside.
struct ReplayTotals {
  int probes = 0;
  int capped = 0;
  double build_s = 0.0;      ///< IlpFormulation constructor + apply_hints
  double compile_s = 0.0;    ///< standalone CompiledModel constructor
  double root_prop_s = 0.0;  ///< standalone root Propagator::propagate
  double solve_s = 0.0;      ///< branch & bound search of every probe
  double certify_s = 0.0;    ///< certify_feasible / certify_infeasible
  double wall_s = 0.0;       ///< whole replay, untimed glue included
  double rows = 0.0;         ///< model rows summed over probes
  double vars = 0.0;         ///< model columns summed over probes
  std::int64_t nodes = 0;
  std::int64_t reported_nodes = 0;  ///< the sweep report's node counts
  std::int64_t mismatched_probes = 0;
  std::int64_t visits = 0;  ///< constraint visits by propagation
  std::int64_t conflicts = 0;
  std::int64_t pruned = 0;  ///< nodes pruned by a conflict or the LP bound
  std::int64_t simplex_calls = 0;
  std::int64_t simplex_iterations = 0;
  std::int64_t certify_checked = 0;
  std::int64_t certify_failed = 0;
};

/// Replays every probe of `report` (a sweep of `spec`) as its
/// (N, d_max, d_min) window with the sweep's node cap, thread count and
/// certification mode, rebuilding each probe's warm-start hint the way
/// Reduce_Latency picks it. Probes whose replayed node count differs from
/// the report's are counted and listed on stderr.
ReplayTotals replay_sweep(const SweepSpec& spec,
                          const core::PartitionerReport& report);

/// Seconds taken by relaxation_of + solve_lp on the model's root LP; the
/// simplex iteration count is added to *iterations.
double time_root_lp(const milp::Model& model, std::int64_t* iterations);

/// Table-1 AR filter device and tolerance, shared by ar_t1 and ar_service.
inline constexpr double kArRmax = 200.0;
inline constexpr double kArMmax = 64.0;
inline constexpr double kArDelta = 10.0;

/// What the ar_service closed loop measured.
struct ServiceFigures {
  double setup_s = 0.0;  ///< median daemon start-up + client connection
  double elapsed_s = 0.0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::vector<double> rtt_ms;      ///< submit -> result round trip per job
  std::vector<double> run_ms;      ///< daemon-side sweep time per job
  std::vector<double> queue_ms;    ///< daemon-side queue wait per job
  std::vector<double> overhead_ms;  ///< rtt - queue wait - run per job
  std::int64_t probes = 0;
  std::int64_t decided_probes = 0;
  double latency_ratio_sum = 0.0;  ///< sum of latency / recorded latency
  double list_rtt_ms = 0.0;        ///< median `list` round trip (traced)
  std::vector<double> job_slowdown;  ///< host slowdown per job
  double slowdown = 1.0;             ///< median host slowdown of the loop
};

struct ServiceLoadOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int max_jobs = 0;  ///< stop after this many jobs (0: run for `seconds`)
  bool traced = false;
};

/// Runs the ar_service closed loop: daemon set-up, two clients, every job
/// checked against its recorded Table-1 latency and its class's counts.
ServiceFigures run_service_load(const ServiceLoadOptions& options,
                                Outcome& out);

/// Job classes of ar_service: every (Ct, certify) pair a job can draw.
struct ArJobClass {
  double ct_ns;
  milp::CertifyMode certify;
  double recorded_ns;  ///< Table-1 latency recorded for this Ct
};
std::vector<ArJobClass> ar_job_classes();

/// The in-process equivalent of one ar_service job, for the traced replay.
SweepSpec ar_service_spec(const ArJobClass& job_class);

}  // namespace perfbench
