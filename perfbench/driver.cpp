// Benchmark driver: runs one workload for a fixed time, checks every answer
// against an oracle that does not come from the code under test, and prints
// the result as one JSON line (the last line of stdout).
//
//   perfbench_driver --workload dct_t3|synth_wf|ar_t1|ar_service
//                    --seed N --seconds S --trace 0|1 [--reps N]
//
// --trace 0 measures the end-to-end metrics; --trace 1 pairs untraced
// sweeps with replays of their probes through the layer functions for the
// per-layer metrics. --reps sets the repetitions (service: caps the jobs)
// for quick self-tests. See README.md for the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/formulation.hpp"
#include "sim/executor.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

bool same_latency(double a, double b) {
  return std::abs(a - b) <=
         1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so the
  // latter would report the launching process's footprint when it is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw Error("VmHWM missing from /proc/self/status");
}

namespace {

// Per-probe node caps. They replace the wall-clock cap of the paper-table
// benches: a capped probe ends after the same search on every run, so wall
// time measures how fast that search runs rather than the cap itself.
constexpr std::int64_t kDctNodeCap = 5000;
constexpr std::int64_t kSynthNodeCap = 2000;
constexpr std::int64_t kArNodeCap = 5000;

// Recorded results (EXPERIMENTS.md): Table 3 ends at Da = 3030 ns at N = 6;
// the Table-1 optimum of the AR filter at Ct = 50 ns is 1120 ns.
constexpr double kDctT3LatencyNs = 3030.0;
constexpr int kDctT3BestN = 6;
constexpr double kArT1Ct = 50.0;
constexpr double kArT1OptimalNs = 1120.0;

// synth_wf's generator seed. Sweep cost varies 14x across generator seeds
// (3k to 27k model rows), far beyond any usable bound, so the graph is pinned.
constexpr std::uint64_t kSynthGraphSeed = 1274;

// Input generation takes microseconds: it is repeated before every
// repetition and reported as the median over all of them.
constexpr int kSetupsPerRep = 50;
// Sweep + replay pairs per ar_service job class in the traced run.
constexpr std::size_t kServiceClassReplays = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int reps = 0;
};

/// Repetitions of an in-process run: --seconds divided by the repetition's
/// nominal time on a quiet 4-vCPU host (a traced repetition also replays,
/// so it gets a third as many). The count depends only on --seconds, never
/// on how fast the code under test runs, so every commit's estimate comes
/// from the same number of repetitions.
int repetitions(const Args& args) {
  if (args.reps > 0) return args.reps;
  double nominal_s = 0.0;
  if (args.workload == "dct_t3") nominal_s = 3.3;
  if (args.workload == "synth_wf") nominal_s = 2.9;
  if (args.workload == "ar_t1") nominal_s = 0.23;
  if (args.trace) nominal_s *= 3.0;
  return std::max(1, static_cast<int>(std::lround(args.seconds / nominal_s)));
}

core::PartitionerOptions capped_options(double delta, std::int64_t node_cap) {
  core::PartitionerOptions options;
  options.alpha = 0;
  options.gamma = 1;
  options.budget.delta = delta;
  options.budget.solver.num_threads = 1;
  options.budget.solver.node_limit = node_cap;
  return options;
}

SweepSpec make_spec(const std::string& workload) {
  SweepSpec spec;
  spec.name = workload;
  if (workload == "dct_t3") {
    spec.graph = workloads::dct_task_graph();
    spec.device = arch::custom("dct_t3", 576.0, 4096.0, 100.0);
    spec.options = capped_options(200.0, kDctNodeCap);
  } else if (workload == "synth_wf") {
    workloads::RandomGraphOptions graph;
    graph.num_tasks = 40;
    graph.num_layers = 10;
    graph.num_design_points = 3;
    graph.seed = kSynthGraphSeed;
    spec.graph = workloads::random_task_graph(graph);
    spec.device = arch::custom("synth_wf", 400.0, 4096.0, 1e7);
    spec.options = capped_options(1000.0, kSynthNodeCap);
  } else if (workload == "ar_t1") {
    spec.graph = workloads::ar_filter_task_graph();
    spec.device = arch::custom("ar_t1", kArRmax, kArMmax, kArT1Ct);
    spec.options = capped_options(kArDelta, kArNodeCap);
  } else {
    throw InvalidArgumentError("unknown workload '" + workload + "'");
  }
  return spec;
}

/// Lower bound on any design's total latency, computed here from the graph
/// alone: the critical path at every task's fastest design point, plus one
/// reconfiguration per partition that the minimum-area points already need.
double latency_lower_bound(const graph::TaskGraph& g, const arch::Device& dev) {
  const int n = g.num_tasks();
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const graph::DataEdge& e : g.edges()) ++indegree[static_cast<std::size_t>(e.to)];
  std::vector<double> finish(static_cast<std::size_t>(n), 0.0);
  std::queue<graph::TaskId> ready;
  for (graph::TaskId t = 0; t < n; ++t) {
    if (indegree[static_cast<std::size_t>(t)] == 0) ready.push(t);
  }
  double critical_path = 0.0;
  double min_area = 0.0;
  while (!ready.empty()) {
    const graph::TaskId t = ready.front();
    ready.pop();
    double fastest = INFINITY;
    double smallest = INFINITY;
    for (const graph::DesignPoint& p : g.task(t).design_points) {
      fastest = std::min(fastest, p.latency_ns);
      smallest = std::min(smallest, p.area);
    }
    min_area += smallest;
    finish[static_cast<std::size_t>(t)] += fastest;
    critical_path = std::max(critical_path, finish[static_cast<std::size_t>(t)]);
    for (const graph::TaskId s : g.successors(t)) {
      double& start = finish[static_cast<std::size_t>(s)];
      start = std::max(start, finish[static_cast<std::size_t>(t)]);
      if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  const double partitions = std::ceil(min_area / dev.resource_capacity);
  return critical_path + partitions * dev.reconfig_time_ns;
}

/// Counts that must repeat exactly from run to run at threads = 1.
std::vector<std::int64_t> signature_of(const core::PartitionerReport& r) {
  std::vector<std::int64_t> sig{r.ilp_solves};
  for (const core::IterationRecord& row : r.trace) {
    sig.insert(sig.end(), {row.num_partitions, row.iteration,
                           static_cast<std::int64_t>(row.outcome), row.nodes,
                           row.stats.conflicts,
                           row.stats.propagated_constraints});
  }
  return sig;
}

bool decided(core::IterationOutcome outcome) {
  return outcome == core::IterationOutcome::kFeasible ||
         outcome == core::IterationOutcome::kInfeasible;
}

/// One repetition: a sweep, plus the Table-1 optimal reference on ar_t1.
struct Rep {
  core::PartitionerReport report;
  double sweep_s = 0.0;
  std::optional<core::OptimalResult> optimal;
  double optimal_s = 0.0;
};

milp::SolverParams optimal_params() {
  milp::SolverParams params;
  params.num_threads = 1;
  return params;
}

/// Runs the Table-1 optimal reference into `rep`.
void run_optimal(const SweepSpec& spec, Rep& rep) {
  Stopwatch optimal;
  rep.optimal = core::solve_optimal_over_range(
      spec.graph, spec.device, spec.options.alpha, spec.options.gamma,
      optimal_params(), spec.options.budget.formulation);
  rep.optimal_s = optimal.seconds();
}

Rep run_rep(const SweepSpec& spec, bool with_optimal) {
  Rep rep;
  Stopwatch sweep;
  rep.report =
      core::TemporalPartitioner(spec.graph, spec.device, spec.options).run();
  rep.sweep_s = sweep.seconds();
  if (with_optimal) run_optimal(spec, rep);
  return rep;
}

/// The design must replay in the event simulator to its reported latency.
void check_replays(const SweepSpec& spec, const core::PartitionedDesign& design,
                   double reported, const char* what, Outcome& out) {
  try {
    const sim::SimulationResult simulated =
        sim::simulate(spec.graph, spec.device, design);
    if (!same_latency(simulated.makespan_ns, reported) ||
        !same_latency(design.total_latency_ns, reported)) {
      out.fail(spec.name + ": " + what + " design simulates to " +
               std::to_string(simulated.makespan_ns) + " ns, reported " +
               std::to_string(reported) + " ns");
    }
  } catch (const std::exception& e) {
    out.fail(spec.name + ": " + what + " design rejected by the simulator: " +
             e.what());
  }
}

/// Oracles of one repetition; returns false when any failed.
bool check_rep(const SweepSpec& spec, const Rep& rep, double lower_bound,
               Outcome& out) {
  const std::int64_t failed_before = out.failed;
  const core::PartitionerReport& r = rep.report;
  if (!r.feasible || !r.best) {
    out.fail(spec.name + ": the sweep returned no design");
    return false;
  }
  if (r.degraded) out.fail(spec.name + ": the sweep ended degraded");
  check_replays(spec, *r.best, r.achieved_latency, "sweep", out);
  if (r.achieved_latency < lower_bound - 1e-6) {
    out.fail(spec.name + ": Da below the critical-path lower bound");
  }
  if (spec.name == "dct_t3" &&
      (!same_latency(r.achieved_latency, kDctT3LatencyNs) ||
       r.best_num_partitions != kDctT3BestN)) {
    out.fail("dct_t3: Da = " + std::to_string(r.achieved_latency) + " at N=" +
             std::to_string(r.best_num_partitions) + ", Table 3 records " +
             "3030 ns at N=6");
  }
  if (rep.optimal) {
    const core::OptimalResult& opt = *rep.optimal;
    if (!opt.best || !same_latency(opt.latency_ns, kArT1OptimalNs)) {
      out.fail("ar_t1: optimal reference gave " +
               std::to_string(opt.latency_ns) + " ns, Table 1 records 1120");
    } else {
      check_replays(spec, *opt.best, opt.latency_ns, "optimal", out);
    }
    if (std::abs(r.achieved_latency - kArT1OptimalNs) >
        spec.options.budget.delta + 1e-9) {
      out.fail("ar_t1: iterative Da = " + std::to_string(r.achieved_latency) +
               " ns is not within delta of the 1120 ns optimum");
    }
  }
  return out.failed == failed_before;
}

double reference_latency(const SweepSpec& spec, double lower_bound) {
  if (spec.name == "dct_t3") return kDctT3LatencyNs;
  if (spec.name == "ar_t1") return kArT1OptimalNs;
  return lower_bound;
}

/// Per-layer figures keyed by metric name. A name the workload does not
/// fill (e.g. service.* on the in-process workloads) is printed as 0.
using LayerFigures = std::map<std::string, double>;

/// Every per-layer metric of BENCHMARK.json with its unit, in print order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"workloads.generate_s", "s"},
    {"core.formulation.build_s", "s"},
    {"core.formulation.rows", "count"},
    {"core.formulation.vars", "count"},
    {"core.probes.feasible", "count"},
    {"core.probes.refuted", "count"},
    {"core.probe_s.feasible", "s"},
    {"core.probe_s.refuted", "s"},
    {"core.optimal_s", "s"},
    {"milp.compile_s", "s"},
    {"milp.propagation.root_s", "s"},
    {"milp.propagation.visits", "count"},
    {"milp.propagation.visits_per_node", "count"},
    {"milp.propagation.conflicts", "count"},
    {"milp.bnb.solve_s", "s"},
    {"milp.bnb.nodes", "count"},
    {"milp.bnb.us_per_node", "us"},
    {"milp.bnb.pruned_frac", "ratio"},
    {"milp.bnb.capped_probes", "count"},
    {"milp.simplex.calls", "count"},
    {"milp.simplex.iterations", "count"},
    {"milp.simplex.root_lp_s", "s"},
    {"milp.certify.s", "s"},
    {"milp.certify.checked", "count"},
    {"milp.certify.failed", "count"},
    {"service.protocol_rtt_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.run_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.rejections", "count"},
    {"service.job_p95_ms", "ms"},
    {"service.jobs", "count"},
    {"service.jobs_per_s", "1/s"},
    {"trace.explained_share", "ratio"},
    {"trace.replay_overhead", "ratio"},
    {"replay.nodes_reported", "count"},
    {"replay.mismatched_probes", "count"},
    {"host.slowdown", "ratio"},
};

void emit_layers(LayerFigures f, Outcome& out) {
  for (const auto& [name, unit] : kLayerMetrics) {
    out.add(name, f[name], unit);
    f.erase(name);
  }
  if (!f.empty()) throw Error("per-layer figure '" + f.begin()->first +
                              "' is not a metric of the benchmark");
}

/// Folds the medians of several replays of one sweep into `f`; counts come
/// from the first replay (they repeat exactly).
void fold_replays(const std::vector<ReplayTotals>& replays, double sweep_s,
                  bool sweep_certifies, LayerFigures& f) {
  auto med = [&](double ReplayTotals::*field) {
    std::vector<double> values;
    for (const ReplayTotals& r : replays) values.push_back(r.*field);
    return median(std::move(values));
  };
  const ReplayTotals& first = replays.front();
  const double build_s = med(&ReplayTotals::build_s);
  const double solve_s = med(&ReplayTotals::solve_s);
  const double certify_s = med(&ReplayTotals::certify_s);
  const double probes = std::max(1, first.probes);
  const double nodes = std::max<double>(1.0, static_cast<double>(first.nodes));
  f["core.formulation.build_s"] = build_s;
  f["core.formulation.rows"] = first.rows / probes;
  f["core.formulation.vars"] = first.vars / probes;
  f["milp.compile_s"] = med(&ReplayTotals::compile_s);
  f["milp.propagation.root_s"] = med(&ReplayTotals::root_prop_s);
  f["milp.propagation.visits"] = static_cast<double>(first.visits);
  f["milp.propagation.visits_per_node"] =
      static_cast<double>(first.visits) / nodes;
  f["milp.propagation.conflicts"] = static_cast<double>(first.conflicts);
  f["milp.bnb.solve_s"] = solve_s;
  f["milp.bnb.nodes"] = static_cast<double>(first.nodes);
  f["milp.bnb.us_per_node"] = solve_s / nodes * 1e6;
  f["milp.bnb.pruned_frac"] = static_cast<double>(first.pruned) / nodes;
  f["milp.bnb.capped_probes"] = first.capped;
  f["milp.simplex.calls"] += static_cast<double>(first.simplex_calls);
  f["milp.simplex.iterations"] += static_cast<double>(first.simplex_iterations);
  f["milp.certify.s"] = certify_s;
  f["milp.certify.checked"] = static_cast<double>(first.certify_checked);
  f["milp.certify.failed"] = static_cast<double>(first.certify_failed);
  f["replay.nodes_reported"] = static_cast<double>(first.reported_nodes);
  f["replay.mismatched_probes"] = static_cast<double>(first.mismatched_probes);
  f["trace.explained_share"] =
      (build_s + solve_s + (sweep_certifies ? certify_s : 0.0)) / sweep_s;
  f["trace.replay_overhead"] = med(&ReplayTotals::wall_s) / sweep_s - 1.0;
}

/// core.probes / core.probe_s from a report's own trace.
void fold_probe_split(const core::PartitionerReport& report, LayerFigures& f) {
  for (const core::IterationRecord& row : report.trace) {
    const char* kind =
        row.outcome == core::IterationOutcome::kFeasible ? "feasible" : "refuted";
    f[std::string("core.probes.") + kind] += 1.0;
    f[std::string("core.probe_s.") + kind] += row.seconds;
  }
}

/// Root LP timings: the first probe's window on dct_t3 (the N=5 LP of
/// ROADMAP item 4) and every optimal-reference model on ar_t1. synth_wf's
/// models are too large for the dense tableau and are not timed.
double root_lp_seconds(const SweepSpec& spec,
                       const core::PartitionerReport& report,
                       std::int64_t* iterations) {
  double seconds = 0.0;
  if (spec.name == "dct_t3") {
    const core::IterationRecord& first = report.trace.front();
    const core::IlpFormulation form(spec.graph, spec.device,
                                    first.num_partitions, first.d_max_bound,
                                    first.d_min_bound,
                                    spec.options.budget.formulation);
    seconds += time_root_lp(form.model(), iterations);
  } else if (spec.name == "ar_t1") {
    const int lo = core::min_area_partitions(spec.graph, spec.device) +
                   spec.options.alpha;
    const int hi = core::max_area_partitions(spec.graph, spec.device) +
                   spec.options.gamma;
    for (int n = lo; n <= hi; ++n) {
      core::IlpFormulation form(spec.graph, spec.device, n,
                                core::max_latency(spec.graph, spec.device, n),
                                core::min_latency(spec.graph, spec.device, n),
                                spec.options.budget.formulation);
      form.set_latency_objective();
      seconds += time_root_lp(form.model(), iterations);
    }
  }
  return seconds;
}

void run_in_process(const Args& args, Outcome& out) {
  std::vector<double> setup_times;
  SweepSpec spec;
  auto set_up = [&] {
    for (int i = 0; i < kSetupsPerRep; ++i) {
      Stopwatch setup;
      spec = make_spec(args.workload);
      setup_times.push_back(setup.seconds());
    }
  };
  set_up();
  const double lower_bound = latency_lower_bound(spec.graph, spec.device);
  const bool with_optimal = spec.name == "ar_t1";

  std::vector<double> sweep_times;
  std::vector<double> optimal_times;
  std::vector<std::size_t> kept;  // index among the attempts of each time
  std::vector<ReplayTotals> replays;
  std::vector<std::int64_t> first_signature;
  std::optional<Rep> first;
  const int reps = repetitions(args);
  HostCalibration host;
  while (out.attempted < reps) {
    if (out.attempted > 0) set_up();
    Rep rep = run_rep(spec, with_optimal);
    host.measured(rep.sweep_s + rep.optimal_s);
    ++out.attempted;
    if (check_rep(spec, rep, lower_bound, out)) {
      const std::vector<std::int64_t> signature = signature_of(rep.report);
      if (!first) {
        first_signature = signature;
      } else if (signature != first_signature) {
        out.fail(spec.name + ": node/probe/conflict/visit counts drifted " +
                 "between repetitions at threads=1");
        continue;
      }
      sweep_times.push_back(rep.sweep_s);
      optimal_times.push_back(rep.optimal_s);
      kept.push_back(static_cast<std::size_t>(out.attempted - 1));
      // A traced run pairs every sweep with a replay of its probes, so both
      // medians see the same machine conditions.
      if (args.trace) replays.push_back(replay_sweep(spec, rep.report));
      if (!first) first = std::move(rep);
    }
  }
  if (!first) return;  // every repetition failed its oracles
  const std::vector<double> slowdowns = host.slowdowns();
  const double slowdown = median(slowdowns);
  const double setup_s = median(setup_times) / slowdown;

  const core::PartitionerReport& report = first->report;
  int probes_decided = 0;
  for (const core::IterationRecord& row : report.trace) {
    if (decided(row.outcome)) ++probes_decided;
  }
  std::printf("%s: %zu repetitions; probes decided %d of %zu per sweep; "
              "Da = %.0f ns at N=%d\n",
              spec.name.c_str(), sweep_times.size(), probes_decided,
              report.trace.size(), report.achieved_latency,
              report.best_num_partitions);
  // run.py compares this line across processes: the counts must repeat
  // between processes as they do between repetitions.
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (const std::int64_t count : first_signature) {
    hash = (hash ^ static_cast<std::uint64_t>(count)) * 1099511628211ULL;
  }
  std::printf("signature %016llx\n", static_cast<unsigned long long>(hash));

  if (!args.trace) {
    // Each repetition at quiet-host speed, then the median over the fixed
    // number of repetitions.
    std::vector<double> sweeps;
    std::vector<double> jobs;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const double s = slowdowns[kept[i]];
      sweeps.push_back(sweep_times[i] / s);
      jobs.push_back((sweep_times[i] + optimal_times[i]) / s * 1e3);
    }
    std::printf("%s: host slowdown %.2f (%.2f to %.2f); raw median sweep "
                "%.3f s\n",
                spec.name.c_str(), slowdown,
                *std::min_element(slowdowns.begin(), slowdowns.end()),
                *std::max_element(slowdowns.begin(), slowdowns.end()),
                median(sweep_times));
    out.add("sweep_s", median(sweeps), "s");
    out.add("job_ms", median(jobs), "ms");
    out.add("latency_ratio",
            report.achieved_latency / reference_latency(spec, lower_bound),
            "ratio");
    out.add("probes_decided",
            static_cast<double>(probes_decided) /
                static_cast<double>(report.trace.size()),
            "ratio");
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  LayerFigures f;
  f["workloads.generate_s"] = setup_s;
  f["host.slowdown"] = slowdown;
  fold_probe_split(report, f);
  const double sweep_s = median(sweep_times);
  fold_replays(replays, sweep_s, /*sweep_certifies=*/false, f);
  if (first->optimal) {
    f["core.optimal_s"] = median(optimal_times);
    f["milp.simplex.calls"] +=
        static_cast<double>(first->optimal->solver_stats.simplex_calls);
    f["milp.simplex.iterations"] +=
        static_cast<double>(first->optimal->solver_stats.simplex_iterations);
  }
  std::int64_t root_lp_iterations = 0;
  f["milp.simplex.root_lp_s"] =
      root_lp_seconds(spec, report, &root_lp_iterations);
  std::printf("%s: %zu replays; replayed %.0f nodes vs %.0f reported; "
              "layer times explain %.1f%% of the %.3f s sweep; root LP %.3f s "
              "(%lld iterations)\n",
              spec.name.c_str(), replays.size(), f["milp.bnb.nodes"],
              f["replay.nodes_reported"], 100.0 * f["trace.explained_share"],
              sweep_s, f["milp.simplex.root_lp_s"],
              static_cast<long long>(root_lp_iterations));
  emit_layers(std::move(f), out);
}

void run_service(const Args& args, Outcome& out) {
  ServiceLoadOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.max_jobs = args.reps;
  options.traced = args.trace;
  const ServiceFigures s = run_service_load(options, out);
  const double jobs = std::max<double>(1.0, static_cast<double>(s.completed));
  std::printf("ar_service: %lld jobs completed, %lld rejected in %.2f s; "
              "p50 %.3f ms, p95 %.3f ms (%zu samples)\n",
              static_cast<long long>(s.completed),
              static_cast<long long>(s.rejected), s.elapsed_s,
              median(s.rtt_ms), quantile(s.rtt_ms, 0.95), s.rtt_ms.size());
  if (!args.trace) {
    // Each job at quiet-host speed, by the slowdown of its segment.
    std::vector<double> runs;
    std::vector<double> rtts;
    for (std::size_t i = 0; i < s.rtt_ms.size(); ++i) {
      runs.push_back(s.run_ms[i] / s.job_slowdown[i] / 1e3);
      rtts.push_back(s.rtt_ms[i] / s.job_slowdown[i]);
    }
    std::printf("ar_service: host slowdown %.2f\n", s.slowdown);
    out.add("sweep_s", median(runs), "s");
    out.add("job_ms", median(rtts), "ms");
    out.add("latency_ratio", s.latency_ratio_sum / jobs, "ratio");
    out.add("probes_decided",
            static_cast<double>(s.decided_probes) /
                static_cast<double>(std::max<std::int64_t>(1, s.probes)),
            "ratio");
    out.add("setup_s", s.setup_s / s.slowdown, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Layer figures per job: each (Ct, certify) class is equally likely, so
  // the mean over the classes is the expected per-job cost. Each class runs
  // in-process as sweep + replay pairs, like the traced in-process workloads.
  LayerFigures f;
  const std::size_t num_classes = ar_job_classes().size();
  for (const ArJobClass& job_class : ar_job_classes()) {
    const SweepSpec spec = ar_service_spec(job_class);
    std::vector<double> sweep_times;
    std::vector<ReplayTotals> replays;
    core::PartitionerReport report;
    for (std::size_t i = 0; i < kServiceClassReplays; ++i) {
      Rep rep = run_rep(spec, false);
      if (!rep.report.feasible) break;
      sweep_times.push_back(rep.sweep_s);
      replays.push_back(replay_sweep(spec, rep.report));
      report = std::move(rep.report);
    }
    if (replays.size() != kServiceClassReplays) {
      out.fail("ar_service: in-process replay sweep found no design");
      continue;
    }
    LayerFigures c;
    fold_probe_split(report, c);
    fold_replays(replays, median(sweep_times),
                 job_class.certify != milp::CertifyMode::kOff, c);
    for (const auto& [name, value] : c) {
      f[name] += value / static_cast<double>(num_classes);
    }
  }
  f["workloads.generate_s"] = s.setup_s / s.slowdown;
  f["host.slowdown"] = s.slowdown;
  f["service.protocol_rtt_ms"] = s.list_rtt_ms;
  f["service.queue_wait_ms"] = median(s.queue_ms);
  f["service.run_ms"] = median(s.run_ms);
  f["service.overhead_ms"] = median(s.overhead_ms);
  f["service.rejections"] = static_cast<double>(s.rejected);
  f["service.job_p95_ms"] = quantile(s.rtt_ms, 0.95);
  f["service.jobs"] = static_cast<double>(s.completed);
  f["service.jobs_per_s"] = static_cast<double>(s.completed) / s.elapsed_s;
  std::printf("ar_service: list round trip %.3f ms; per job: build %.3f ms, "
              "search %.3f ms, certify %.3f ms; layer times explain %.1f%% "
              "of the in-process sweep\n",
              f["service.protocol_rtt_ms"],
              f["core.formulation.build_s"] * 1e3, f["milp.bnb.solve_s"] * 1e3,
              f["milp.certify.s"] * 1e3, 100.0 * f["trace.explained_share"]);
  emit_layers(std::move(f), out);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--reps") {
      args.reps = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

void print_outcome(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--reps N]\n");
    return 2;
  }
  sparcs::set_log_level(sparcs::LogLevel::kError);
  Outcome out;
  try {
    if (args.workload == "ar_service") {
      run_service(args, out);
    } else {
      run_in_process(args, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  print_outcome(out);
  return 0;
}
