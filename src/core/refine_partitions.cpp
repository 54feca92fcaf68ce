#include "core/refine_partitions.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "core/bounds.hpp"
#include "core/checkpoint.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/span.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace sparcs::core {
namespace {

/// A Reduce_Latency run for partition bound `n` launched on a worker thread
/// while the sweep is still busy with `n - 1`. Its iterations go into a
/// private trace buffer; the sweep either adopts them (when the launch-time
/// window turns out to equal the one the serial sweep would have used) or
/// cancels the run and discards the buffer. The destructor cancels and
/// joins, so an unwinding sweep never leaks the worker.
struct SpeculativeProbe {
  int n = 0;
  double d_max = 0.0;  ///< launch-time window upper bound (predicted Da)
  milp::CancelToken cancel;
  Trace trace;
  ReduceLatencyResult result;
  std::exception_ptr error;
  std::thread thread;

  ~SpeculativeProbe() { discard(); }

  void join() {
    if (thread.joinable()) thread.join();
  }

  void discard() {
    cancel.request_cancel();
    join();
  }
};

std::unique_ptr<SpeculativeProbe> launch_speculative(
    const graph::TaskGraph& graph, const arch::Device& device, int n,
    double d_max, double d_min, LatencyBound latency_bound,
    const ReduceLatencyParams& inner) {
  auto spec = std::make_unique<SpeculativeProbe>();
  spec->n = n;
  spec->d_max = d_max;
  spec->cancel = milp::CancelToken::create();
  ReduceLatencyParams params = inner;  // worker-private copy
  params.budget.solver.cancel = spec->cancel;
  params.latency_bound = std::move(latency_bound);
  // Speculative runs must not touch the durable sweep state: no progress
  // snapshots (the serial sweep owns the checkpoint), and never a bisection
  // resume (that state belongs to the stage the sweep re-enters inline).
  params.on_progress = nullptr;
  params.resume.reset();
  spec->thread = std::thread([probe = spec.get(), &graph, &device, n, d_max,
                              d_min, params = std::move(params)] {
    try {
      probe->result = reduce_latency(graph, device, n, d_max, d_min, params,
                                     probe->trace);
    } catch (...) {
      probe->error = std::current_exception();
    }
  });
  return spec;
}

/// Speculation needs a second execution lane: disabled when the solver is
/// pinned to one thread or the machine only has one.
bool speculation_enabled(const SearchBudget& budget) {
  if (budget.solver.num_threads == 1) return false;
  if (budget.solver.num_threads > 1) return true;
  return std::thread::hardware_concurrency() > 1;
}

}  // namespace

std::string to_string(StageStatus status) {
  switch (status) {
    case StageStatus::kProbed:
      return "probed";
    case StageStatus::kCutShort:
      return "cut-short";
    case StageStatus::kSkipped:
      return "skipped";
    case StageStatus::kDegraded:
      return "degraded";
  }
  return "unknown";
}

int run_exit_code(bool feasible, bool degraded, bool uncertified) {
  if (uncertified) return 7;
  if (degraded) return 3;
  return feasible ? 0 : 2;
}

PartitionerReport refine_partitions_bound(
    const graph::TaskGraph& graph, const arch::Device& device,
    const RefinePartitionsParams& params) {
  SPARCS_REQUIRE(params.alpha >= 0, "alpha must be non-negative");
  SPARCS_REQUIRE(params.gamma >= 0, "gamma must be non-negative");
  graph.validate();
  device.validate();

  PartitionerReport result;
  trace::Span sweep_span("Refine_Partitions_Bound");
  Stopwatch stopwatch;

  ReduceLatencyParams inner;
  inner.budget = params.budget;

  const int n_min_lower = min_area_partitions(graph, device);
  const int n_min_upper = max_area_partitions(graph, device);
  const int n_stop = n_min_upper + params.gamma;
  const bool speculate = speculation_enabled(params.budget);

  // ---- checkpoint plumbing ----
  // `ckpt` is the evolving durable state. Its SweepOutcome half is copied
  // from `result` at stage boundaries only, where result.stages holds
  // completed stages and nothing else: a cut-short stage always ends the
  // sweep (it means the deadline or cancel token fired, and both stay
  // fired), and skipped placeholders are only appended on a degraded finish,
  // which does not sync. Mid-refinement snapshots carry the pre-stage
  // outcome plus an in_progress window; stage completions clear the window.
  CheckpointWriter* const ckpt_writer = params.checkpoint;
  const SweepCheckpoint* const resume = params.resume;
  SweepCheckpoint ckpt;
  double base_seconds = 0.0;

  auto sync_ckpt_outcome = [&] {
    result.seconds = base_seconds + stopwatch.seconds();
    static_cast<SweepOutcome&>(ckpt) = result;
  };

  /// Declares the stage the sweep is about to run: mid-refinement snapshots
  /// written while it runs restore to "re-enter stage `stage_n` in `phase`,
  /// globals as of the previous stage".
  auto arm_stage = [&](int stage_n, int phase) {
    inner.on_progress = nullptr;
    if (ckpt_writer == nullptr) return;
    ckpt.phase = phase;
    ckpt.next_n = stage_n;
    sync_ckpt_outcome();
    inner.on_progress = [&ckpt, ckpt_writer,
                         stage_n](BisectionWindow window) {
      ckpt.in_progress = CheckpointInProgress{stage_n, std::move(window)};
      ckpt_writer->write(ckpt, /*force=*/false);
    };
  };

  /// Persists a completed (not cut-short) stage. Cut-short stages are never
  /// recorded as done: a resume re-enters them through in_progress instead.
  auto checkpoint_stage_done = [&](int stage_n, bool cut_short, int phase) {
    if (ckpt_writer == nullptr || cut_short) return;
    ckpt.in_progress.reset();
    ckpt.phase = phase;
    ckpt.next_n = stage_n + 1;
    sync_ckpt_outcome();
    ckpt_writer->write(ckpt, /*force=*/true);
  };

  if (resume != nullptr) {
    // Restore the outcome of the interrupted run; the loops below then skip
    // every stage the checkpoint accounts as completed.
    static_cast<SweepOutcome&>(result) = *resume;
    base_seconds = resume->seconds;
    ckpt = *resume;
    if (result.best) {
      telemetry::publish_best_latency(result.achieved_latency,
                                      result.best_num_partitions);
    }
    SPARCS_ILOG << "Refine_Partitions_Bound: resuming from checkpoint ("
                << resume->stages.size() << " stages done, phase "
                << resume->phase << ", next N=" << resume->next_n
                << (resume->in_progress ? ", mid-refinement" : "") << ")";
  }

  // LB(N) per partition bound, computed once, before the stage or its
  // speculative launch. Bounds only weaken along the sweep (DESIGN.md §10):
  // once LB(N) falls to MinLatency(N), every larger N keeps its floor
  // without the relaxation, since LP(N) does not increase with N while
  // MinLatency(N) does; once the MILP fails to close within the stage
  // budget, larger N use the LP alone, so a hard relaxation costs one budget
  // per sweep rather than one per stage.
  std::map<int, LatencyBound> latency_bounds;
  LatencyBoundSource reach = LatencyBoundSource::kMilp;
  auto latency_bound = [&](int stage_n) -> const LatencyBound& {
    const auto known = latency_bounds.find(stage_n);
    if (known != latency_bounds.end()) return known->second;
    LatencyBound bound{min_latency(graph, device, stage_n),
                       LatencyBoundSource::kMinLatency, {}};
    if (reach != LatencyBoundSource::kMinLatency) {
      bound = latency_relaxation_bound(graph, device, stage_n,
                                       params.budget.clamped_solver(),
                                       reach == LatencyBoundSource::kMilp);
    }
    reach = std::min(reach, bound.source);
    return latency_bounds.emplace(stage_n, std::move(bound)).first->second;
  };

  auto time_expired = [&] {
    return stopwatch.seconds() >= params.budget.time_budget_sec ||
           params.budget.interrupted();
  };

  /// Appends the stage account for partition bound `n`: its solve count and
  /// the solver wall time of the trace rows it appended (uniform across
  /// inline and adopted speculative runs).
  auto record_stage = [&](int stage_n, const ReduceLatencyResult& reduced,
                          std::size_t first_row) {
    StageAccount account;
    account.num_partitions = stage_n;
    account.status = reduced.cut_short    ? StageStatus::kCutShort
                     : reduced.degraded ? StageStatus::kDegraded
                                        : StageStatus::kProbed;
    account.solves = reduced.ilp_solves;
    for (std::size_t i = first_row; i < result.trace.size(); ++i) {
      account.seconds += result.trace[i].seconds;
    }
    result.stages.push_back(account);
  };

  /// Marks every bound in [first_n, n_stop] as skipped: the budget expired
  /// before the sweep reached them.
  auto mark_skipped = [&](int first_n, int n_stop_bound) {
    for (int skipped = first_n; skipped <= n_stop_bound; ++skipped) {
      result.stages.push_back(
          StageAccount{skipped, StageStatus::kSkipped, 0, 0.0});
    }
  };

  /// Folds a finished speculative run into the result as if the sweep had
  /// run it inline. Valid only when its launch-time inputs match the ones
  /// the serial sweep would use at this point.
  auto adopt = [&](SpeculativeProbe& spec) -> ReduceLatencyResult {
    spec.join();
    if (spec.error) std::rethrow_exception(spec.error);
    result.trace.insert(result.trace.end(), spec.trace.begin(),
                        spec.trace.end());
    result.ilp_solves += spec.result.ilp_solves;
    result.solver_stats.merge(spec.result.solver_stats);
    return std::move(spec.result);
  };

  auto finish = [&] {
    // Normalization rule: the trace is ordered by (N, iteration). Inline
    // runs append in exactly that order and adopted buffers slot in at
    // their N, so this is a stable no-op re-ordering that pins the
    // determinism contract regardless of how probes were scheduled.
    std::stable_sort(result.trace.begin(), result.trace.end(),
                     [](const IterationRecord& a, const IterationRecord& b) {
                       return a.num_partitions != b.num_partitions
                                  ? a.num_partitions < b.num_partitions
                                  : a.iteration < b.iteration;
                     });
    // A stage interrupted mid-refinement — or stopped on an uncertified
    // verdict — degrades the result even when the sweep then terminated at
    // its natural end of range.
    for (const StageAccount& account : result.stages) {
      if (account.status == StageStatus::kCutShort ||
          account.status == StageStatus::kDegraded) {
        result.degraded = true;
      }
    }
    result.feasible = result.best.has_value();
    result.seconds = base_seconds + stopwatch.seconds();
    if (ckpt_writer != nullptr) {
      if (!result.degraded) {
        // Natural termination: seal the checkpoint as a complete record of
        // the answer; resuming it reproduces the report without solving.
        ckpt.complete = true;
        ckpt.in_progress.reset();
        sync_ckpt_outcome();
      }
      // A degraded finish deliberately does NOT sync the outcome: the
      // cut-short stage's partial solves are already folded into
      // result.ilp_solves, but on resume that stage re-runs from
      // in_progress and re-reports its full count — syncing here would
      // double-count them. The checkpoint keeps the last consistent
      // (stage-boundary) outcome plus the freshest in_progress window,
      // which the throttle may have withheld from disk until now.
      ckpt_writer->write(ckpt, /*force=*/true);
    }
    telemetry::publish_degraded(result.degraded);
    telemetry::set_stage("done", result.best_num_partitions);
  };

  std::unique_ptr<SpeculativeProbe> spec;

  if (resume != nullptr && resume->complete) {
    // The interrupted run had already terminated naturally; the restored
    // globals and stage accounts ARE the final answer.
    finish();
    return result;
  }

  // The stage (if any) the checkpoint left mid-refinement; consumed by the
  // first matching stage below, which re-enters its bisection window.
  int resume_mid_stage = -1;
  if (resume != nullptr && resume->in_progress) {
    resume_mid_stage = resume->in_progress->num_partitions;
  }
  auto consume_mid_stage = [&](int stage_n) {
    inner.resume.reset();
    if (resume_mid_stage != stage_n) return;
    inner.resume = resume->in_progress->window;
    resume_mid_stage = -1;
  };

  // Phase 1: find the first feasible partition bound, starting at
  // N^l_min + alpha and incrementing while Reduce_Latency returns Da = 0.
  // Any design uses at most one partition per task, so feasibility is
  // settled once N reaches the task count: growing N further cannot help.
  // Phase-1 windows depend only on N, so a speculative run for N+1 is
  // always adoptable when the sweep reaches N+1.
  const int n_phase1_cap = std::min(
      params.max_partitions, std::max(graph.num_tasks(), n_stop));
  int n = n_min_lower + params.alpha;
  const bool skip_phase1 = resume != nullptr && resume->phase == 2;
  if (skip_phase1) {
    // The checkpointed run already found its first feasible bound; re-enter
    // phase 2 so its next iteration probes exactly N = resume->next_n.
    n = std::max(n, resume->next_n - 1);
  } else {
    if (resume != nullptr) n = std::max(n, resume->next_n);
    while (true) {
      if (n > n_phase1_cap) {
        finish();
        return result;  // provably no solution in the explorable range
      }
      telemetry::set_stage("phase1", n);
      arm_stage(n, /*phase=*/1);
      consume_mid_stage(n);
      inner.latency_bound = latency_bound(n);
      ReduceLatencyResult reduced;
      const std::size_t first_row = result.trace.size();
      if (spec != nullptr && spec->n == n) {
        reduced = adopt(*spec);
        spec.reset();
      } else {
        spec.reset();
        if (speculate && n + 1 <= n_phase1_cap && !time_expired()) {
          spec = launch_speculative(graph, device, n + 1,
                                    max_latency(graph, device, n + 1),
                                    min_latency(graph, device, n + 1),
                                    latency_bound(n + 1), inner);
        }
        const double d_max = max_latency(graph, device, n);
        const double d_min = min_latency(graph, device, n);
        reduced = reduce_latency(graph, device, n, d_max, d_min, inner,
                                 result.trace);
        result.ilp_solves += reduced.ilp_solves;
        result.solver_stats.merge(reduced.solver_stats);
      }
      record_stage(n, reduced, first_row);
      if (reduced.best) {
        result.best = std::move(reduced.best);
        result.achieved_latency = reduced.achieved_latency;
        result.best_num_partitions = n;
        telemetry::publish_best_latency(result.achieved_latency, n);
        checkpoint_stage_done(n, reduced.cut_short, /*phase=*/2);
        // Any in-flight speculation used the phase-1 window for N+1; phase 2
        // caps the window at Da instead, so the prediction cannot match.
        spec.reset();
        break;
      }
      checkpoint_stage_done(n, reduced.cut_short, /*phase=*/1);
      if (time_expired()) {
        spec.reset();
        result.degraded = true;
        mark_skipped(n + 1, n_stop);
        finish();
        return result;  // no solution within the budget
      }
      ++n;
    }
  }

  // Phase 2: relax N looking for strictly better solutions; the achieved
  // latency Da becomes the upper bound of every further search. The
  // speculative run for N+1 predicts that N will not improve Da (the common
  // case near the end of a sweep); when N does improve, the prediction is
  // wrong, the run is cancelled, and N+1 is probed inline with the true Da.
  while (n < n_stop && !time_expired()) {
    ++n;
    telemetry::set_stage("phase2", n);
    const double d_min = min_latency(graph, device, n);
    if (d_min >= result.achieved_latency) {
      // Even a perfect schedule at N partitions pays more reconfiguration
      // overhead than the incumbent: the incumbent is final.
      result.stopped_by_lower_bound = true;
      break;
    }
    arm_stage(n, /*phase=*/2);
    consume_mid_stage(n);
    // Seed the new partition bound with the incumbent design: it stays valid
    // when N grows and focuses the solver on local improvements.
    inner.warm_start = result.best;
    inner.latency_bound = latency_bound(n);
    ReduceLatencyResult reduced;
    const std::size_t first_row = result.trace.size();
    if (spec != nullptr && spec->n == n &&
        spec->d_max == result.achieved_latency) {
      // Prediction held (the previous bound left Da — and therefore the
      // warm start — unchanged): the speculative run saw exactly the
      // serial sweep's inputs.
      reduced = adopt(*spec);
      spec.reset();
    } else {
      spec.reset();
      if (speculate && n + 1 <= n_stop) {
        const double d_min_next = min_latency(graph, device, n + 1);
        if (d_min_next < result.achieved_latency) {
          spec = launch_speculative(graph, device, n + 1,
                                    result.achieved_latency, d_min_next,
                                    latency_bound(n + 1), inner);
        }
      }
      reduced = reduce_latency(graph, device, n, result.achieved_latency,
                               d_min, inner, result.trace);
      result.ilp_solves += reduced.ilp_solves;
      result.solver_stats.merge(reduced.solver_stats);
    }
    record_stage(n, reduced, first_row);
    if (reduced.best &&
        reduced.achieved_latency < result.achieved_latency) {
      result.best = std::move(reduced.best);
      result.achieved_latency = reduced.achieved_latency;
      result.best_num_partitions = n;
      telemetry::publish_best_latency(result.achieved_latency, n);
    }
    checkpoint_stage_done(n, reduced.cut_short, /*phase=*/2);
  }
  spec.reset();
  if (!result.stopped_by_lower_bound && n < n_stop) {
    // The phase-2 loop gave up before its natural end of range: the budget
    // or deadline expired. Account the bounds that never ran.
    result.degraded = true;
    mark_skipped(n + 1, n_stop);
  }

  finish();
  sweep_span.arg("Da_ns", result.achieved_latency);
  sweep_span.arg("best_N", static_cast<std::int64_t>(result.best_num_partitions));
  sweep_span.arg("ilp_solves", static_cast<std::int64_t>(result.ilp_solves));
  if (metrics::enabled()) {
    metrics::Registry& reg = metrics::registry();
    reg.counter("core.sweeps").add(1);
    if (result.degraded) reg.counter("core.sweeps_degraded").add(1);
    reg.counter("core.ilp_solves").add(result.ilp_solves);
    reg.timer("core.sweep").record(result.seconds);
    if (result.best) {
      reg.gauge("core.best_latency_ns").set(result.achieved_latency);
      reg.gauge("core.best_num_partitions")
          .set(static_cast<double>(result.best_num_partitions));
    }
  }
  SPARCS_ILOG << "Refine_Partitions_Bound: Da=" << result.achieved_latency
              << " ns at N=" << result.best_num_partitions << " ("
              << result.ilp_solves << " solves, "
              << result.seconds << " s)";
  return result;
}

}  // namespace sparcs::core
