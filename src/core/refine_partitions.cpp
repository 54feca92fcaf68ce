#include "core/refine_partitions.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "core/bounds.hpp"
#include "core/checkpoint.hpp"
#include "core/partitioner.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/observer.hpp"
#include "support/span.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace sparcs::core {

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

namespace {

/// Where a run writes its snapshots, and the snapshot a resume continues.
struct CheckpointSession {
  std::unique_ptr<CheckpointWriter> writer;  ///< null: no checkpointing
  std::optional<SweepCheckpoint> restored;
  /// Why a requested resume did not restore; the run then starts fresh.
  std::string resume_error;
};

/// Opens the checkpoint a run's options ask for. The fingerprint binds the
/// snapshot to everything that shapes the search trajectory (graph, device,
/// alpha/gamma/delta/cap, formulation): a resume against different inputs
/// is rejected and the run proceeds fresh, never mixing two searches.
CheckpointSession open_checkpoint(const graph::TaskGraph& graph,
                                  const arch::Device& device,
                                  const PartitionerOptions& options,
                                  double delta) {
  CheckpointSession session;
  const PartitionerOptions::CheckpointOptions& ckpt = options.checkpoint;
  if (ckpt.path.empty()) return session;
  const std::uint64_t fingerprint = checkpoint_fingerprint(
      graph, device, options.alpha, options.gamma, delta,
      options.max_partitions, options.budget.formulation);
  if (ckpt.resume) {
    CheckpointLoadResult loaded =
        load_checkpoint(ckpt.path, fingerprint, graph, device);
    switch (loaded.status) {
      case CheckpointLoadStatus::kOk:
        session.restored = std::move(loaded.checkpoint);
        SPARCS_ILOG << "resuming sweep from checkpoint " << ckpt.path;
        break;
      case CheckpointLoadStatus::kMissing:
        // Nothing to resume (first run, or the crash happened before the
        // first snapshot): a fresh run is exactly what --resume wants.
        SPARCS_ILOG << "no checkpoint to resume at " << ckpt.path
                    << "; starting fresh";
        break;
      default:
        session.resume_error = loaded.error;
        SPARCS_WLOG << "checkpoint " << ckpt.path << " rejected ("
                    << to_string(loaded.status) << "): " << loaded.error
                    << "; starting fresh";
        break;
    }
  }
  session.writer = std::make_unique<CheckpointWriter>(
      ckpt.path, ckpt.min_interval_sec, fingerprint);
  if (ckpt.observer) session.writer->set_observer(ckpt.observer);
  return session;
}

}  // namespace

PartitionerReport TemporalPartitioner::run() const {
  PartitionerReport result;
  result.n_min_lower = min_area_partitions(graph_, device_);
  result.n_min_upper = max_area_partitions(graph_, device_);
  const int n_start = result.n_min_lower + options_.alpha;
  const int n_stop = result.n_min_upper + options_.gamma;
  // Until a first design exists N grows past n_stop if it must. Any design
  // uses at most one partition per task, so feasibility is settled once N
  // reaches the task count (or the start N, when alpha puts it higher):
  // growing N further cannot help.
  const int n_phase1_cap = std::min(
      options_.max_partitions, std::max({graph_.num_tasks(), n_stop, n_start}));

  // An unset tolerance is 2% of MaxLatency at the start bound.
  ReduceLatencyParams inner;
  inner.budget = options_.budget;
  if (inner.budget.delta <= 0.0) {
    inner.budget.delta =
        std::max(1e-9, 0.02 * max_latency(graph_, device_, n_start));
  }
  result.delta_used = inner.budget.delta;
  const SearchBudget& budget = inner.budget;

  CheckpointSession session =
      open_checkpoint(graph_, device_, options_, result.delta_used);
  result.resume_error = std::move(session.resume_error);
  result.resumed = session.restored.has_value();

  trace::Span sweep_span("Refine_Partitions_Bound");
  Stopwatch stopwatch;

  // ---- checkpoint plumbing ----
  // `ckpt` is the evolving durable state. Its SweepOutcome half is copied
  // from `result` at stage boundaries only, where result.stages holds
  // completed stages and nothing else: a cut-short stage always ends the
  // sweep (it means the deadline or cancel token fired, and both stay
  // fired), and skipped placeholders are only appended on a degraded finish,
  // which does not sync. Mid-refinement snapshots carry the pre-stage
  // outcome plus an in_progress window; stage completions clear the window.
  CheckpointWriter* const ckpt_writer = session.writer.get();
  const SweepCheckpoint* const resume =
      session.restored ? &*session.restored : nullptr;
  SweepCheckpoint ckpt;
  double base_seconds = 0.0;

  auto sync_ckpt_outcome = [&] {
    result.seconds = base_seconds + stopwatch.seconds();
    static_cast<SweepOutcome&>(ckpt) = result;
  };

  /// Declares the stage the sweep is about to run: mid-refinement snapshots
  /// written while it runs restore to "re-enter stage `stage_n`, globals as
  /// of the previous stage" (the phase follows from whether `best` is set).
  auto arm_stage = [&](int stage_n) {
    inner.on_progress = nullptr;
    if (ckpt_writer == nullptr) return;
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
  auto checkpoint_stage_done = [&](int stage_n, bool cut_short) {
    if (ckpt_writer == nullptr || cut_short) return;
    ckpt.in_progress.reset();
    ckpt.next_n = stage_n + 1;
    sync_ckpt_outcome();
    ckpt_writer->write(ckpt, /*force=*/true);
  };

  if (resume != nullptr) {
    // Restore the outcome of the interrupted run; the loop below then starts
    // at the first stage the checkpoint does not account as completed.
    static_cast<SweepOutcome&>(result) = *resume;
    base_seconds = resume->seconds;
    ckpt = *resume;
    if (result.best) {
      telemetry::publish_best_latency(result.achieved_latency,
                                      result.best_num_partitions);
    }
    SPARCS_ILOG << "Refine_Partitions_Bound: resuming from checkpoint ("
                << resume->stages.size() << " stages done, phase "
                << (resume->best ? 2 : 1) << ", next N=" << resume->next_n
                << (resume->in_progress ? ", mid-refinement" : "") << ")";
  }

  // Bounds only weaken along the sweep (DESIGN.md §10): once LB(N) falls to
  // MinLatency(N), every larger N keeps its floor without the relaxation,
  // since LP(N) does not increase with N while MinLatency(N) does; once the
  // MILP fails to close within the stage budget, larger N use the LP alone,
  // so a hard relaxation costs one budget per sweep rather than one per
  // stage.
  LatencyBoundSource reach = LatencyBoundSource::kMilp;

  /// Appends the stage account for partition bound `n`: its solve count and
  /// the solver wall time of the trace rows it appended.
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

  auto finish = [&] {
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
    if (result.best) {
      const DesignCheck check = validate_design(graph_, device_, *result.best);
      SPARCS_CHECK(check.ok, "partitioner returned an invalid design: " +
                                 check.violation);
    }
  };

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

  // One stage per partition bound N, from N^l_min + alpha (or the first
  // bound a checkpoint left unfinished) upwards. Phase 1 runs until a first
  // design exists: each window is [MinLatency(N), MaxLatency(N)] and the
  // sweep may run up to n_phase1_cap. Phase 2 relaxes N up to n_stop looking
  // for strictly better designs: the achieved latency Da caps every further
  // window, the incumbent seeds it, and MinLatency(N) >= Da ends the sweep.
  const int n_first =
      resume != nullptr ? std::max(n_start, resume->next_n) : n_start;
  for (int n = n_first;; ++n) {
    const bool found = result.best.has_value();
    if (found && n > n_stop) break;
    // Phase 2 checks the budget before each stage, phase 1 after each one;
    // either way the bounds left unprobed are accounted as skipped.
    if ((found || n > n_first) && budget.interrupted()) {
      result.degraded = true;
      for (int skipped = n; skipped <= n_stop; ++skipped) {
        result.stages.push_back(
            StageAccount{skipped, StageStatus::kSkipped, 0, 0.0});
      }
      break;
    }
    if (!found && n > n_phase1_cap) break;  // no solution in explorable range
    telemetry::set_stage(found ? "phase2" : "phase1", n);
    const double d_min = min_latency(graph_, device_, n);
    if (found && d_min >= result.achieved_latency) {
      // Even a perfect schedule at N partitions pays more reconfiguration
      // overhead than the incumbent: the incumbent is final.
      result.stopped_by_lower_bound = true;
      break;
    }
    arm_stage(n);
    consume_mid_stage(n);
    // Seed the new partition bound with the incumbent design: it stays valid
    // when N grows and focuses the solver on local improvements.
    inner.warm_start = result.best;
    LatencyBound bound{d_min, LatencyBoundSource::kMinLatency, {}};
    if (reach != LatencyBoundSource::kMinLatency) {
      bound = latency_relaxation_bound(graph_, device_, n,
                                       budget.clamped_solver(),
                                       reach == LatencyBoundSource::kMilp);
    }
    reach = std::min(reach, bound.source);
    inner.latency_bound = std::move(bound);
    const double d_max =
        found ? result.achieved_latency : max_latency(graph_, device_, n);
    const std::size_t first_row = result.trace.size();
    ReduceLatencyResult reduced = reduce_latency(
        graph_, device_, n, d_max, d_min, inner, result.trace);
    result.ilp_solves += reduced.ilp_solves;
    result.solver_stats.merge(reduced.solver_stats);
    record_stage(n, reduced, first_row);
    if (reduced.best &&
        (!found || reduced.achieved_latency < result.achieved_latency)) {
      result.best = std::move(reduced.best);
      result.achieved_latency = reduced.achieved_latency;
      result.best_num_partitions = n;
      telemetry::publish_best_latency(result.achieved_latency, n);
    }
    checkpoint_stage_done(n, reduced.cut_short);
  }

  finish();
  sweep_span.arg("Da_ns", result.achieved_latency);
  sweep_span.arg("best_N", static_cast<std::int64_t>(result.best_num_partitions));
  sweep_span.arg("ilp_solves", static_cast<std::int64_t>(result.ilp_solves));
  const Observer* observer = current_observer();
  if (observer != nullptr && observer->metrics() != nullptr) {
    metrics::Registry& reg = *observer->metrics();
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
