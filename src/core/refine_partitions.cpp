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

int run_exit_code(const PartitionerReport& report) {
  if (report.uncertified()) return 7;
  if (report.degraded) return 3;
  return report.feasible ? 0 : 2;
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

/// The sweep's partition bounds: N^l_min and N^u_min, the start bound, the
/// bound phase 2 stops at, and how far phase 1 may grow N.
struct SweepBounds {
  int n_min_lower = 0;
  int n_min_upper = 0;
  int n_start = 0;
  int n_stop = 0;
  int n_phase1_cap = 0;
};

SweepBounds sweep_bounds(const graph::TaskGraph& graph,
                         const arch::Device& device,
                         const PartitionerOptions& options) {
  SweepBounds b;
  b.n_min_lower = min_area_partitions(graph, device);
  b.n_min_upper = max_area_partitions(graph, device);
  b.n_start = b.n_min_lower + options.alpha;
  b.n_stop = b.n_min_upper + options.gamma;
  // Until a first design exists N grows past n_stop if it must. Any design
  // uses at most one partition per task, so feasibility is settled once N
  // reaches the task count (or the start N, when alpha puts it higher):
  // growing N further cannot help.
  b.n_phase1_cap =
      std::min(options.max_partitions,
               std::max({graph.num_tasks(), b.n_stop, b.n_start}));
  return b;
}

}  // namespace

int max_latency_partitions(const graph::TaskGraph& graph,
                           const arch::Device& device,
                           const PartitionerOptions& options) {
  const SweepBounds b = sweep_bounds(graph, device, options);
  return std::max(b.n_start, b.n_phase1_cap);
}

PartitionerReport TemporalPartitioner::run() const {
  PartitionerReport result;
  const SweepBounds range = sweep_bounds(graph_, device_, options_);
  result.n_min_lower = range.n_min_lower;
  result.n_min_upper = range.n_min_upper;
  const int n_start = range.n_start;
  const int n_stop = range.n_stop;
  const int n_phase1_cap = range.n_phase1_cap;

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
  CheckpointWriter* const writer = session.writer.get();

  trace::Span sweep_span("Refine_Partitions_Bound");
  Stopwatch stopwatch;

  // The sweep's one state: restored from the checkpoint on resume, changed
  // only when a stage completes, and written out as it stands. While a stage
  // runs, `state.in_progress` is its window, which Reduce_Latency moves in
  // place; a restored window re-enters its stage's bisection.
  SweepCheckpoint state =
      std::move(session.restored).value_or(SweepCheckpoint{});
  if (result.resumed) {
    if (state.best) {
      telemetry::publish_best_latency(state.achieved_latency,
                                      state.best_num_partitions);
    }
    SPARCS_ILOG << "Refine_Partitions_Bound: resuming from checkpoint ("
                << state.stages.size() << " stages done, phase "
                << (state.best ? 2 : 1) << ", next N=" << state.next_n
                << (state.in_progress ? ", mid-refinement" : "") << ")";
  }
  state.next_n = std::max(state.next_n, n_start);

  /// Lands the state as it stands; `seconds` first gains the wall time
  /// since the previous write, so it sums over this run and resumed ones.
  auto write = [&](bool force) {
    state.seconds += stopwatch.seconds();
    stopwatch.reset();
    if (writer != nullptr) writer->write(state, force);
  };
  if (writer != nullptr) {
    inner.on_progress = [&write](const BisectionWindow&) { write(false); };
  }

  // Bounds only weaken along the sweep (DESIGN.md §10): once LB(N) falls to
  // MinLatency(N), every larger N keeps its floor without the relaxation,
  // since LP(N) does not increase with N while MinLatency(N) does; once R(N)
  // is not reached within the stage budget (the walk stopped and its
  // fallback MILP did not close), larger N use the LP alone, so a hard
  // relaxation costs one budget per sweep rather than one per stage. One
  // walk over the level multisets answers R(N) for every stage.
  LatencyBoundSource reach = LatencyBoundSource::kMilp;
  LatencyBoundWalk bounds(graph_, device_);

  // One stage per partition bound N, from N^l_min + alpha (or the first
  // bound a checkpoint left unfinished) upwards. Phase 1 runs until a first
  // design exists: each window is [MinLatency(N), MaxLatency(N)] and the
  // sweep may run up to n_phase1_cap. Phase 2 relaxes N up to n_stop looking
  // for strictly better designs: the achieved latency Da caps every further
  // window, the incumbent seeds it, and MinLatency(N) >= Da ends the sweep.
  // A complete checkpoint already holds the final answer.
  const int n_first = state.next_n;
  // The first bound the budget left unstarted (0: the budget never stopped
  // the sweep), and the account of the stage it cut short, if any. A
  // cut-short stage always ends the sweep: the deadline or the cancel token
  // fired, and both stay fired.
  int stopped_at = 0;
  std::optional<StageAccount> cut_short;
  while (!state.complete) {
    const int n = state.next_n;
    const bool found = state.best.has_value();
    if (found && n > n_stop) break;
    // Phase 2 checks the budget before each stage, phase 1 after each one.
    if ((found || n > n_first) && budget.interrupted()) {
      stopped_at = n;
      break;
    }
    if (!found && n > n_phase1_cap) break;  // no solution in explorable range
    telemetry::set_stage(found ? "phase2" : "phase1", n);
    const double d_min = min_latency(graph_, device_, n);
    if (found && d_min >= state.achieved_latency) {
      // Even a perfect schedule at N partitions pays more reconfiguration
      // overhead than the incumbent: the incumbent is final.
      state.stopped_by_lower_bound = true;
      break;
    }
    // Seed the new partition bound with the incumbent design: it stays valid
    // when N grows and focuses the solver on local improvements.
    inner.warm_start = state.best;
    LatencyBound bound{d_min, LatencyBoundSource::kMinLatency, {}};
    Stopwatch bound_time;
    if (reach != LatencyBoundSource::kMinLatency) {
      bound = bounds.bound(n, budget.clamped_solver(),
                           reach == LatencyBoundSource::kMilp);
    }
    const double bound_seconds = bound_time.seconds();
    reach = std::min(reach, bound.source);
    inner.latency_bound = std::move(bound);
    if (!state.in_progress) {
      const double d_max =
          found ? state.achieved_latency : max_latency(graph_, device_, n);
      state.in_progress = BisectionWindow{d_max, d_min, 0, std::nullopt};
    }
    BisectionWindow& window = *state.in_progress;
    const std::size_t first_row = result.trace.size();
    StageAccount account{
        n, reduce_latency(graph_, device_, n, window, inner, result.trace),
        window.iteration, bound_seconds};
    // The stage's solver stats, and the rest of its account seconds: those
    // of the trace rows this run appended for it.
    for (std::size_t i = first_row; i < result.trace.size(); ++i) {
      result.solver_stats.merge(result.trace[i].stats);
      account.seconds += result.trace[i].seconds;
    }
    if (account.status == StageStatus::kCutShort) {
      cut_short = account;
      stopped_at = n + 1;
      break;
    }
    // The stage completed: commit it.
    state.stages.push_back(account);
    state.ilp_solves += account.solves;
    if (window.incumbent &&
        (!found ||
         window.incumbent->total_latency_ns < state.achieved_latency)) {
      state.achieved_latency = window.incumbent->total_latency_ns;
      state.best = std::move(window.incumbent);
      state.best_num_partitions = n;
      telemetry::publish_best_latency(state.achieved_latency, n);
    }
    state.in_progress.reset();
    ++state.next_n;
    write(/*force=*/true);
  }

  // A stage stopped on an uncertified verdict degrades the result even when
  // the sweep then terminated at its natural end of range.
  result.degraded =
      stopped_at > 0 ||
      std::any_of(state.stages.begin(), state.stages.end(),
                  [](const StageAccount& account) {
                    return account.status == StageStatus::kDegraded;
                  });
  if (!result.degraded) {
    // Natural termination: seal the state as a complete record of the
    // answer; resuming it reproduces the report without solving.
    state.complete = true;
    state.in_progress.reset();
  } else if (cut_short && !state.in_progress->incumbent) {
    state.in_progress.reset();  // nothing to re-enter: the stage re-runs
  }
  write(/*force=*/true);

  // The report: the committed state, plus the stage that did not finish
  // (its partial solves and anytime incumbent) and the bounds never started.
  static_cast<SweepOutcome&>(result) = state;
  if (cut_short) {
    result.stages.push_back(*cut_short);
    result.ilp_solves += cut_short->solves;
    if (state.in_progress) {
      const PartitionedDesign& anytime = *state.in_progress->incumbent;
      if (!result.best || anytime.total_latency_ns < result.achieved_latency) {
        result.best = anytime;
        result.achieved_latency = anytime.total_latency_ns;
        result.best_num_partitions = cut_short->num_partitions;
        telemetry::publish_best_latency(result.achieved_latency,
                                        result.best_num_partitions);
      }
    }
  }
  if (stopped_at > 0) {
    for (int skipped = stopped_at; skipped <= n_stop; ++skipped) {
      result.stages.push_back(
          StageAccount{skipped, StageStatus::kSkipped, 0, 0.0});
    }
  }
  result.feasible = result.best.has_value();
  telemetry::publish_degraded(result.degraded);
  telemetry::set_stage("done", result.best_num_partitions);
  if (result.best) {
    const DesignCheck check = validate_design(graph_, device_, *result.best);
    SPARCS_CHECK(check.ok, "partitioner returned an invalid design: " +
                               check.violation);
  }
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
