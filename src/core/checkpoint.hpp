// Crash-safe checkpoint/resume for the partition sweep.
//
// The paper's outer loops (Refine_Partitions_Bound over Reduce_Latency) are
// long-running searches whose only durable output used to be the final
// report: a crash or preemption at minute 59 lost everything. A
// SweepCheckpoint is the sweep's state itself, and a snapshot is that state
// written out: the completed partition bounds with their per-N accounts, the
// incumbent design and its latency Da (the carried upper bound and
// warm-start hint), and — while a Reduce_Latency bisection runs — its exact
// (d_max, d_min, iteration, incumbent) window, so resume continues the
// subdivision instead of re-probing from scratch. The state changes only
// when a stage completes; the report is that state plus the one stage that
// did not finish.
//
// Snapshots are sealed (CRC32 trailer, see support/atomic_file.hpp) and
// written atomically; a resume validates version, CRC and a fingerprint of
// the inputs (task graph, device, search tolerances, formulation), and the
// restored designs are re-validated against the graph and device before they
// are trusted. Any mismatch degrades to "reject with a diagnostic and start
// fresh" — a damaged checkpoint can cost time, never correctness.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "arch/device.hpp"
#include "core/formulation.hpp"
#include "core/refine_partitions.hpp"
#include "core/solution.hpp"
#include "graph/task_graph.hpp"

namespace sparcs::core {

/// Bump when the snapshot schema changes incompatibly; older files are
/// rejected with kVersionSkew (never reinterpreted).
inline constexpr int kCheckpointVersion = 2;

/// The partition sweep's own state (TemporalPartitioner::run keeps exactly
/// one): the outcome of every completed stage, where to go next and, while a
/// stage runs, its live window. A snapshot is this state as it stands;
/// `seconds` is the wall time up to that write, summed over resumed runs.
struct SweepCheckpoint : SweepOutcome {
  /// True only when the sweep reached natural termination: resuming a
  /// complete checkpoint reproduces the final report without solving.
  bool complete = false;
  /// The partition bound the sweep runs next: one past the last completed
  /// stage, or the stage `in_progress` belongs to.
  int next_n = 0;
  /// The window of stage `next_n` once it has an incumbent (it is written in
  /// the file's in_progress slot, with next_n as its num_partitions).
  /// Completed stages live in `stages`; this one is re-entered, not
  /// re-counted, on resume.
  std::optional<BisectionWindow> in_progress;
};

/// FNV-1a fingerprint of everything that determines the sweep's trajectory:
/// the task graph (tasks, design points, edges), the device capacities, the
/// search shape (alpha, gamma, delta, max_partitions) and the formulation's
/// path cap. Deliberately excludes time limits, deadlines and thread counts —
/// a resume may legitimately run with a new budget or on different hardware.
[[nodiscard]] std::uint64_t checkpoint_fingerprint(
    const graph::TaskGraph& graph, const arch::Device& device, int alpha,
    int gamma, double delta, int max_partitions,
    const FormulationOptions& formulation);

/// Renders the snapshot as one sealed JSON document (CRC32 trailer included)
/// ready for atomic writing.
[[nodiscard]] std::string serialize_checkpoint(const SweepCheckpoint& cp,
                                               std::uint64_t fingerprint);

enum class CheckpointLoadStatus : std::uint8_t {
  kOk,
  kMissing,              ///< file absent or unreadable
  kCorrupt,              ///< bad CRC, malformed JSON, or invalid contents
  kVersionSkew,          ///< written by an incompatible schema version
  kFingerprintMismatch,  ///< inputs differ from the run that wrote it
};

[[nodiscard]] const char* to_string(CheckpointLoadStatus status);

struct CheckpointLoadResult {
  CheckpointLoadStatus status = CheckpointLoadStatus::kCorrupt;
  SweepCheckpoint checkpoint;
  std::string error;  ///< diagnostic for non-kOk outcomes
};

/// Parses and fully validates a sealed snapshot: CRC, version, fingerprint,
/// schema, and every restored design re-checked against `graph`/`device`.
[[nodiscard]] CheckpointLoadResult parse_checkpoint(
    const std::string& sealed_text, std::uint64_t expected_fingerprint,
    const graph::TaskGraph& graph, const arch::Device& device);

/// parse_checkpoint over the contents of `path` (kMissing when unreadable).
[[nodiscard]] CheckpointLoadResult load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint,
    const graph::TaskGraph& graph, const arch::Device& device);

/// Serializes snapshots to one path with atomic writes and interval
/// throttling. Stage completions and terminal snapshots are written with
/// force=true and always land; mid-bisection snapshots pass force=false and
/// are skipped while the minimum interval has not elapsed. Thread-safe;
/// write failures are logged once per run and never abort the solve.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, double min_interval_sec,
                   std::uint64_t fingerprint);

  /// Returns true when a snapshot landed on disk (false: throttled or
  /// failed; see failed()).
  bool write(const SweepCheckpoint& cp, bool force);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int writes() const;
  [[nodiscard]] bool failed() const;

  /// Test hook: observes every snapshot that landed, after the write.
  void set_observer(std::function<void(const SweepCheckpoint&)> observer);

 private:
  std::string path_;
  double min_interval_sec_;
  std::uint64_t fingerprint_;
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point last_write_{};
  bool wrote_any_ = false;
  bool failed_ = false;
  int writes_ = 0;
  std::function<void(const SweepCheckpoint&)> observer_;
};

}  // namespace sparcs::core
