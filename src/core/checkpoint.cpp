#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/atomic_file.hpp"
#include "support/failpoint.hpp"
#include "support/json.hpp"
#include "support/report_writer.hpp"

namespace sparcs::core {
namespace {

constexpr const char* kFormatName = "sparcs-sweep-checkpoint";

// ---------------------------------------------------------------------------
// Fingerprint (FNV-1a 64 over the semantic inputs)

struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ull;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  }
  void mix(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void mix(double v) {
    // Bit pattern, not value: 0.0 vs -0.0 differ, NaN payloads differ — both
    // acceptable for an equality fingerprint of inputs we wrote ourselves.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex64(const std::string& text, std::uint64_t* out) {
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    v = v * 16 + digit;
  }
  *out = v;
  return true;
}

// ---------------------------------------------------------------------------
// Serialization

void write_design(report::ReportWriter& w, const std::string& key,
                  const PartitionedDesign& design) {
  w.begin_object(key);
  w.field("num_partitions_allocated", design.num_partitions_allocated);
  // Only the assignment is stored; latencies and eta are recomputed on load,
  // so a checkpoint can never smuggle in a latency the design does not have.
  w.begin_array("assignment");
  for (const TaskAssignment& a : design.assignment) {
    w.begin_array();
    w.element(static_cast<std::int64_t>(a.partition));
    w.element(static_cast<std::int64_t>(a.design_point));
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

// ---------------------------------------------------------------------------
// Parsing helpers. Each returns false and fills *error on the first problem;
// parse_checkpoint maps any failure to kCorrupt.

bool fail(std::string* error, const std::string& message) {
  *error = message;
  return false;
}

bool parse_design(const json::Value& v, const graph::TaskGraph& graph,
                  const arch::Device& device, const std::string& what,
                  PartitionedDesign* out, std::string* error) {
  if (!v.is_object()) return fail(error, what + ": not an object");
  const std::int64_t allocated = v.member_int("num_partitions_allocated", -1);
  if (allocated < 1 || allocated > 100000) {
    return fail(error, what + ": bad num_partitions_allocated");
  }
  const json::Value* assignment = v.find("assignment");
  if (assignment == nullptr || !assignment->is_array()) {
    return fail(error, what + ": missing assignment array");
  }
  if (static_cast<int>(assignment->array().size()) != graph.num_tasks()) {
    return fail(error, what + ": assignment covers " +
                           std::to_string(assignment->array().size()) +
                           " tasks, graph has " +
                           std::to_string(graph.num_tasks()));
  }
  PartitionedDesign design;
  design.num_partitions_allocated = static_cast<int>(allocated);
  design.assignment.reserve(assignment->array().size());
  for (std::size_t t = 0; t < assignment->array().size(); ++t) {
    const json::Value& pair = assignment->array()[t];
    if (!pair.is_array() || pair.array().size() != 2 ||
        !pair.array()[0].is_number() || !pair.array()[1].is_number()) {
      return fail(error, what + ": assignment entry " + std::to_string(t) +
                             " is not a [partition, design_point] pair");
    }
    TaskAssignment a;
    a.partition = static_cast<int>(pair.array()[0].as_int());
    a.design_point = static_cast<int>(pair.array()[1].as_int());
    const auto& points =
        graph.task(static_cast<graph::TaskId>(t)).design_points;
    if (a.partition < 1 || a.partition > design.num_partitions_allocated ||
        a.design_point < 0 ||
        a.design_point >= static_cast<int>(points.size())) {
      return fail(error, what + ": assignment entry " + std::to_string(t) +
                             " is out of range");
    }
    design.assignment.push_back(a);
  }
  recompute_latency(graph, device, design);
  const DesignCheck check = validate_design(graph, device, design);
  if (!check.ok) {
    return fail(error, what + ": restored design is invalid (" +
                           check.violation + ")");
  }
  *out = std::move(design);
  return true;
}

/// True when a stored latency is the restored design's own (recomputed)
/// latency; a disagreement means the file was edited or the writer was
/// broken — do not trust it.
bool matches_latency(double stored, const PartitionedDesign& design) {
  const double tolerance = 1e-6 * std::max(1.0, design.total_latency_ns);
  return stored >= design.total_latency_ns - tolerance &&
         stored <= design.total_latency_ns + tolerance;
}

bool parse_stage(const json::Value& v, StageAccount* out, std::string* error) {
  if (!v.is_object()) return fail(error, "stage entry is not an object");
  out->num_partitions = static_cast<int>(v.member_int("num_partitions", -1));
  out->solves = static_cast<int>(v.member_int("solves", -1));
  out->seconds = v.member_double("seconds", -1.0);
  const std::string status = v.member_string("status");
  // Only completed stages are committed: a cut-short stage lives in
  // in_progress, and skipped ones never reach the state.
  if (status == to_string(StageStatus::kProbed)) {
    out->status = StageStatus::kProbed;
  } else if (status == to_string(StageStatus::kDegraded)) {
    out->status = StageStatus::kDegraded;
  } else {
    return fail(error, "stage entry has status '" + status +
                           "', not a completed stage's");
  }
  if (out->num_partitions < 1 || out->solves < 0 || out->seconds < 0.0) {
    return fail(error, "stage entry for N=" +
                           std::to_string(out->num_partitions) +
                           " has out-of-range fields");
  }
  return true;
}

}  // namespace

std::uint64_t checkpoint_fingerprint(const graph::TaskGraph& graph,
                                     const arch::Device& device, int alpha,
                                     int gamma, double delta,
                                     int max_partitions,
                                     const FormulationOptions& formulation) {
  Fnv1a h;
  h.mix(graph.name());
  h.mix(graph.num_tasks());
  for (const graph::Task& task : graph.tasks()) {
    h.mix(task.name);
    h.mix(task.env_in);
    h.mix(task.env_out);
    h.mix(static_cast<std::uint64_t>(task.design_points.size()));
    for (const graph::DesignPoint& dp : task.design_points) {
      h.mix(dp.module_set);
      h.mix(dp.area);
      h.mix(dp.latency_ns);
    }
  }
  h.mix(graph.num_edges());
  for (const graph::DataEdge& e : graph.edges()) {
    h.mix(static_cast<int>(e.from));
    h.mix(static_cast<int>(e.to));
    h.mix(e.data_units);
  }
  h.mix(device.name);
  h.mix(device.resource_capacity);
  h.mix(device.memory_capacity);
  h.mix(device.reconfig_time_ns);
  h.mix(alpha);
  h.mix(gamma);
  h.mix(delta);
  h.mix(max_partitions);
  h.mix(static_cast<std::uint64_t>(formulation.max_paths));
  return h.hash;
}

std::string serialize_checkpoint(const SweepCheckpoint& cp,
                                 std::uint64_t fingerprint) {
  report::ReportWriter w;
  w.begin_object();
  w.field("format", kFormatName);
  w.field("version", kCheckpointVersion);
  w.field("fingerprint", hex64(fingerprint));
  w.field("complete", cp.complete);
  w.field("next_n", cp.next_n);
  w.field("achieved_latency_ns", cp.achieved_latency);
  w.field("best_num_partitions", cp.best_num_partitions);
  w.field("ilp_solves", cp.ilp_solves);
  w.field("seconds", cp.seconds);
  w.field("stopped_by_lower_bound", cp.stopped_by_lower_bound);
  if (cp.best.has_value()) {
    write_design(w, "best", *cp.best);
  } else {
    w.raw_field("best", "null");
  }
  w.begin_array("stages");
  for (const StageAccount& stage : cp.stages) {
    w.begin_object();
    w.field("num_partitions", stage.num_partitions);
    w.field("status", to_string(stage.status));
    w.field("solves", stage.solves);
    w.field("seconds", stage.seconds);
    w.end_object();
  }
  w.end_array();
  if (cp.in_progress.has_value()) {
    const BisectionWindow& window = *cp.in_progress;
    const PartitionedDesign& incumbent = window.incumbent.value();
    w.begin_object("in_progress");
    // The window is always stage next_n's; the slot is kept for the format.
    w.field("num_partitions", cp.next_n);
    w.field("d_max", window.d_max);
    w.field("d_min", window.d_min);
    w.field("iteration", window.iteration);
    // Redundant with the incumbent; written so the load can cross-check it.
    w.field("achieved_latency_ns", incumbent.total_latency_ns);
    write_design(w, "incumbent", incumbent);
    w.end_object();
  } else {
    w.raw_field("in_progress", "null");
  }
  w.end_object();
  return atomicfile::seal_json_with_crc(w.str());
}

const char* to_string(CheckpointLoadStatus status) {
  switch (status) {
    case CheckpointLoadStatus::kOk: return "ok";
    case CheckpointLoadStatus::kMissing: return "missing";
    case CheckpointLoadStatus::kCorrupt: return "corrupt";
    case CheckpointLoadStatus::kVersionSkew: return "version-skew";
    case CheckpointLoadStatus::kFingerprintMismatch:
      return "fingerprint-mismatch";
  }
  return "unknown";
}

CheckpointLoadResult parse_checkpoint(const std::string& sealed_text,
                                      std::uint64_t expected_fingerprint,
                                      const graph::TaskGraph& graph,
                                      const arch::Device& device) {
  CheckpointLoadResult result;
  result.status = CheckpointLoadStatus::kCorrupt;

  std::string seal_error;
  const std::optional<std::string> body =
      atomicfile::unseal_json_with_crc(sealed_text, &seal_error);
  if (!body.has_value()) {
    result.error = "checkpoint damaged: " + seal_error;
    return result;
  }
  const json::ParseResult parsed = json::parse(*body);
  if (!parsed.ok) {
    result.error = "checkpoint is not valid JSON: " + parsed.error;
    return result;
  }
  const json::Value& root = parsed.value;
  if (!root.is_object()) {
    result.error = "checkpoint root is not an object";
    return result;
  }
  if (root.member_string("format") != kFormatName) {
    result.error = "not a sweep checkpoint (format field mismatch)";
    return result;
  }
  const std::int64_t version = root.member_int("version", -1);
  if (version != kCheckpointVersion) {
    result.status = CheckpointLoadStatus::kVersionSkew;
    result.error = "checkpoint version " + std::to_string(version) +
                   " is not supported (this build reads version " +
                   std::to_string(kCheckpointVersion) + ")";
    return result;
  }
  std::uint64_t stored_fingerprint = 0;
  if (!parse_hex64(root.member_string("fingerprint"), &stored_fingerprint)) {
    result.error = "checkpoint fingerprint field is malformed";
    return result;
  }
  if (stored_fingerprint != expected_fingerprint) {
    result.status = CheckpointLoadStatus::kFingerprintMismatch;
    result.error =
        "checkpoint was written for different inputs (fingerprint " +
        hex64(stored_fingerprint) + ", this run is " +
        hex64(expected_fingerprint) +
        "); pass a different --checkpoint path or drop --resume";
    return result;
  }

  SweepCheckpoint cp;
  cp.complete = root.member_bool("complete", false);
  cp.next_n = static_cast<int>(root.member_int("next_n", -1));
  cp.achieved_latency = root.member_double("achieved_latency_ns", -1.0);
  cp.best_num_partitions =
      static_cast<int>(root.member_int("best_num_partitions", -1));
  cp.ilp_solves = static_cast<int>(root.member_int("ilp_solves", -1));
  cp.seconds = root.member_double("seconds", -1.0);
  cp.stopped_by_lower_bound =
      root.member_bool("stopped_by_lower_bound", false);
  if (cp.next_n < 0 || cp.achieved_latency < 0.0 ||
      cp.best_num_partitions < 0 || cp.ilp_solves < 0 || cp.seconds < 0.0) {
    result.error = "checkpoint counters are out of range";
    return result;
  }

  std::string error;
  const json::Value* best = root.find("best");
  if (best == nullptr) {
    result.error = "checkpoint is missing the best field";
    return result;
  }
  if (!best->is_null()) {
    PartitionedDesign design;
    if (!parse_design(*best, graph, device, "best design", &design, &error)) {
      result.error = error;
      return result;
    }
    if (!matches_latency(cp.achieved_latency, design)) {
      result.error = "checkpoint achieved latency does not match its design";
      return result;
    }
    if (cp.best_num_partitions < 1) {
      result.error = "checkpoint has a best design but no partition count";
      return result;
    }
    cp.best = std::move(design);
  } else if (cp.achieved_latency != 0.0 || cp.best_num_partitions != 0) {
    result.error = "checkpoint claims a latency without a best design";
    return result;
  }

  const json::Value* stages = root.find("stages");
  if (stages == nullptr || !stages->is_array()) {
    result.error = "checkpoint is missing the stages array";
    return result;
  }
  std::int64_t solves = 0;
  bool best_stage_listed = false;
  for (const json::Value& entry : stages->array()) {
    StageAccount stage;
    if (!parse_stage(entry, &stage, &error)) {
      result.error = error;
      return result;
    }
    // The sweep commits stages in N order, each before next_n moves past it.
    const int previous_n =
        cp.stages.empty() ? 0 : cp.stages.back().num_partitions;
    if (stage.num_partitions <= previous_n ||
        stage.num_partitions >= cp.next_n) {
      result.error = "checkpoint stages are not ascending below next_n";
      return result;
    }
    solves += stage.solves;
    best_stage_listed |= stage.num_partitions == cp.best_num_partitions;
    cp.stages.push_back(stage);
  }
  if (solves != cp.ilp_solves) {
    result.error = "checkpoint stage solves do not sum to ilp_solves";
    return result;
  }
  if (cp.best && !best_stage_listed) {
    result.error = "checkpoint best design comes from no committed stage";
    return result;
  }

  const json::Value* in_progress = root.find("in_progress");
  if (in_progress == nullptr) {
    result.error = "checkpoint is missing the in_progress field";
    return result;
  }
  if (!in_progress->is_null()) {
    if (cp.complete) {
      result.error = "complete checkpoint still carries in-progress state";
      return result;
    }
    BisectionWindow window;
    const int num_partitions =
        static_cast<int>(in_progress->member_int("num_partitions", -1));
    window.d_max = in_progress->member_double("d_max", -1.0);
    window.d_min = in_progress->member_double("d_min", -1.0);
    window.iteration =
        static_cast<int>(in_progress->member_int("iteration", -1));
    const json::Value* incumbent = in_progress->find("incumbent");
    PartitionedDesign& design = window.incumbent.emplace();
    if (incumbent == nullptr ||
        !parse_design(*incumbent, graph, device, "in-progress incumbent",
                      &design, &error)) {
      result.error = error.empty()
                         ? "in-progress state is missing its incumbent"
                         : error;
      return result;
    }
    if (num_partitions < 1 || window.iteration < 0 || window.d_min < 0.0 ||
        window.d_max < window.d_min ||
        design.num_partitions_allocated != num_partitions) {
      result.error = "in-progress window state is out of range";
      return result;
    }
    if (!matches_latency(
            in_progress->member_double("achieved_latency_ns", -1.0),
            design)) {
      result.error =
          "checkpoint in-progress latency does not match its incumbent";
      return result;
    }
    if (num_partitions != cp.next_n) {
      // The writer always snapshots the stage it declared as next; a
      // disagreement means the two halves come from different writes.
      result.error = "in-progress stage does not match the sweep position";
      return result;
    }
    cp.in_progress = std::move(window);
  }

  result.status = CheckpointLoadStatus::kOk;
  result.checkpoint = std::move(cp);
  return result;
}

CheckpointLoadResult load_checkpoint(const std::string& path,
                                     std::uint64_t expected_fingerprint,
                                     const graph::TaskGraph& graph,
                                     const arch::Device& device) {
  const std::optional<std::string> text = atomicfile::read_file(path);
  if (!text.has_value()) {
    CheckpointLoadResult result;
    result.status = CheckpointLoadStatus::kMissing;
    result.error = "cannot read checkpoint file: " + path;
    return result;
  }
  return parse_checkpoint(*text, expected_fingerprint, graph, device);
}

CheckpointWriter::CheckpointWriter(std::string path, double min_interval_sec,
                                   std::uint64_t fingerprint)
    : path_(std::move(path)),
      min_interval_sec_(min_interval_sec),
      fingerprint_(fingerprint) {}

bool CheckpointWriter::write(const SweepCheckpoint& cp, bool force) {
  std::function<void(const SweepCheckpoint&)> observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    if (!force && wrote_any_) {
      const double elapsed =
          std::chrono::duration<double>(now - last_write_).count();
      if (elapsed < min_interval_sec_) return false;
    }
    const std::string doc = serialize_checkpoint(cp, fingerprint_);
    std::string error;
    if (!atomicfile::write_file_atomic(path_, doc, &error)) {
      if (!failed_) {
        std::fprintf(stderr, "sparcs: warning: checkpoint write failed: %s\n",
                     error.c_str());
      }
      failed_ = true;
      return false;
    }
    wrote_any_ = true;
    last_write_ = now;
    ++writes_;
    observer = observer_;
  }
  // Crash site for the recovery suite: the snapshot above is durable, the
  // process dies before doing anything else — the worst-possible crash point
  // a resume must survive.
  if (SPARCS_FAILPOINT("core.checkpoint.crash_after_write")) {
    std::_Exit(70);
  }
  if (observer) observer(cp);
  return true;
}

int CheckpointWriter::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

bool CheckpointWriter::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void CheckpointWriter::set_observer(
    std::function<void(const SweepCheckpoint&)> observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

}  // namespace sparcs::core
