// Wire protocol of the solve service (src/service/server.hpp): newline-
// delimited JSON over a SOCK_STREAM unix socket. Each request is one JSON
// object on one line; the server answers every request with exactly one JSON
// object on one line, in order, so clients can pipeline.
//
// Request grammar (fields not listed for an op are ignored):
//
//   {"op":"submit", "workload":"ar"|"dct"|"ewf" | "graph_text":"<.tg text>",
//    "priority":INT, "detach":BOOL, "options":{
//        <the solve options of for_each_solve_option, by key>,
//        "est_memory_mb":NUM}}
//   {"op":"status",  "job":"job-N"}
//   {"op":"result",  "job":"job-N", "wait":BOOL}
//   {"op":"cancel",  "job":"job-N"}
//   {"op":"list"}
//   {"op":"shutdown"}
//
// Responses always carry "ok" and echo "op". Success responses add op-
// specific fields (see server.cpp): status and each list entry summarize a
// terminal job's report (exit_code, feasible, degraded, uncertified,
// latency_ns, num_partitions, ilp_solves), and result adds the report
// itself as "report"; failures look like
//   {"ok":false,"op":...,"error":{"code":"...","message":"..."}}
// with machine-readable codes: parse_error, bad_request, unknown_job,
// queue_full, memory_limit, not_finished, shutting_down.
//
// Jobs are owned by the submitting connection by default: if that connection
// closes before the job reaches a terminal state, the job is cancelled
// ("detach":true opts out). This is what makes a client crash mid-solve
// reclaim the worker instead of leaking it.
#pragma once

#include <optional>
#include <string>

namespace sparcs::service {

/// One solve request: what the one-shot CLI runs and what a submit queues.
/// Defaults match the one-shot CLI except threads (1: service workers
/// already provide the parallelism; the command line starts from 0).
struct SubmitRequest {
  std::string workload;    ///< builtin workload name; exclusive with graph_text
  std::string graph_text;  ///< inline .tg document; exclusive with workload
  int priority = 0;        ///< higher runs first; FIFO within a priority
  bool detach = false;     ///< survive the submitting connection's close
  std::optional<double> rmax, mmax, ct;  ///< device overrides
  double delta = 0.0;  ///< latency tolerance; 0 = 2% of MaxLatency
  int alpha = 0;
  int gamma = 1;
  double time_limit_sec = 10.0;
  double deadline_sec = 0.0;  ///< whole-job wall deadline; 0 = none
  int threads = 1;  ///< solver threads per job (0 = front door's default)
  std::string certify = "off";
  double est_memory_mb = 0.0;  ///< admission estimate override; 0 = derive
};

/// How a range-check message names an option: "--delta" or "options.delta".
enum class OptionSpelling { kFlag, kJsonKey };

/// The values a solve option may take. kPositiveOrNone is a duration whose
/// 0 in a request means none; a flag must give a positive value instead.
enum class OptionRange { kAny, kNonNegative, kPositive, kPositiveOrNone };

/// Calls f(flag, key, field, range) on each of the ten solve options of
/// `request` (const or not), in serialization order: the one place that names
/// them. certify, the one string, must name a certify mode; the optional
/// device overrides are checked by resolve_job.
template <typename Request, typename F>
void for_each_solve_option(Request& request, F&& f) {
  f("--rmax", "rmax", request.rmax, OptionRange::kAny);
  f("--mmax", "mmax", request.mmax, OptionRange::kAny);
  f("--ct", "ct", request.ct, OptionRange::kAny);
  f("--delta", "delta", request.delta, OptionRange::kNonNegative);
  f("--alpha", "alpha", request.alpha, OptionRange::kNonNegative);
  f("--gamma", "gamma", request.gamma, OptionRange::kNonNegative);
  f("--time-limit", "time_limit_sec", request.time_limit_sec,
    OptionRange::kPositive);
  f("--deadline-sec", "deadline_sec", request.deadline_sec,
    OptionRange::kPositiveOrNone);
  f("--threads", "threads", request.threads, OptionRange::kNonNegative);
  f("--certify", "certify", request.certify, OptionRange::kAny);
}

/// The range check of the solve options: "" when all of them are in range,
/// else the first violation, naming the option as `spelling` says.
[[nodiscard]] std::string check_solve_options(const SubmitRequest& request,
                                              OptionSpelling spelling);

/// One decoded request line.
struct Request {
  std::string op;  ///< submit | status | result | cancel | list | shutdown
  std::string job;
  bool wait = false;  ///< result: block until the job reaches a terminal state
  SubmitRequest submit;
};

/// Decodes one request line. Returns false with a diagnostic in *error on
/// malformed JSON, an unknown op, or field validation failure, and the code
/// of the error response in *code (when given): parse_error for a line that
/// is not a well-formed request, bad_request for a value of the wrong JSON
/// type or out of range, naming its key. The server answers with that
/// response instead of closing. A field the line does not name is left at
/// its default.
[[nodiscard]] bool parse_request(const std::string& line, Request* out,
                                 std::string* error,
                                 std::string* code = nullptr);

/// Encodes a request as one line (no trailing newline); the inverse of
/// parse_request, used by the client library and tests.
[[nodiscard]] std::string serialize_request(const Request& request);

/// Renders the uniform failure response line (no trailing newline).
[[nodiscard]] std::string error_response(const std::string& op,
                                         const std::string& code,
                                         const std::string& message);

}  // namespace sparcs::service
