#include "cli/app.hpp"

#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "arch/device.hpp"
#include "core/partitioner.hpp"
#include "io/csv.hpp"
#include "io/dot.hpp"
#include "io/table.hpp"
#include "milp/types.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/executor.hpp"
#include "support/json.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/observer.hpp"
#include "support/span.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace sparcs::cli {
namespace {

/// Parses a numeric flag value strictly: the whole string must be a number of
/// type T in range, and a floating-point value must be finite. Anything else
/// ("abc", "50abc", "2.5" for an int, "1e999", "nan") is bad input (exit 4)
/// naming the flag.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T number{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, number);
  bool ok = ec == std::errc() && end == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(number);
  require_input(ok, flag + " needs " +
                        (std::is_floating_point_v<T> ? "a finite number"
                                                     : "an integer") +
                        ", got '" + text + "'");
  return number;
}

/// The graph and solve flags of a one-shot run or a submit. threads starts at
/// 0, the front door's default: every hardware thread for a one-shot run, the
/// daemon's --serve-threads-per-job for a submit.
struct SolveArguments {
  SolveArguments() { request.threads = 0; }
  service::SubmitRequest request;
  std::string input_file;  ///< read into graph_text by to_request()

  /// Parses args[*i] (and its value, advancing *i) if it is a solve flag,
  /// --workload or the graph file; false for any other option. Ranges are
  /// left to check_solve_options, so a client passes them to the daemon.
  bool parse(const std::vector<std::string>& args, std::size_t* i) {
    const std::string& arg = args[*i];
    auto value = [&]() -> const std::string& {
      require_input(*i + 1 < args.size(), arg + " needs a value");
      return args[++*i];
    };
    bool matched = false;
    service::for_each_solve_option(request, [&](std::string_view name,
                                                 std::string_view, auto& field,
                                                 service::OptionRange range) {
      using T = std::remove_cvref_t<decltype(field)>;
      const std::string flag(name);
      // --certify also takes its mode as --certify=MODE.
      const bool joined =
          std::is_same_v<T, std::string> && starts_with(arg, flag + "=");
      if (matched || (arg != flag && !joined)) return;
      matched = true;
      const std::string text = joined ? arg.substr(flag.size() + 1) : value();
      if constexpr (std::is_same_v<T, std::string>) {
        const auto mode = milp::parse_certify_mode(text);
        if (!mode) {
          throw InvalidArgumentError("unknown --certify mode '" + text +
                                     "' (expected off, incumbents or full)");
        }
        field = milp::to_string(*mode);
      } else {
        field = parse_number<std::conditional_t<std::is_same_v<T, int>, int,
                                                double>>(flag, text);
        if (range == service::OptionRange::kPositiveOrNone && field == 0) {
          throw InvalidArgumentError(flag +
                                     " must be > 0 (leave it out for none)");
        }
      }
    });
    if (matched) return true;
    if (arg == "--workload") {
      request.workload = value();
      return true;
    }
    if (!arg.empty() && arg[0] == '-') return false;
    require_input(input_file.empty(), "multiple input files given");
    input_file = arg;
    return true;
  }

  [[nodiscard]] service::SubmitRequest to_request() const {
    service::SubmitRequest resolved = request;
    if (!input_file.empty()) {
      std::ifstream file(input_file);
      require_input(file.good(), "cannot open " + input_file);
      std::ostringstream text;
      text << file.rdbuf();
      resolved.graph_text = text.str();
    }
    return resolved;
  }
};

struct Arguments {
  SolveArguments solve;
  bool optimal = false;
  bool simulate = false;
  bool quiet = false;
  std::optional<LogLevel> log_level;
  std::string dot_file;
  std::string csv_file;
  std::string metrics_json_file;
  std::string trace_json_file;
  std::string report_json_file;
  std::string telemetry_jsonl_file;
  double telemetry_interval_ms = 200.0;
  bool progress = false;
  std::string search_tree_json_file;
  std::string search_tree_dot_file;
  std::string log_json_file;
  std::string checkpoint_file;
  double checkpoint_interval_sec = 5.0;
  bool resume = false;
};

// ---------------------------------------------------------------------------
// Graceful preemption. SIGINT/SIGTERM flip an atomic flag and trip the run's
// cancellation token — both async-signal-safe relaxed stores — so the solve
// unwinds cooperatively through the same anytime-degradation path a deadline
// uses: destructors run, the final checkpoint and telemetry records land,
// and the process reports exit code 5 instead of dying mid-write.

std::atomic<bool> g_preempted{false};
std::atomic<int> g_signal{0};
milp::CancelToken g_signal_token;  // NOLINT: reassigned per run()
/// Held by each SignalGuard: the handlers and the token they trip are
/// process-wide, so in-process runs (tests, embedders) take turns.
std::mutex g_signal_mutex;

void handle_preempt_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  g_preempted.store(true, std::memory_order_relaxed);
  g_signal_token.request_cancel();
}

/// Installs the preemption handlers for the duration of one run() and
/// restores default dispositions afterwards, so embedding processes (tests)
/// keep their own signal behavior outside the run. Concurrent guards wait
/// for each other.
class SignalGuard {
 public:
  explicit SignalGuard(milp::CancelToken token) : lock_(g_signal_mutex) {
    g_signal_token = std::move(token);
    g_preempted.store(false, std::memory_order_relaxed);
    g_signal.store(0, std::memory_order_relaxed);
    previous_int_ = std::signal(SIGINT, handle_preempt_signal);
    previous_term_ = std::signal(SIGTERM, handle_preempt_signal);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;
  ~SignalGuard() {
    std::signal(SIGINT, previous_int_);
    std::signal(SIGTERM, previous_term_);
  }

  [[nodiscard]] static bool preempted() {
    return g_preempted.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static const char* signal_name() {
    return g_signal.load(std::memory_order_relaxed) == SIGTERM ? "SIGTERM"
                                                               : "SIGINT";
  }

 private:
  std::lock_guard<std::mutex> lock_;
  void (*previous_int_)(int) = SIG_DFL;
  void (*previous_term_)(int) = SIG_DFL;
};

/// Lands one artifact atomically (temp + fsync + rename). Failures are a
/// warning, not an abort — the run's result has already been computed and
/// printed — but they surface in the exit code (6) when the run was
/// otherwise clean, so scripts cannot mistake a half-written artifact set
/// for success.
bool write_artifact(const std::string& path, std::string_view contents,
                    const char* what, std::ostream& out, std::ostream& err) {
  std::string error;
  if (!atomicfile::write_file_atomic(path, contents, &error)) {
    err << "warning: cannot write " << what << " to " << path << ": " << error
        << "\n";
    return false;
  }
  out << "wrote " << path << "\n";
  return true;
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warning") return LogLevel::kWarning;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  throw InvalidArgumentError("unknown log level '" + name +
                             "' (expected debug, info, warning, error or off)");
}

Arguments parse_args(const std::vector<std::string>& args) {
  Arguments parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const std::string& {
      require_input(i + 1 < args.size(), arg + " needs a value");
      return args[++i];
    };
    if (arg == "--optimal") {
      parsed.optimal = true;
    } else if (arg == "--simulate") {
      parsed.simulate = true;
    } else if (arg == "--quiet") {
      parsed.quiet = true;
    } else if (arg == "--log-level") {
      parsed.log_level = parse_log_level(value());
    } else if (arg == "--dot") {
      parsed.dot_file = value();
    } else if (arg == "--csv") {
      parsed.csv_file = value();
    } else if (arg == "--metrics-json") {
      parsed.metrics_json_file = value();
    } else if (arg == "--trace-json") {
      parsed.trace_json_file = value();
    } else if (arg == "--report-json") {
      parsed.report_json_file = value();
    } else if (arg == "--telemetry-jsonl") {
      parsed.telemetry_jsonl_file = value();
    } else if (arg == "--telemetry-interval-ms") {
      parsed.telemetry_interval_ms = parse_number<double>(arg, value());
      require_input(parsed.telemetry_interval_ms > 0.0,
                    "--telemetry-interval-ms must be > 0");
    } else if (arg == "--progress") {
      parsed.progress = true;
    } else if (arg == "--search-tree-json") {
      parsed.search_tree_json_file = value();
    } else if (arg == "--search-tree-dot") {
      parsed.search_tree_dot_file = value();
    } else if (arg == "--log-json") {
      parsed.log_json_file = value();
    } else if (arg == "--checkpoint") {
      parsed.checkpoint_file = value();
    } else if (arg == "--checkpoint-interval-sec") {
      parsed.checkpoint_interval_sec = parse_number<double>(arg, value());
      require_input(parsed.checkpoint_interval_sec >= 0.0,
                    "--checkpoint-interval-sec must be >= 0");
    } else if (arg == "--resume") {
      parsed.resume = true;
    } else if (!parsed.solve.parse(args, &i)) {
      throw InvalidArgumentError("unknown option " + arg);
    }
  }
  require_input(
      parsed.solve.input_file.empty() != parsed.solve.request.workload.empty(),
      "give exactly one of <graph.tg> or --workload");
  require_input(!parsed.resume || !parsed.checkpoint_file.empty(),
                "--resume needs --checkpoint FILE to resume from");
  const std::string violation = service::check_solve_options(
      parsed.solve.request, service::OptionSpelling::kFlag);
  if (!violation.empty()) throw InvalidArgumentError(violation);
  return parsed;
}

/// The run's observer (support/observer.hpp), bound to the calling thread
/// for the duration of one `run()`: it collects what the flags ask for
/// (metrics registry, trace spans, telemetry sampler, search tree, JSON log)
/// and finalize() lands each as its artifact file (called explicitly so a
/// write failure can drive the exit code; the destructor finalizes as a
/// backstop when an exception unwinds past it).
class ObservabilityGuard {
 public:
  ObservabilityGuard(const Arguments& parsed, std::ostream& out,
                     std::ostream& err)
      : metrics_file_(parsed.metrics_json_file),
        trace_file_(parsed.trace_json_file),
        telemetry_file_(parsed.telemetry_jsonl_file),
        tree_json_file_(parsed.search_tree_json_file),
        tree_dot_file_(parsed.search_tree_dot_file),
        log_json_file_(parsed.log_json_file),
        out_(out),
        err_(err),
        observer_(options(parsed)),
        bind_(&observer_) {}
  ObservabilityGuard(const ObservabilityGuard&) = delete;
  ObservabilityGuard& operator=(const ObservabilityGuard&) = delete;
  ~ObservabilityGuard() { finalize(); }

  /// Writes one telemetry sample now, when the run is sampled.
  void sample(const char* trigger) {
    if (observer_.sampler() != nullptr) observer_.sampler()->sample(trigger);
  }

  /// Stops the collectors and lands every requested artifact atomically.
  /// Idempotent; returns false if any artifact failed to land (including a
  /// telemetry/log JSONL stream that went bad mid-run). The JSONL sinks are
  /// flushed after the sampler stops, so --telemetry-jsonl files end with
  /// the well-formed `final` record even on preemption or degradation.
  bool finalize() {
    if (finalized_) return finalize_ok_;
    finalized_ = true;
    bool ok = true;
    if (observer_.sampler() != nullptr) {
      observer_.sampler()->stop();
      if (!telemetry_file_.empty()) {
        telemetry_os_.flush();
        if (telemetry_os_.good()) {
          out_ << "wrote " << telemetry_file_ << "\n";
        } else {
          err_ << "warning: telemetry stream to " << telemetry_file_
               << " failed\n";
          ok = false;
        }
      }
    }
    if (!metrics_file_.empty()) {
      ok &= write_artifact(metrics_file_,
                           observer_.metrics()->snapshot().to_json() + "\n",
                           "metrics", out_, err_);
    }
    if (!trace_file_.empty()) {
      std::ostringstream os;
      observer_.spans()->write_chrome_json(os);
      os << "\n";
      ok &= write_artifact(trace_file_, os.str(), "trace", out_, err_);
    }
    if (!tree_json_file_.empty()) {
      std::ostringstream os;
      observer_.tree()->write_json(os);
      ok &= write_artifact(tree_json_file_, os.str(), "search tree", out_,
                           err_);
    }
    if (!tree_dot_file_.empty()) {
      std::ostringstream os;
      observer_.tree()->write_dot(os);
      ok &= write_artifact(tree_dot_file_, os.str(), "search tree", out_,
                           err_);
    }
    if (!log_json_file_.empty()) {
      log_json_os_.flush();
      if (!log_json_os_.good()) {
        err_ << "warning: JSON log stream to " << log_json_file_
             << " failed\n";
        ok = false;
      }
    }
    finalize_ok_ = ok;
    return ok;
  }

 private:
  /// Opens the JSONL streams and says what the observer collects. The
  /// telemetry samples embed a metrics snapshot, so --telemetry-jsonl turns
  /// collection on even without --metrics-json (which controls only whether
  /// the end-of-run snapshot file is written).
  Observer::Options options(const Arguments& parsed) {
    Observer::Options options;
    options.metrics = !metrics_file_.empty() || !telemetry_file_.empty();
    options.spans = !trace_file_.empty();
    options.tree = !tree_json_file_.empty() || !tree_dot_file_.empty();
    if (!log_json_file_.empty()) {
      log_json_os_.open(log_json_file_);
      if (log_json_os_.good()) {
        options.log_json = &log_json_os_;
      } else {
        SPARCS_ELOG << "cannot write JSON logs to " << log_json_file_;
        log_json_file_.clear();
      }
    }
    if (!telemetry_file_.empty() || parsed.progress) {
      // --progress without --telemetry-jsonl still runs the sampler (it
      // drives the progress line); records go to an in-memory discard
      // buffer, bounded by the CLI run's lifetime.
      options.telemetry = &discard_;
      if (!telemetry_file_.empty()) {
        telemetry_os_.open(telemetry_file_);
        if (telemetry_os_.good()) {
          options.telemetry = &telemetry_os_;
        } else {
          SPARCS_ELOG << "cannot write telemetry to " << telemetry_file_;
          telemetry_file_.clear();
        }
      }
      options.progress = parsed.progress ? &err_ : nullptr;
      options.sample_interval_sec = parsed.telemetry_interval_ms / 1000.0;
    }
    return options;
  }

  std::string metrics_file_;
  std::string trace_file_;
  std::string telemetry_file_;
  std::string tree_json_file_;
  std::string tree_dot_file_;
  std::string log_json_file_;
  std::ostream& out_;
  std::ostream& err_;
  std::ofstream telemetry_os_;
  std::ofstream log_json_os_;
  std::ostringstream discard_;
  Observer observer_;
  ObserverScope bind_;
  bool finalized_ = false;
  bool finalize_ok_ = true;
};

// ---------------------------------------------------------------------------
// Solve service: daemon mode (--serve) and the client verbs.
// ---------------------------------------------------------------------------

int run_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  service::ServerOptions options;
  bool quiet = false;
  std::optional<LogLevel> level;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const std::string& {
      require_input(i + 1 < args.size(), arg + " needs a value");
      return args[++i];
    };
    if (arg == "--serve") {
      options.socket_path = value();
    } else if (arg == "--serve-workers") {
      options.num_workers = parse_number<int>(arg, value());
      require_input(options.num_workers >= 0, "--serve-workers must be >= 0");
    } else if (arg == "--serve-queue-depth") {
      options.max_queue_depth = parse_number<int>(arg, value());
      require_input(options.max_queue_depth > 0,
                    "--serve-queue-depth must be > 0");
    } else if (arg == "--serve-memory-mb") {
      options.max_est_memory_mb = parse_number<double>(arg, value());
      require_input(options.max_est_memory_mb > 0.0,
                    "--serve-memory-mb must be > 0");
    } else if (arg == "--serve-artifact-dir") {
      options.artifact_dir = value();
    } else if (arg == "--serve-threads-per-job") {
      options.threads_per_job = parse_number<int>(arg, value());
      require_input(options.threads_per_job >= 0,
                    "--serve-threads-per-job must be >= 0");
    } else if (arg == "--log-level") {
      level = parse_log_level(value());
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      throw InvalidArgumentError("unknown --serve option " + arg);
    }
  }
  require_input(!options.socket_path.empty(), "--serve needs a socket path");
  // The daemon defaults to kInfo: job lifecycle messages are its primary
  // human-facing output (clients get JSON responses, not this stream).
  set_log_level(level.value_or(quiet ? LogLevel::kError : LogLevel::kInfo));
  options.stop = milp::CancelToken::create();

  // SIGINT/SIGTERM trip the server's stop token: the accept loop notices,
  // preempts in-flight jobs through their cancel tokens (running sweeps land
  // their reports on the way out) and returns cleanly.
  SignalGuard signals(options.stop);
  out << "serving on " << options.socket_path << "\n";
  service::Server server(std::move(options));
  const int code = server.serve();
  if (SignalGuard::preempted()) {
    err << "shut down by " << SignalGuard::signal_name()
        << ": in-flight jobs preempted, artifacts flushed\n";
  }
  return code;
}

bool is_client_verb(const std::string& arg) {
  return arg == "submit" || arg == "status" || arg == "result" ||
         arg == "cancel" || arg == "list" || arg == "shutdown";
}

struct ClientArguments {
  std::string verb;
  std::string socket_path;
  std::string job;
  bool wait = false;
  SolveArguments submit;
};

ClientArguments parse_client_args(const std::vector<std::string>& args) {
  ClientArguments parsed;
  parsed.verb = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const std::string& {
      require_input(i + 1 < args.size(), arg + " needs a value");
      return args[++i];
    };
    if (arg == "--socket") {
      parsed.socket_path = value();
    } else if (arg == "--job") {
      parsed.job = value();
    } else if (arg == "--wait") {
      parsed.wait = true;
    } else if (arg == "--priority") {
      parsed.submit.request.priority = parse_number<int>(arg, value());
    } else if (arg == "--detach") {
      parsed.submit.request.detach = true;
    } else if (arg == "--est-memory-mb") {
      parsed.submit.request.est_memory_mb = parse_number<double>(arg, value());
    } else if (!parsed.submit.parse(args, &i)) {
      throw InvalidArgumentError("unknown " + parsed.verb + " option " + arg);
    }
  }
  require_input(!parsed.socket_path.empty(),
                parsed.verb + " needs --socket PATH");
  const int graphs = !parsed.submit.input_file.empty() +
                     !parsed.submit.request.workload.empty();
  if (parsed.verb == "submit") {
    require_input(graphs == 1,
                  "submit needs exactly one of <graph.tg> or --workload");
  } else {
    require_input(graphs == 0, parsed.verb + " takes no graph argument");
  }
  if (parsed.verb == "status" || parsed.verb == "result" ||
      parsed.verb == "cancel") {
    require_input(!parsed.job.empty(), parsed.verb + " needs --job ID");
  }
  return parsed;
}

/// Maps one response line to a process exit code: admission rejections get
/// their own code (8) so scripts can distinguish backpressure from a bad
/// request, and a terminal job result carries the exit code the equivalent
/// one-shot run would have returned.
int client_exit_code(const json::Value& response) {
  if (!response.member_bool("ok")) {
    const json::Value* error = response.find("error");
    const std::string code =
        error != nullptr ? error->member_string("code") : "";
    if (code == "queue_full" || code == "memory_limit" ||
        code == "shutting_down") {
      return 8;
    }
    return 4;
  }
  const json::Value* exit_code = response.find("exit_code");
  if (exit_code != nullptr) return static_cast<int>(exit_code->as_int());
  return 0;
}

int run_client(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  const ClientArguments parsed = parse_client_args(args);
  set_log_level(LogLevel::kWarning);

  service::Request request;
  request.op = parsed.verb;
  request.job = parsed.job;
  request.wait = parsed.wait && parsed.verb == "result";
  if (parsed.verb == "submit") request.submit = parsed.submit.to_request();

  // submit --wait blocks on the same connection for the job's terminal
  // result and prints it as a second response line, so one command covers
  // the submit-then-collect loop (and keeps the connection open — closing
  // it would cancel the job we are waiting on).
  service::Client client(parsed.socket_path);
  for (;;) {
    const std::string line = client.call(request);
    out << line << "\n";
    const json::ParseResult response = json::parse(line);
    if (!response.ok) {
      err << "error: malformed response from the service: " << response.error
          << "\n";
      return 4;
    }
    if (request.op != "submit" || !parsed.wait ||
        !response.value.member_bool("ok")) {
      return client_exit_code(response.value);
    }
    request = {.op = "result",
               .job = response.value.member_string("job"),
               .wait = true,
               .submit = {}};
  }
}

}  // namespace

std::string usage() {
  return R"(usage: sparcs-tp <graph.tg> [options]
       sparcs-tp --workload {ar|dct|ewf} [options]
       sparcs-tp --serve SOCKET [service options]
       sparcs-tp {submit|status|result|cancel|list|shutdown} --socket SOCKET
                 [client options]

options:
  --rmax R --mmax M --ct CT  device parameters (override the file's device)
  --delta D                  latency tolerance in ns, >= 0 (0, the default:
                             2% of MaxLatency)
  --alpha A / --gamma G      partition relaxations (defaults 0 / 1)
  --time-limit S             per-ILP-solve wall budget (default 10 s)
  --deadline-sec S           wall-clock deadline for the whole run (> 0,
                             capped at 1e9 s); on expiry the best incumbent
                             so far is returned with a degraded report (exit
                             code 3)
  --threads T                solver worker threads, at most one per hardware
                             thread (0 = all of them, 1 = one worker and no
                             extra thread; default 0)
  --certify MODE             exact-rational certificate checking of solver
                             verdicts: off (default), incumbents (every
                             reported design re-checked exactly), full
                             (incumbents plus Farkas/propagation proofs for
                             every infeasible verdict). A failed check
                             triggers one distrust re-solve; a verdict still
                             uncertified afterwards degrades the run
                             conservatively and exits with code 7
  --optimal                  also run the optimal-ILP reference
  --simulate                 simulate the best design (Gantt-style report)
  --dot FILE / --csv FILE    export the design / the iteration trace
  --metrics-json FILE        write a metrics snapshot (counters/gauges/timers)
  --trace-json FILE          write Chrome trace-event JSON (chrome://tracing)
  --report-json FILE         write the partitioner report as JSON
  --telemetry-jsonl FILE     stream live telemetry samples as JSON Lines: one
                             record per sampling interval, stage transition
                             and incumbent improvement (plus start/final)
  --telemetry-interval-ms N  sampling period for --telemetry-jsonl/--progress
                             (default 200)
  --progress                 rewrite a one-line live status report on stderr
                             (stage, N, incumbent, solves, elapsed)
  --search-tree-json FILE    dump the recorded branch & bound search tree as
                             JSON (ring-buffered; schema in DESIGN.md)
  --search-tree-dot FILE     dump the search tree as Graphviz DOT
  --log-json FILE            mirror every log statement as a JSON Lines
                             record carrying the solve correlation id
  --checkpoint FILE          maintain a crash-safe sweep checkpoint (atomic
                             rename, CRC-sealed JSON): rewritten after every
                             completed partition bound and, rate-limited by
                             --checkpoint-interval-sec, after bisection steps
  --checkpoint-interval-sec S
                             minimum seconds between mid-stage checkpoint
                             writes (default 5; stage completions always
                             write immediately)
  --resume                   resume from --checkpoint FILE: finished bounds
                             are not re-solved and an interrupted bisection
                             continues from its saved window. A checkpoint
                             written for different inputs (or a damaged one)
                             is rejected with a warning and the run starts
                             fresh; a missing file also starts fresh
  --log-level L              debug|info|warning|error|off (default: warning)
  --quiet                    shorthand for --log-level error; also suppresses
                             the iteration trace table (the --*-json files are
                             still written)

service (daemon):
  --serve SOCKET             run as a persistent solve service on a unix
                             socket: line-delimited JSON requests (submit,
                             status, result, cancel, list, shutdown), a
                             bounded priority job queue with admission
                             control, and a shared solver worker pool
  --serve-workers N          concurrent solver workers (default 2)
  --serve-queue-depth N      max queued jobs before submits are rejected
                             with queue_full (default 16)
  --serve-memory-mb X        summed per-job memory-estimate ceiling before
                             submits are rejected with memory_limit
                             (default 4096)
  --serve-artifact-dir DIR   land per-job artifacts here (<job>.report.json,
                             <job>.logs.jsonl); omit to keep results in
                             memory only
  --serve-threads-per-job N  default solver threads per job (default 1)

service (client verbs; all print the raw JSON response to stdout):
  submit {<graph.tg>|--workload W} [--priority N] [--detach] [--wait]
         [--est-memory-mb X] [the solve options above]
                             queue one job; --wait blocks for its terminal
                             result (a second response line) and exits with
                             the job's one-shot-equivalent exit code; without
                             --detach, closing the connection cancels the job
  status --job ID            one job's live state
  result --job ID [--wait]   a terminal job's full report
  cancel --job ID            cancel a queued or running job
  list                       queue depth, running jobs, admission headroom
  shutdown                   graceful daemon shutdown (queued jobs cancel;
                             running jobs preempt and land their reports)

signals:
  SIGINT/SIGTERM preempt the run gracefully: the in-flight solve cancels
  cooperatively, the best incumbent so far is reported, and the final
  checkpoint plus all artifact files are flushed before exiting with code 5.
  A daemon (--serve) shuts down the same way: queued jobs cancel, running
  jobs preempt and land their artifacts, then the socket is unlinked.

exit codes:
  0  success (converged result)
  2  no feasible partitioning in the explored range
  3  degraded: the time budget or --deadline-sec expired before the sweep
     finished (any printed result is the best incumbent so far)
  4  bad input: unusable arguments or a malformed graph file
  5  preempted by SIGINT/SIGTERM (state flushed; rerun with --resume)
  6  an artifact file (--report-json, --dot, ...) failed to land on an
     otherwise successful run
  7  uncertified: with --certify, at least one solver verdict failed its
     exact certificate check even after the distrust re-solve (the report
     marks the affected probes; printed results are conservative)
  8  rejected: the solve service refused the submission (queue_full,
     memory_limit or shutting_down; the response's error.code says which)
)";
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty()) {
    err << usage();
    return 4;
  }
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out << usage();
      return 0;
    }
  }
  // Service modes peel off before the one-shot path: a client verb as the
  // first argument, or --serve anywhere, select them.
  try {
    if (is_client_verb(args[0])) return run_client(args, out, err);
    for (const std::string& arg : args) {
      if (arg == "--serve") return run_serve(args, out, err);
    }
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n" << usage();
    return 4;
  }
  try {
    const Arguments parsed = parse_args(args);

    // --log-level wins over --quiet; set explicitly every run so repeated
    // in-process invocations do not inherit a previous run's level.
    set_log_level(parsed.log_level.value_or(
        parsed.quiet ? LogLevel::kError : LogLevel::kWarning));

    // One cancellation token is shared by the signal handler and every
    // solve: SIGINT/SIGTERM preempt the run through the same cooperative
    // path a deadline uses.
    milp::CancelToken run_cancel = milp::CancelToken::create();
    SignalGuard signals(run_cancel);
    ObservabilityGuard observability(parsed, out, err);
    bool artifacts_ok = true;

    int code = [&]() -> int {
    const service::JobSpec job =
        service::resolve_job(parsed.solve.to_request(), 0,
                             core::PartitionerOptions{}.max_partitions,
                             service::OptionSpelling::kFlag);
    const graph::TaskGraph& graph = job.graph;
    const arch::Device& dev = job.device;
    out << "graph '" << graph.name() << "': " << graph.num_tasks()
        << " tasks, " << graph.num_edges() << " edges; device Rmax="
        << dev.resource_capacity << " Mmax=" << dev.memory_capacity
        << " Ct=" << dev.reconfig_time_ns << " ns\n";

    core::PartitionerOptions options = service::start_options(job, run_cancel);
    options.checkpoint.path = parsed.checkpoint_file;
    options.checkpoint.min_interval_sec = parsed.checkpoint_interval_sec;
    options.checkpoint.resume = parsed.resume;
    const core::PartitionerReport report =
        core::TemporalPartitioner(graph, dev, options).run();

    if (report.resumed) {
      out << "resumed from checkpoint " << parsed.checkpoint_file << "\n";
    }
    if (!report.resume_error.empty()) {
      err << "warning: started fresh, " << report.resume_error << "\n";
    }

    // The human trace table follows the log level (--quiet implies kError),
    // but the observability files above never do: --trace-json and
    // --metrics-json are written even at --log-level error/off.
    if (log_level() < LogLevel::kError) {
      out << io::render_trace(report.trace, dev.reconfig_time_ns, false);
    }
    if (!parsed.report_json_file.empty()) {
      artifacts_ok &= write_artifact(parsed.report_json_file,
                                     report.to_json() + "\n", "report", out,
                                     err);
    }
    const int run_code = core::run_exit_code(report);
    // Certification summary: how many verdicts were checked exactly and
    // whether any stayed uncertified after the distrust retry.
    if (options.budget.solver.certify != milp::CertifyMode::kOff) {
      out << "certified: " << report.solver_stats.certificates_checked
          << " verdicts checked exactly, "
          << report.solver_stats.certify_retries << " distrust retries, "
          << report.solver_stats.uncertified_verdicts << " uncertified\n";
    }
    // Degradation summary: which partition bounds the sweep probed, cut
    // short or never reached before the budget/deadline expired — or
    // stopped conservatively on an uncertified verdict.
    if (report.degraded) {
      int probed = 0, cut_short = 0, skipped = 0, degraded_stages = 0;
      for (const core::StageAccount& stage : report.stages) {
        switch (stage.status) {
          case core::StageStatus::kProbed:
            ++probed;
            break;
          case core::StageStatus::kCutShort:
            ++cut_short;
            break;
          case core::StageStatus::kSkipped:
            ++skipped;
            break;
          case core::StageStatus::kDegraded:
            ++degraded_stages;
            break;
        }
      }
      out << "degraded: budget/deadline expired or verdicts went uncertified ("
          << probed << " bounds probed, " << cut_short << " cut short, "
          << skipped << " skipped, " << degraded_stages << " uncertified)\n";
    }
    if (!report.feasible) {
      out << "no feasible partitioning in the explored range\n";
      return run_code;
    }
    out << (report.degraded ? "best so far: " : "best: ")
        << trim_double(report.achieved_latency) << " ns at N="
        << report.best_num_partitions << " (delta=" << report.delta_used
        << ", " << report.ilp_solves << " ILP solves, " << report.seconds
        << " s)\n"
        << report.best->to_string(graph);

    // A preempted run still reports its incumbent and flushes artifacts,
    // but skips the optional extra solves (--optimal) and the simulation:
    // the user asked the process to wind down, not start new work.
    if (parsed.optimal && !SignalGuard::preempted()) {
      const core::OptimalResult optimal = core::solve_optimal_over_range(
          graph, dev, options.alpha, options.gamma, options.budget.solver);
      if (optimal.best) {
        out << "optimal reference: " << trim_double(optimal.latency_ns)
            << " ns ("
            << milp::to_string(optimal.status) << ")\n";
      } else {
        out << "optimal reference: no solution ("
            << milp::to_string(optimal.status) << ")\n";
      }
    }
    if (parsed.simulate && !SignalGuard::preempted()) {
      out << sim::simulate(graph, dev, *report.best).to_string(graph);
    }
    if (!parsed.dot_file.empty()) {
      std::ostringstream dot;
      io::write_dot(dot, graph, *report.best);
      artifacts_ok &=
          write_artifact(parsed.dot_file, dot.str(), "design DOT", out, err);
    }
    if (!parsed.csv_file.empty()) {
      std::ostringstream csv;
      io::write_trace_csv(csv, report.trace);
      artifacts_ok &=
          write_artifact(parsed.csv_file, csv.str(), "trace CSV", out, err);
    }
    return run_code;
    }();

    if (SignalGuard::preempted()) {
      // Grab one last telemetry sample while the sampler is still running so
      // the JSONL stream records the preemption, then report and remap the
      // exit code: 5 says "interrupted, state flushed, resume with --resume".
      observability.sample("preempt");
      err << "preempted by " << SignalGuard::signal_name()
          << ": best incumbent reported, artifacts flushed"
          << (parsed.checkpoint_file.empty()
                  ? ""
                  : ", checkpoint saved (rerun with --resume)")
          << "\n";
      code = 5;
    }
    if (!observability.finalize()) artifacts_ok = false;
    // Artifact failures only take over a clean exit: degraded/infeasible/
    // preempted codes carry more information than "a file didn't land".
    if (!artifacts_ok && code == 0) code = 6;
    return code;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n" << usage();
    return 4;
  }
}

}  // namespace sparcs::cli
