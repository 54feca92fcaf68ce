#include "io/tg_format.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace sparcs::io {
namespace {

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

double parse_double(const std::string& token, int line_no) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  require_input(end == token.c_str() + token.size(),
                str_format("line %d: expected a number, got '%s'", line_no,
                           token.c_str()));
  // strtod accepts "nan"/"inf" spellings and overflows to infinity; none of
  // the format's quantities may be non-finite.
  require_input(std::isfinite(value),
                str_format("line %d: number '%s' is not finite", line_no,
                           token.c_str()));
  return value;
}

double parse_nonneg(const std::string& token, int line_no, const char* what) {
  const double value = parse_double(token, line_no);
  require_input(value >= 0.0,
                str_format("line %d: %s must be non-negative, got '%s'",
                           line_no, what, token.c_str()));
  return value;
}

}  // namespace

TaskGraphFile read_task_graph_string(const std::string& text) {
  TaskGraphFile result;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  std::string graph_name = "imported";
  // Points are attached after construction, so stage tasks first.
  struct PendingTask {
    std::string name;
    double env_in = 0, env_out = 0;
    std::vector<graph::DesignPoint> points;
  };
  std::vector<PendingTask> tasks;
  struct PendingEdge {
    std::string from, to;
    double units;
    int line;
  };
  std::vector<PendingEdge> edges;

  auto find_task = [&](const std::string& name) -> PendingTask* {
    for (PendingTask& t : tasks) {
      if (t.name == name) return &t;
    }
    return nullptr;
  };

  while (std::getline(is, line)) {
    ++line_no;
    const std::vector<std::string> tokens = split_tokens(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];
    if (directive == "graph") {
      require_input(tokens.size() == 2,
                    str_format("line %d: graph <name>", line_no));
      graph_name = tokens[1];
    } else if (directive == "device") {
      require_input(tokens.size() == 5,
                    str_format("line %d: device <name> <Rmax> <Mmax> <Ct>",
                               line_no));
      require_input(!result.device.has_value(),
                    str_format("line %d: duplicate device", line_no));
      const double rmax = parse_nonneg(tokens[2], line_no, "device Rmax");
      require_input(rmax > 0.0,
                    str_format("line %d: device Rmax must be positive, got "
                               "'%s'",
                               line_no, tokens[2].c_str()));
      result.device = arch::custom(
          tokens[1], rmax, parse_nonneg(tokens[3], line_no, "device Mmax"),
          parse_nonneg(tokens[4], line_no, "device Ct"));
    } else if (directive == "task") {
      require_input(tokens.size() >= 2 && tokens.size() <= 4,
                    str_format("line %d: task <name> [env_in [env_out]]",
                               line_no));
      require_input(find_task(tokens[1]) == nullptr,
                    str_format("line %d: duplicate task '%s'", line_no,
                               tokens[1].c_str()));
      PendingTask task;
      task.name = tokens[1];
      if (tokens.size() >= 3) {
        task.env_in = parse_nonneg(tokens[2], line_no, "task env_in");
      }
      if (tokens.size() >= 4) {
        task.env_out = parse_nonneg(tokens[3], line_no, "task env_out");
      }
      tasks.push_back(std::move(task));
    } else if (directive == "point") {
      require_input(
          tokens.size() == 5,
          str_format("line %d: point <task> <module_set> <area> <latency>",
                     line_no));
      PendingTask* task = find_task(tokens[1]);
      require_input(task != nullptr,
                    str_format("line %d: unknown task '%s'", line_no,
                               tokens[1].c_str()));
      task->points.push_back(graph::DesignPoint{
          tokens[2], parse_nonneg(tokens[3], line_no, "point area"),
          parse_nonneg(tokens[4], line_no, "point latency")});
    } else if (directive == "edge") {
      require_input(tokens.size() == 4,
                    str_format("line %d: edge <from> <to> <units>", line_no));
      edges.push_back(
          PendingEdge{tokens[1], tokens[2],
                      parse_nonneg(tokens[3], line_no, "edge units"), line_no});
    } else {
      throw InvalidArgumentError(str_format("line %d: unknown directive '%s'",
                                            line_no, directive.c_str()));
    }
  }

  result.graph = graph::TaskGraph(graph_name);
  for (PendingTask& task : tasks) {
    result.graph.add_task(task.name, std::move(task.points), task.env_in,
                          task.env_out);
  }
  for (const PendingEdge& edge : edges) {
    const graph::TaskId from = result.graph.find_task(edge.from);
    const graph::TaskId to = result.graph.find_task(edge.to);
    require_input(from >= 0, str_format("line %d: unknown task '%s'",
                                        edge.line, edge.from.c_str()));
    require_input(to >= 0, str_format("line %d: unknown task '%s'",
                                      edge.line, edge.to.c_str()));
    result.graph.add_edge(from, to, edge.units);
  }
  result.graph.validate();
  return result;
}

TaskGraphFile read_task_graph(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return read_task_graph_string(buffer.str());
}

void write_task_graph(std::ostream& os, const graph::TaskGraph& graph,
                      const arch::Device* device) {
  os << "graph " << (graph.name().empty() ? "unnamed" : graph.name()) << "\n";
  if (device != nullptr) {
    os << "device " << device->name << " "
       << trim_double(device->resource_capacity) << " "
       << trim_double(device->memory_capacity) << " "
       << trim_double(device->reconfig_time_ns) << "\n";
  }
  for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
    const graph::Task& task = graph.task(t);
    os << "task " << task.name << " " << trim_double(task.env_in) << " "
       << trim_double(task.env_out) << "\n";
    for (const graph::DesignPoint& p : task.design_points) {
      os << "point " << task.name << " " << p.module_set << " "
         << trim_double(p.area) << " " << trim_double(p.latency_ns) << "\n";
    }
  }
  for (const graph::DataEdge& e : graph.edges()) {
    os << "edge " << graph.task(e.from).name << " " << graph.task(e.to).name
       << " " << trim_double(e.data_units) << "\n";
  }
}

std::string to_task_graph_string(const graph::TaskGraph& graph,
                                 const arch::Device* device) {
  std::ostringstream os;
  write_task_graph(os, graph, device);
  return os.str();
}

}  // namespace sparcs::io
