#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "core/baselines.hpp"
#include "graph/algorithms.hpp"
#include "milp/simplex.hpp"
#include "milp/solver.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/span.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace sparcs::core {
namespace {

/// Tasks with identical design points, as (D(m), R(m)) sorted by latency.
struct TaskClass {
  std::vector<std::pair<double, double>> points;
  int tasks = 0;
  /// a_k(l) per level l: the least area of a point with D(m) <= l, or
  /// kInfinity where no point of the class is that fast.
  std::vector<double> area;
};

/// The data of LB(N)'s level-packing relaxation (bounds.hpp): the levels are
/// the distinct D(m) of the graph, since a partition's level is one of its
/// tasks' latencies.
struct LevelRelaxation {
  std::vector<double> levels;  ///< ascending
  std::vector<TaskClass> classes;
  int min_partitions = 1;  ///< MinAreaPartitions()

  LevelRelaxation(const graph::TaskGraph& graph, const arch::Device& device)
      : min_partitions(min_area_partitions(graph, device)) {
    std::map<std::vector<std::pair<double, double>>, int> tasks;
    for (const graph::Task& task : graph.tasks()) {
      std::vector<std::pair<double, double>> points;
      for (const graph::DesignPoint& point : task.design_points) {
        points.emplace_back(point.latency_ns, point.area);
        levels.push_back(point.latency_ns);
      }
      std::sort(points.begin(), points.end());
      ++tasks[points];
    }
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    for (auto& [points, count] : tasks) {
      TaskClass cls{points, count, {}};
      double cheapest = milp::kInfinity;
      std::size_t next = 0;
      for (const double level : levels) {
        for (; next < points.size() && points[next].first <= level; ++next) {
          cheapest = std::min(cheapest, points[next].second);
        }
        cls.area.push_back(cheapest);
      }
      classes.push_back(std::move(cls));
    }
  }

  /// One c per level plus one x per (class, level no faster than the
  /// class's fastest point).
  [[nodiscard]] int num_vars() const {
    std::size_t vars = levels.size();
    for (const TaskClass& cls : classes) {
      vars += static_cast<std::size_t>(
          std::count_if(cls.area.begin(), cls.area.end(),
                        [](double a) { return a < milp::kInfinity; }));
    }
    return static_cast<int>(vars);
  }

  /// The relaxation for `num_partitions`; `cost` receives
  /// sum_l c_l (l + C_T), which the caller minimizes or bounds.
  [[nodiscard]] milp::Model model(const arch::Device& device,
                                  int num_partitions,
                                  milp::LinExpr& cost) const {
    milp::Model model("latency_relaxation_n" +
                      std::to_string(num_partitions));
    std::vector<milp::LinExpr> area(levels.size());
    milp::LinExpr used;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const milp::VarId c = model.add_integer(
          0, num_partitions, "c_" + trim_double(levels[l]));
      cost += milp::LinExpr(c, levels[l] + device.reconfig_time_ns);
      used += milp::LinExpr(c);
      area[l] -= milp::LinExpr(c, device.resource_capacity);
    }
    for (std::size_t k = 0; k < classes.size(); ++k) {
      const TaskClass& cls = classes[k];
      milp::LinExpr cover;
      for (std::size_t l = 0; l < levels.size(); ++l) {
        if (!(cls.area[l] < milp::kInfinity)) continue;
        const milp::VarId x = model.add_continuous(
            0, cls.tasks, str_format("x_k%zu_", k) + trim_double(levels[l]));
        cover += milp::LinExpr(x);
        area[l] += milp::LinExpr(x, cls.area[l]);
      }
      model.add_constraint(std::move(cover) == static_cast<double>(cls.tasks),
                           str_format("cover_k%zu", k));
    }
    for (std::size_t l = 0; l < levels.size(); ++l) {
      model.add_constraint(std::move(area[l]) <= 0.0,
                           "area_" + trim_double(levels[l]));
    }
    // Each used partition holds at most R_max of the cheapest areas, so
    // every design uses at least MinAreaPartitions() of them.
    model.add_constraint(
        milp::LinExpr(used) >= static_cast<double>(min_partitions),
        "min_partitions");
    model.add_constraint(std::move(used) <= static_cast<double>(num_partitions),
                         "partitions");
    return model;
  }
};

/// `solver` narrowed to the one-thread, uncertified search LB(N) runs.
milp::SolverParams relaxation_params(milp::SolverParams solver) {
  solver.num_threads = 1;
  solver.certify = milp::CertifyMode::kOff;
  return solver;
}

/// Whether a multiset's levels can pack every task: unknown until its
/// packing LP (or a filter) has run.
enum class Packing : std::uint8_t { kUnchecked, kFeasible, kInfeasible };

/// A multiset of levels: its largest level `last` added to the popped
/// multiset `prefix` (-1: the empty one). Every multiset is written as its
/// levels in ascending order, so this chain spells it uniquely.
struct Multiset {
  double cost = 0.0;  ///< sum of (l + C_T) over its levels
  int prefix = -1;
  int last = 0;  ///< level index
  int size = 0;
  std::int64_t order = 0;  ///< push order: ties pop first-pushed first
  Packing packing = Packing::kUnchecked;
};

/// Heap order: cheapest first, then first pushed.
struct PopsLater {
  bool operator()(const Multiset& a, const Multiset& b) const {
    return a.cost != b.cost ? a.cost > b.cost : a.order > b.order;
  }
};

/// How one stage's part of the walk ended.
enum class WalkEnd : std::uint8_t {
  kFound,       ///< R(N) found
  kNoMultiset,  ///< no multiset of at most N levels packs: no R(N)
  kStopped,     ///< the cap, the time limit, the cancel token or the LP
};

/// `total` area over the device capacity, rounded up.
double area_quotient(double total, const arch::Device& device) {
  return std::ceil(total / device.resource_capacity - 1e-9);
}

int area_partitions(double total, const arch::Device& device) {
  const double quotient = area_quotient(total, device);
  SPARCS_REQUIRE(quotient <= std::numeric_limits<int>::max(),
                 "the area quotient leaves int range");
  return std::max(1, static_cast<int>(quotient));
}

double max_area_total(const graph::TaskGraph& graph) {
  return graph::total_task_weight(
      graph, [&](graph::TaskId t) { return graph.max_area(t); });
}

}  // namespace

int min_area_partitions(const graph::TaskGraph& graph,
                        const arch::Device& device) {
  graph.validate();
  device.validate();
  return area_partitions(
      graph::total_task_weight(
          graph, [&](graph::TaskId t) { return graph.min_area(t); }),
      device);
}

int max_area_partitions(const graph::TaskGraph& graph,
                        const arch::Device& device) {
  graph.validate();
  device.validate();
  return area_partitions(max_area_total(graph), device);
}

bool area_partitions_fit(const graph::TaskGraph& graph,
                         const arch::Device& device) {
  return area_quotient(max_area_total(graph), device) <=
         std::numeric_limits<int>::max();
}

double max_latency(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions) {
  SPARCS_REQUIRE(num_partitions >= 1, "need at least one partition");
  const double serial = graph::total_task_weight(
      graph, [&](graph::TaskId t) { return graph.max_latency(t); });
  return serial + num_partitions * device.reconfig_time_ns;
}

double min_latency(const graph::TaskGraph& graph, const arch::Device& device,
                   int num_partitions) {
  SPARCS_REQUIRE(num_partitions >= 1, "need at least one partition");
  return graph::min_latency_critical_path(graph) +
         num_partitions * device.reconfig_time_ns;
}

double bound_slack(double bound) { return 1e-6 * std::max(1.0, bound); }

struct LatencyBoundWalk::State {
  const graph::TaskGraph& graph;
  const arch::Device& device;
  LevelRelaxation relaxation;
  /// Every multiset popped so far, in walk order: nondecreasing cost.
  std::vector<Multiset> popped;
  std::priority_queue<Multiset, std::vector<Multiset>, PopsLater> frontier;
  std::int64_t pushed = 0;
  std::int64_t lps = 0;  ///< packing LPs solved

  State(const graph::TaskGraph& g, const arch::Device& d)
      : graph(g), device(d), relaxation(g, d) {
    push(0.0, -1, 0, 1);
  }

  void push(double prefix_cost, int prefix, int last, int size) {
    frontier.push({prefix_cost + relaxation.levels[static_cast<std::size_t>(
                                     last)] +
                       device.reconfig_time_ns,
                   prefix, last, size, pushed++, Packing::kUnchecked});
  }

  /// Pops the cheapest multiset and pushes its two children: its largest
  /// level repeated, and its largest level advanced to the next one. Each
  /// multiset has exactly one parent, and no child is cheaper than it.
  void pop() {
    const Multiset next = frontier.top();
    frontier.pop();
    popped.push_back(next);
    const int index = static_cast<int>(popped.size()) - 1;
    push(next.cost, index, next.last, next.size + 1);
    if (static_cast<std::size_t>(next.last) + 1 < relaxation.levels.size()) {
      push(next.prefix < 0
               ? 0.0
               : popped[static_cast<std::size_t>(next.prefix)].cost,
           next.prefix, next.last + 1, next.size);
    }
  }

  /// How many of each level the popped multiset `index` holds.
  [[nodiscard]] std::vector<int> counts(int index) const {
    std::vector<int> count(relaxation.levels.size(), 0);
    for (; index >= 0; index = popped[static_cast<std::size_t>(index)].prefix) {
      ++count[static_cast<std::size_t>(
          popped[static_cast<std::size_t>(index)].last)];
    }
    return count;
  }

  /// The levels of the popped multiset `index`, ascending.
  [[nodiscard]] std::vector<double> levels(int index) const {
    const std::vector<int> count = counts(index);
    std::vector<double> out;
    for (std::size_t l = 0; l < count.size(); ++l) {
      out.insert(out.end(), static_cast<std::size_t>(count[l]),
                 relaxation.levels[l]);
    }
    return out;
  }

  /// Whether the popped multiset `index` packs every task at its levels, a
  /// question that does not depend on N. `lp` is LP(N) of a stage the
  /// multiset's size fits, so a cheaper multiset cannot pack. kUnchecked:
  /// the packing LP ended without a verdict.
  Packing check(int index, double lp) {
    const Multiset& set = popped[static_cast<std::size_t>(index)];
    if (set.cost < lp - bound_slack(lp)) return Packing::kInfeasible;
    // Necessary: every task fits at the slowest level at its least area.
    const double capacity = set.size * device.resource_capacity;
    double need = 0.0;
    for (const TaskClass& cls : relaxation.classes) {
      need += cls.tasks * cls.area[static_cast<std::size_t>(set.last)];
    }
    if (!(need <= capacity + bound_slack(capacity))) {
      return Packing::kInfeasible;
    }
    // The fractional packing: x_kl tasks of class k at level l,
    // sum_l x_kl = |k| and sum_k a_k(l) x_kl <= c_l R_max.
    const std::vector<int> count = counts(index);
    milp::LpProblem packing;
    std::vector<std::vector<milp::LinTerm>> area(count.size());
    for (const TaskClass& cls : relaxation.classes) {
      std::vector<milp::LinTerm> cover;
      for (std::size_t l = 0; l < count.size(); ++l) {
        if (count[l] == 0 || !(cls.area[l] < milp::kInfinity)) continue;
        const int x = packing.add_var(0.0, 0.0, cls.tasks);
        cover.push_back({x, 1.0});
        area[l].push_back({x, cls.area[l]});
      }
      packing.add_row(std::move(cover), milp::Sense::kEqual, cls.tasks);
    }
    for (std::size_t l = 0; l < count.size(); ++l) {
      if (count[l] == 0) continue;
      packing.add_row(std::move(area[l]), milp::Sense::kLessEqual,
                      count[l] * device.resource_capacity);
    }
    ++lps;
    switch (milp::solve_lp(packing).status) {
      case milp::LpStatus::kOptimal:
        return Packing::kFeasible;
      case milp::LpStatus::kInfeasible:
        return Packing::kInfeasible;
      default:
        return Packing::kUnchecked;
    }
  }

  /// Walks on until R(N), the cheapest packing multiset of at most N levels,
  /// is known, and sets `bound` to LB(N) = max(LP(N), R(N)) with the levels
  /// of the first multiset tied with R(N) that level_fill packs into a design
  /// at LB(N) (the first tied one when none does).
  WalkEnd walk(int num_partitions, double lp,
               const milp::SolverParams& solver, LatencyBound& bound) {
    Stopwatch stopwatch;
    auto stopped = [&] {
      return solver.cancel.cancelled() ||
             stopwatch.seconds() > solver.time_limit_sec;
    };
    // No multiset of at most N levels costs more.
    const double dearest =
        num_partitions *
        (relaxation.levels.back() + device.reconfig_time_ns);
    int first = -1;  // the first packing multiset: R(N)
    int chosen = -1;
    double tied = milp::kInfinity;  // the most a multiset tied with R(N) costs
    // Once R(N) is known, a stop only ends the search for a tie that packs.
    for (std::size_t i = 0; chosen < 0; ++i) {
      if (i == popped.size()) {
        const double next = frontier.top().cost;
        if (next > tied) break;
        if (first < 0 && next > dearest + bound_slack(dearest)) {
          return WalkEnd::kNoMultiset;
        }
        if (static_cast<std::int64_t>(popped.size()) >= kLevelWalkMaxPops ||
            stopped()) {
          if (first < 0) return WalkEnd::kStopped;
          break;
        }
        pop();
      }
      Multiset& set = popped[i];
      if (set.cost > tied) break;
      if (set.size < relaxation.min_partitions || set.size > num_partitions) {
        continue;
      }
      const int index = static_cast<int>(i);
      if (set.packing == Packing::kUnchecked) {
        if (!stopped()) set.packing = check(index, lp);
        if (set.packing == Packing::kUnchecked) {
          if (first < 0) return WalkEnd::kStopped;
          break;
        }
      }
      if (set.packing != Packing::kFeasible) continue;
      if (first < 0) {
        first = index;
        tied = set.cost + bound_slack(set.cost);
        bound = {std::max(lp, set.cost), LatencyBoundSource::kMilp, {}};
      }
      const auto design =
          level_fill(graph, device, num_partitions, levels(index));
      if (design &&
          design->total_latency_ns <= bound.ns + bound_slack(bound.ns)) {
        chosen = index;
      }
    }
    bound.levels = levels(chosen >= 0 ? chosen : first);
    return WalkEnd::kFound;
  }
};

LatencyBoundWalk::LatencyBoundWalk(const graph::TaskGraph& graph,
                                   const arch::Device& device) {
  graph.validate();
  device.validate();
  state_ = std::make_unique<State>(graph, device);
}

LatencyBoundWalk::~LatencyBoundWalk() = default;

std::int64_t LatencyBoundWalk::popped() const {
  return static_cast<std::int64_t>(state_->popped.size());
}

LatencyBound LatencyBoundWalk::bound(int num_partitions,
                                     const milp::SolverParams& solver,
                                     bool solve_milp) {
  State& state = *state_;
  const double floor = min_latency(state.graph, state.device, num_partitions);
  trace::Span span("Latency_Bound");
  span.arg("N", static_cast<std::int64_t>(num_partitions));
  Stopwatch stopwatch;
  const LevelRelaxation& relaxation = state.relaxation;
  const int vars = relaxation.num_vars();
  span.arg("vars", static_cast<std::int64_t>(vars));
  const std::int64_t popped_before = popped();
  const std::int64_t lps_before = state.lps;
  double lp = -milp::kInfinity;
  LatencyBound bound{floor, LatencyBoundSource::kMinLatency, {}};
  std::int64_t nodes = 0;
  if (vars <= milp::kLpBoundingMaxVars) {
    milp::LinExpr cost;
    milp::Model model = relaxation.model(state.device, num_partitions, cost);
    model.set_objective(std::move(cost));
    const milp::LpResult relaxed = milp::solve_lp(milp::relaxation_of(model));
    if (relaxed.status == milp::LpStatus::kOptimal) lp = relaxed.objective;
    // Only an LP above the floor can lift R(N) above it.
    if (lp > floor) bound = {lp, LatencyBoundSource::kLp, {}};
    if (lp > floor && solve_milp &&
        state.walk(num_partitions, lp, solver, bound) == WalkEnd::kStopped) {
      // The walk could not finish: the MILP finds R(N) instead. Dive toward
      // the LP's packing: try each count c_l (variable l) at its rounded-up
      // LP value first, and branch on the counts the LP left fractional
      // before the other ones it uses.
      for (std::size_t l = 0; l < relaxation.levels.size(); ++l) {
        const milp::VarId c = static_cast<milp::VarId>(l);
        const double value = relaxed.x[l];
        model.set_branch_hint(c, std::ceil(value - 1e-6));
        if (value > 1e-6) {
          model.set_branch_priority(
              c, std::abs(value - std::round(value)) > 1e-6 ? 2 : 1);
        }
      }
      const milp::MilpSolution exact =
          milp::Solver(model,
                       milp::optimality_params(relaxation_params(solver)))
              .solve();
      nodes = exact.stats.nodes_explored;
      if (exact.status == milp::SolveStatus::kOptimal) {
        bound = {std::max(lp, exact.objective), LatencyBoundSource::kMilp, {}};
        for (std::size_t l = 0; l < relaxation.levels.size(); ++l) {
          bound.levels.insert(bound.levels.end(),
                              static_cast<std::size_t>(std::lround(
                                  exact.values[l])),
                              relaxation.levels[l]);
        }
      }
    }
  }
  static constexpr const char* kSourceNames[] = {"MinLatency", "LP", "MILP"};
  const char* source = kSourceNames[static_cast<int>(bound.source)];
  const std::int64_t walked = popped() - popped_before;
  const std::int64_t lps = state.lps - lps_before;
  span.arg("lp", lp);
  span.arg("lb", bound.ns);
  span.arg("popped", walked);
  span.arg("lps", lps);
  span.arg("nodes", nodes);
  span.arg("source", std::string(source));
  SPARCS_DLOG << "LB(N=" << num_partitions << ") = " << bound.ns << " ns from "
              << source << " (MinLatency " << floor << ", LP " << lp << ", "
              << vars << " vars, " << walked << " multisets popped, " << lps
              << " packing LPs, " << nodes << " MILP nodes) in "
              << stopwatch.seconds() << " s";
  return bound;
}

LatencyBound latency_relaxation_bound(const graph::TaskGraph& graph,
                                      const arch::Device& device,
                                      int num_partitions,
                                      const milp::SolverParams& solver,
                                      bool solve_milp) {
  return LatencyBoundWalk(graph, device)
      .bound(num_partitions, solver, solve_milp);
}

milp::MilpSolution certify_latency_bound(const graph::TaskGraph& graph,
                                         const arch::Device& device,
                                         int num_partitions, double target,
                                         const milp::SolverParams& solver) {
  graph.validate();
  device.validate();
  milp::LinExpr cost;
  milp::Model model =
      LevelRelaxation(graph, device).model(device, num_partitions, cost);
  model.add_constraint(std::move(cost) <= target, "latency_ub");
  milp::SolverParams params = relaxation_params(solver);
  params.certify = milp::CertifyMode::kFull;
  return milp::Solver(model, milp::first_feasible_params(params)).solve();
}

}  // namespace sparcs::core
