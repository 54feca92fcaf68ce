#include "spatial/fm_spatial.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace sparcs::spatial {
namespace {

/// Cut-weight delta of moving `node` to device `to` under `fpga_of`.
double move_gain(const std::vector<std::vector<Net>>& nets_of,
                 const std::vector<int>& fpga_of, int node, int to) {
  double gain = 0.0;
  for (const Net& net : nets_of[static_cast<std::size_t>(node)]) {
    const int other = net.a == node ? net.b : net.a;
    const int other_dev = fpga_of[static_cast<std::size_t>(other)];
    const int from = fpga_of[static_cast<std::size_t>(node)];
    if (other_dev == from) gain -= net.weight;  // becomes cut
    if (other_dev == to) gain += net.weight;    // becomes internal
  }
  return gain;
}

/// Greedy initial placement: nodes in descending area (with a shuffled
/// tie-break per restart), each on the feasible device with the best gain.
bool greedy_place(const Netlist& netlist, const Board& board,
                  const std::vector<std::vector<Net>>& nets_of, Rng& rng,
                  std::vector<int>& fpga_of) {
  const int n = netlist.num_nodes();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return netlist.nodes[static_cast<std::size_t>(a)].area >
           netlist.nodes[static_cast<std::size_t>(b)].area;
  });
  fpga_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<double> load(static_cast<std::size_t>(board.num_fpgas), 0.0);
  for (const int node : order) {
    const double area = netlist.nodes[static_cast<std::size_t>(node)].area;
    int best_dev = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    for (int k = 0; k < board.num_fpgas; ++k) {
      if (load[static_cast<std::size_t>(k)] + area >
          board.fpga_capacity + 1e-9) {
        continue;
      }
      // Prefer attraction to already-placed neighbors, then lighter devices.
      double score = 0.0;
      for (const Net& net : nets_of[static_cast<std::size_t>(node)]) {
        const int other = net.a == node ? net.b : net.a;
        if (fpga_of[static_cast<std::size_t>(other)] == k) {
          score += net.weight;
        }
      }
      score -= 1e-6 * load[static_cast<std::size_t>(k)];
      if (score > best_score) {
        best_score = score;
        best_dev = k;
      }
    }
    if (best_dev < 0) return false;
    fpga_of[static_cast<std::size_t>(node)] = best_dev;
    load[static_cast<std::size_t>(best_dev)] += area;
  }
  return true;
}

}  // namespace

FmResult spatial_partition_fm(const Netlist& netlist, const Board& board,
                              const FmOptions& options) {
  netlist.validate();
  board.validate();
  SPARCS_REQUIRE(options.max_passes >= 1 && options.restarts >= 1,
                 "FM needs at least one pass and one restart");

  Stopwatch stopwatch;
  const int n = netlist.num_nodes();
  std::vector<std::vector<Net>> nets_of(static_cast<std::size_t>(n));
  for (const Net& net : netlist.nets) {
    nets_of[static_cast<std::size_t>(net.a)].push_back(net);
    nets_of[static_cast<std::size_t>(net.b)].push_back(net);
  }

  FmResult result;
  Rng rng(options.seed);
  std::vector<int> best_overall;
  double best_overall_cut = std::numeric_limits<double>::infinity();

  for (int restart = 0; restart < options.restarts; ++restart) {
    std::vector<int> fpga_of;
    if (!greedy_place(netlist, board, nets_of, rng, fpga_of)) continue;
    std::vector<double> load = fpga_areas(netlist, board, fpga_of);
    double current_cut = cut_weight(netlist, fpga_of);

    for (int pass = 0; pass < options.max_passes; ++pass) {
      ++result.passes;
      std::vector<bool> locked(static_cast<std::size_t>(n), false);
      struct Move {
        int node, from, to;
      };
      std::vector<Move> moves;
      std::vector<double> cut_after;
      double running_cut = current_cut;

      // Tentatively move every node once, best gain first.
      for (int step = 0; step < n; ++step) {
        int best_node = -1, best_dev = -1;
        double best_gain = -std::numeric_limits<double>::infinity();
        for (int node = 0; node < n; ++node) {
          if (locked[static_cast<std::size_t>(node)]) continue;
          const double area =
              netlist.nodes[static_cast<std::size_t>(node)].area;
          const int from = fpga_of[static_cast<std::size_t>(node)];
          for (int k = 0; k < board.num_fpgas; ++k) {
            if (k == from) continue;
            if (load[static_cast<std::size_t>(k)] + area >
                board.fpga_capacity + 1e-9) {
              continue;
            }
            const double gain = move_gain(nets_of, fpga_of, node, k);
            if (gain > best_gain) {
              best_gain = gain;
              best_node = node;
              best_dev = k;
            }
          }
        }
        if (best_node < 0) break;
        const int from = fpga_of[static_cast<std::size_t>(best_node)];
        fpga_of[static_cast<std::size_t>(best_node)] = best_dev;
        load[static_cast<std::size_t>(from)] -=
            netlist.nodes[static_cast<std::size_t>(best_node)].area;
        load[static_cast<std::size_t>(best_dev)] +=
            netlist.nodes[static_cast<std::size_t>(best_node)].area;
        locked[static_cast<std::size_t>(best_node)] = true;
        running_cut -= best_gain;
        moves.push_back({best_node, from, best_dev});
        cut_after.push_back(running_cut);
      }

      // Keep the best prefix of the pass.
      int best_prefix = 0;
      double best_cut = current_cut;
      for (std::size_t i = 0; i < cut_after.size(); ++i) {
        if (cut_after[i] < best_cut - 1e-12) {
          best_cut = cut_after[i];
          best_prefix = static_cast<int>(i) + 1;
        }
      }
      // Roll back the tail.
      for (std::size_t i = moves.size(); i > static_cast<std::size_t>(best_prefix);) {
        --i;
        const Move& move = moves[i];
        fpga_of[static_cast<std::size_t>(move.node)] = move.from;
        load[static_cast<std::size_t>(move.to)] -=
            netlist.nodes[static_cast<std::size_t>(move.node)].area;
        load[static_cast<std::size_t>(move.from)] +=
            netlist.nodes[static_cast<std::size_t>(move.node)].area;
      }
      result.moves_applied += best_prefix;
      if (best_cut >= current_cut - 1e-12) break;  // pass converged
      current_cut = best_cut;
    }

    if (current_cut < best_overall_cut) {
      best_overall_cut = current_cut;
      best_overall = fpga_of;
    }
  }

  result.seconds = stopwatch.seconds();
  if (!best_overall.empty() &&
      best_overall_cut <= board.interconnect_capacity + 1e-9) {
    SpatialAssignment assignment;
    assignment.fpga_of = std::move(best_overall);
    assignment.cut_weight = best_overall_cut;
    result.assignment = std::move(assignment);
  }
  return result;
}

}  // namespace sparcs::spatial
