// Host-speed calibration: a fixed piece of work owned by the benchmark, not
// by the code under test, timed in slices between repetitions. Other tenants
// of a shared host slow every core by up to 2x for minutes at a time; the
// slices bracketing a repetition measure the slowdown it ran under.
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {
namespace {

// Sparse rows over a bound table, the access pattern of constraint
// propagation: gathers, multiply-adds and data-dependent branches. The
// working set (about 3.5 MiB) spills the per-core L2, so the work feels the
// same cache and memory contention as the solver.
constexpr std::uint32_t kVars = 131072;
constexpr std::uint32_t kRows = 16384;
constexpr std::uint32_t kRowLength = 8;
constexpr int kRounds = 2;
constexpr int kCallsPerSlice = 24;
// Seconds per call of the reference work on a quiet 4-vCPU host: the speed
// every scaled time is expressed at. It is a fixed unit, not a measurement
// to keep current.
constexpr double kQuietCallSeconds = 2.8e-3;
// A slice is taken after at least this much measured work.
constexpr double kSliceEverySeconds = 0.5;

struct Table {
  std::vector<std::uint32_t> column;
  std::vector<double> coef;
  std::vector<double> rhs;
};

const Table& table() {
  static const Table t = [] {
    Table built;
    std::uint64_t state = 0x243f6a8885a308d3ULL;
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::uint32_t>(state >> 33);
    };
    for (std::uint32_t i = 0; i < kRows * kRowLength; ++i) {
      built.column.push_back(next() % kVars);
      built.coef.push_back(static_cast<double>(next() % 19) - 9.0);
    }
    for (std::uint32_t r = 0; r < kRows; ++r) {
      built.rhs.push_back(static_cast<double>(next() % 40));
    }
    return built;
  }();
  return t;
}

double reference_work() {
  const Table& t = table();
  std::vector<double> lo(kVars, 0.0);
  std::vector<double> hi(kVars, 8.0);
  double checksum = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint32_t r = 0; r < kRows; ++r) {
      const std::uint32_t begin = r * kRowLength;
      double min_activity = 0.0;
      for (std::uint32_t k = begin; k < begin + kRowLength; ++k) {
        const double a = t.coef[k];
        min_activity += a > 0.0 ? a * lo[t.column[k]] : a * hi[t.column[k]];
      }
      const double slack = t.rhs[r] - min_activity;
      for (std::uint32_t k = begin; k < begin + kRowLength; ++k) {
        const double a = t.coef[k];
        if (a > 0.0) {
          double& upper = hi[t.column[k]];
          const double bound = lo[t.column[k]] + slack / a;
          if (bound < upper && bound >= lo[t.column[k]]) upper = bound;
        }
      }
      checksum += slack;
    }
    // Relax the bounds again so every round does the same kind of work.
    for (std::uint32_t v = 0; v < kVars; ++v) hi[v] = 0.5 * (hi[v] + 8.0);
  }
  return checksum;
}

/// Slowdown of the host now: mean seconds per call over a slice of calls,
/// divided by the quiet host's.
double slice() {
  static volatile double sink = 0.0;
  Stopwatch clock;
  for (int i = 0; i < kCallsPerSlice; ++i) sink = sink + reference_work();
  return clock.seconds() / kCallsPerSlice / kQuietCallSeconds;
}

}  // namespace

HostCalibration::HostCalibration() : slices_{slice()} {}

void HostCalibration::measured(double seconds) {
  rep_slice_.push_back(slices_.size() - 1);
  since_slice_s_ += seconds;
  if (since_slice_s_ >= kSliceEverySeconds) {
    slices_.push_back(slice());
    since_slice_s_ = 0.0;
  }
}

std::vector<double> HostCalibration::slowdowns() {
  if (since_slice_s_ > 0.0) {
    slices_.push_back(slice());
    since_slice_s_ = 0.0;
  }
  std::vector<double> local;
  for (const std::size_t before : rep_slice_) {
    local.push_back(0.5 * (slices_[before] + slices_[before + 1]));
  }
  return local;
}

}  // namespace perfbench
