// Wall-clock deadline for the whole partitioning pipeline, threaded from
// PartitionerOptions through SearchBudget into every milp::Solver call: the
// remaining budget becomes each solve's time_limit_sec, so an expired
// deadline unwinds the sweep from inside a solve instead of waiting for the
// next between-probe poll. Enforcement is cooperative only: the sites that
// can stop work read the deadline themselves, and no thread watches it.
#pragma once

#include <algorithm>
#include <chrono>
#include <limits>

namespace sparcs::core {

/// A monotonic-clock deadline. Default-constructed deadlines never expire
/// (and report an infinite remaining budget), so existing unconstrained runs
/// behave bit-identically.
class Deadline {
 public:
  Deadline() = default;

  /// The longest horizon, about 32 years. after_seconds() caps here, far
  /// inside the steady clock's range (int64 ns, about 9.2e9 s), so the
  /// deadline never overflows into the past and remaining_sec() stays a
  /// finite time limit for clamped_solver().
  static constexpr double kMaxHorizonSec = 1e9;

  /// A deadline `seconds` of wall time from now (monotonic clock).
  [[nodiscard]] static Deadline after_seconds(double seconds) {
    seconds = std::min(seconds, kMaxHorizonSec);
    Deadline d;
    d.valid_ = true;
    d.at_ = clock::now() + std::chrono::duration_cast<clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }

  /// True when this deadline can expire.
  [[nodiscard]] bool valid() const { return valid_; }

  /// Wall time until expiry, in seconds (negative once expired; +inf when
  /// the deadline is inert).
  [[nodiscard]] double remaining_sec() const {
    if (!valid_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - clock::now()).count();
  }

  [[nodiscard]] bool expired() const { return valid_ && remaining_sec() <= 0.0; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point at_{};
  bool valid_ = false;
};

}  // namespace sparcs::core
