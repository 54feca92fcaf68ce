#include "core/deadline.hpp"

#include <algorithm>

#include "support/metrics.hpp"

namespace sparcs::core {

double DeadlineWatchdog::default_grace_sec(const Deadline& deadline) {
  if (!deadline.valid()) return 0.0;
  return std::max(0.05, 0.1 * deadline.horizon_sec());
}

DeadlineWatchdog::DeadlineWatchdog(const Deadline& deadline, double grace_sec,
                                   milp::CancelToken token) {
  if (!deadline.valid() || !token.valid()) return;
  thread_ = std::thread([this, deadline, grace_sec, token]() mutable {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      const double wait_sec = std::min(deadline.remaining_sec() + grace_sec,
                                       Deadline::kMaxHorizonSec);
      if (wait_sec <= 0.0) break;
      // Re-check remaining_sec after each wake: wait_for can return early
      // and the deadline is re-read against the monotonic clock anyway.
      if (cv_.wait_for(lock, std::chrono::duration<double>(wait_sec),
                       [this] { return stop_; })) {
        return;
      }
    }
    fired_ = true;
    lock.unlock();
    token.request_cancel();
    metrics::registry().counter("core.watchdog.fired").add();
  });
}

DeadlineWatchdog::~DeadlineWatchdog() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

bool DeadlineWatchdog::fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

}  // namespace sparcs::core
