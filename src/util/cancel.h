// Cooperative cancellation flag shared by the detection budget
// (Budget::cancel) and ThreadPool::parallel_for.
#pragma once

#include <atomic>

namespace hbct {

/// Set from any thread; readers poll it at their checkpoints and stop once
/// it is cancelled. Cancellation is advisory: work already running when it
/// is set completes normally. A detection polls it at every budget
/// checkpoint and stops with BoundReason::kCancelled; parallel_for stops
/// claiming iterations.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

}  // namespace hbct
