// Minimal thread pool: the streaming service's ingest work (serve/service.h)
// is submitted to it as closures, and parallel_for runs index sweeps with
// the caller participating. Detection itself is sequential and never
// touches a pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cancel.h"

namespace hbct {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution. A throwing task does not
  /// kill its worker: the first exception is captured and rethrown by the
  /// next wait_idle().
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. This is a *global* wait
  /// over all submit() callers — two threads waiting concurrently block on
  /// each other's tasks. parallel_for does not have this restriction: it
  /// waits only on its own batch. Rethrows the first exception thrown by a
  /// submitted task since the previous wait_idle().
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [0, count) across the pool plus the calling thread,
  /// then wait for this call's own batch only (concurrent parallel_for
  /// callers do not block on each other's work). Iterations are claimed in
  /// contiguous chunks off a shared atomic cursor, so per-iteration cost far
  /// below the cost of a queue operation does not thrash the queue mutex.
  /// The first exception thrown by fn cancels the remaining chunks and is
  /// rethrown here once the batch drains.
  ///
  /// `max_parallelism` caps the number of participating threads (0 = all
  /// workers + caller). `chunk` fixes the claim granularity (0 = automatic).
  /// `cancel`, when given, is polled before every iteration; once cancelled
  /// no further iteration starts. If the pool has a single worker, or
  /// max_parallelism <= 1, the calls execute inline in index order.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t max_parallelism = 0, std::size_t chunk = 0,
                    CancelToken* cancel = nullptr);

  /// Process-wide pool, the service's default (ServiceOptions::pool).
  /// Sized max(4, hardware_concurrency) so sessions drain concurrently even
  /// on single-core boxes.
  static ThreadPool& shared();

 private:
  struct Batch;

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr submit_error_;
};

}  // namespace hbct
