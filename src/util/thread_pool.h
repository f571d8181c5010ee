// Minimal thread pool: the streaming service's ingest work (serve/service.h)
// is submitted to it as closures. Detection itself is sequential and never
// touches a pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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
  /// each other's tasks. Rethrows the first exception thrown by a submitted
  /// task since the previous wait_idle().
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Process-wide pool, the service's default (ServiceOptions::pool).
  /// Sized max(4, hardware_concurrency) so sessions drain concurrently even
  /// on single-core boxes.
  static ThreadPool& shared();

 private:
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
