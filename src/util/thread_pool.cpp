#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace hbct {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(
      std::max<std::size_t>(4, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  HBCT_ASSERT(task);
  {
    std::lock_guard<std::mutex> lk(mu_);
    HBCT_ASSERT_MSG(!stop_, "submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
  if (submit_error_) {
    std::exception_ptr err = std::exchange(submit_error_, nullptr);
    lk.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A task that throws must still decrement in_flight_, or wait_idle()
    // deadlocks; the first exception is surfaced there.
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (err && !submit_error_) submit_error_ = std::move(err);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace hbct
