#include "util/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/assert.h"

namespace hbct {

// One parallel_for call's state. Participants (the caller plus up to
// max_parallelism - 1 workers) claim contiguous chunks off `next`; the
// caller waits until no participant is still executing a claimed chunk.
// Helper tasks hold the Batch via shared_ptr, so one that is dequeued only
// after the caller returned finds the cursor exhausted and exits without
// ever touching `fn` (whose referent dies with the caller).
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  CancelToken* cancel = nullptr;  // caller-supplied; may be null
  std::size_t count = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};  // set on exception or cancellation
  std::mutex mu;
  std::condition_variable cv;
  std::size_t active = 0;  // participants currently inside run()
  std::exception_ptr error;

  void run() {
    for (;;) {
      if (stop.load(std::memory_order_acquire)) return;
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + chunk, count);
      for (std::size_t i = begin; i < end; ++i) {
        if (stop.load(std::memory_order_acquire) ||
            (cancel && cancel->cancelled())) {
          stop.store(true, std::memory_order_release);
          return;
        }
        try {
          (*fn)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lk(mu);
            if (!error) error = std::current_exception();
          }
          stop.store(true, std::memory_order_release);
          return;
        }
      }
    }
  }
};

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

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_parallelism, std::size_t chunk,
                              CancelToken* cancel) {
  if (count == 0) return;
  std::size_t participants = workers_.size() + 1;
  if (max_parallelism != 0)
    participants = std::min(participants, max_parallelism);
  participants = std::min(participants, count);
  if (workers_.size() <= 1 || participants <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      if (cancel && cancel->cancelled()) return;
      fn(i);
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->cancel = cancel;
  batch->count = count;
  batch->chunk =
      chunk ? chunk : std::max<std::size_t>(1, count / (participants * 4));
  for (std::size_t h = 0; h + 1 < participants; ++h) {
    submit([batch] {
      {
        std::lock_guard<std::mutex> lk(batch->mu);
        ++batch->active;
      }
      batch->run();
      std::lock_guard<std::mutex> lk(batch->mu);
      if (--batch->active == 0) batch->cv.notify_all();
    });
  }
  batch->run();  // the caller claims chunks too; it never idles while
                 // unclaimed work remains, so nesting cannot deadlock
  // No chunk may start after this point: exhaust the cursor so a helper
  // dequeued late exits immediately instead of touching fn.
  batch->next.fetch_add(count, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lk(batch->mu);
  batch->cv.wait(lk, [&] { return batch->active == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
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
