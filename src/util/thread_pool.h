// Fixed-size worker pool with a futures-style Submit API.

#ifndef VDB_UTIL_THREAD_POOL_H_
#define VDB_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vdb::util {

/// A fixed-size worker pool with a futures-style Submit API. The
/// multi-tenant server runs its query workers on one, and the design
/// search fans what-if probes out over one; a single query never uses a
/// pool (query execution is single-threaded).
///
/// Tasks run in FIFO submission order (each on whichever worker frees up
/// first). The pool joins all workers on destruction after draining the
/// queue, so submitted tasks always complete unless the process exits.
///
/// Thread-safe: Submit may be called concurrently from any thread,
/// including from inside a task (tasks must not *block* on futures of
/// tasks submitted to the same pool, or the pool can deadlock when all
/// workers wait — the search layer only ever blocks from the caller's
/// thread).
class ThreadPool {
 public:
  /// Creates `num_threads` workers; values < 1 are clamped to 1.
  /// Use HardwareConcurrency() to size the pool to the machine.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Number of hardware threads, with a sane fallback of 1.
  static int HardwareConcurrency();

  /// Blocks until the queue is empty and no worker is running a task.
  /// Tasks submitted while Wait blocks extend the wait; a task that threw
  /// still counts as finished, so Wait never deadlocks on failures. Must
  /// not be called from inside a task (it would wait for itself).
  void Wait();

  /// Schedules `fn` and returns a future for its result. Exceptions
  /// thrown by `fn` propagate through the future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

 private:
  // A queued task plus its enqueue timestamp (0 when metrics were
  // disabled at enqueue time; see thread_pool.cc instrumentation).
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueued_nanos = 0;
  };

  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  /// Signals Wait() whenever the pool might have gone idle.
  std::condition_variable done_cv_;
  std::deque<QueuedTask> queue_;
  /// Tasks currently executing on a worker (dequeued but not finished).
  size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vdb::util

#endif  // VDB_UTIL_THREAD_POOL_H_
