// Persistent worker pool: the execution substrate standing in for the
// Insieme Runtime System's task processing (DESIGN.md §1).
//
// Kernels execute through parallel_for (see parallel_for.h) on this pool;
// the batch evaluator of the static optimizer also uses it to evaluate
// configurations concurrently, mirroring the paper's parallel evaluation
// of configuration sets (§III.A label 3).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace motune::runtime {

class ThreadPool {
public:
  /// A pool of `workers` threads (0 = hardware concurrency). The threads
  /// start at the first submit(): a tune whose engine evaluates on its own
  /// thread never pays for starting and joining them, which on a loaded
  /// machine costs milliseconds.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution. A task that throws on a
  /// worker ends the process; parallelFor catches its bodies' errors and
  /// rethrows them on the calling thread.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait();

  /// Runs one queued task on the calling thread if any is pending; returns
  /// false when the queue is empty. Blocked joiners (parallel_for) use this
  /// to help drain the queue, which makes nested parallelism deadlock-free
  /// even on a single-worker pool.
  /// A task that throws here still counts as finished; the error
  /// propagates to the caller.
  bool tryRunOne();

  unsigned workers() const { return workers_; }

  /// Process-wide default pool, sized to the hardware.
  static ThreadPool& global();

private:
  void workerLoop();
  void finishTask();

  std::mutex mutex_;
  std::condition_variable wakeWorkers_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  unsigned workers_;
  std::vector<std::thread> threads_; ///< empty until the first submit()
  std::size_t inFlight_ = 0;
  bool stopping_ = false;
};

} // namespace motune::runtime
