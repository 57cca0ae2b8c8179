#include "runtime/thread_pool.h"

#include "observe/ring.h"
#include "observe/trace.h"
#include "support/check.h"

namespace motune::runtime {

namespace {

/// Pushes one runtime event into the calling thread's ring. Callers gate
/// on Tracer::global().enabled(), so the disabled path never reaches here.
void recordEvent(observe::RuntimeEvent::Kind kind, double start, double end,
                 std::int64_t arg0 = 0, std::int64_t arg1 = 0) {
  observe::RuntimeEvent event;
  event.kind = kind;
  event.start = start;
  event.duration = end - start;
  event.arg0 = arg0;
  event.arg1 = arg1;
  observe::RuntimeLog::global().ring().tryPush(event);
}

} // namespace

ThreadPool::ThreadPool(unsigned workers)
    : workers_(workers == 0 ? std::max(1u, std::thread::hardware_concurrency())
                            : workers) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wakeWorkers_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MOTUNE_CHECK(task != nullptr);
  // Propagate the submitter's tracer override: a job worker's parallel
  // evaluations must land in the same per-job trace as its serial ones.
  if (observe::Tracer* active = observe::ScopedTracer::current())
    task = [active, inner = std::move(task)] {
      observe::ScopedTracer scope(active);
      inner();
    };
  {
    std::lock_guard lock(mutex_);
    MOTUNE_CHECK_MSG(!stopping_, "submit() on a stopping pool");
    if (threads_.empty()) {
      threads_.reserve(workers_);
      for (unsigned i = 0; i < workers_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
    }
    queue_.push_back(std::move(task));
    ++inFlight_;
  }
  wakeWorkers_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return inFlight_ == 0; });
}

bool ThreadPool::tryRunOne() {
  std::function<void()> task;
  {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  // One relaxed atomic load when tracing is off (the acceptance budget for
  // the runtime path); when on, the task execution lands in this thread's
  // ring with arg0 = 1 marking a helping joiner rather than a pool worker.
  // Ring events always belong to the process tracer (which owns the rings
  // and drains them with its own epoch), never a per-job override.
  observe::Tracer& tracer = observe::Tracer::process();
  try {
    if (tracer.enabled()) {
      const double start = tracer.now();
      task();
      recordEvent(observe::RuntimeEvent::Kind::Task, start, tracer.now(),
                  /*arg0=*/1);
    } else {
      task();
    }
  } catch (...) {
    finishTask();
    throw;
  }
  finishTask();
  return true;
}

void ThreadPool::finishTask() {
  std::lock_guard lock(mutex_);
  if (--inFlight_ == 0) idle_.notify_all();
}

void ThreadPool::workerLoop() {
  for (;;) {
    observe::Tracer& tracer = observe::Tracer::process();
    const bool traced = tracer.enabled();
    const double waitStart = traced ? tracer.now() : 0.0;
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wakeWorkers_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return; // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (traced) {
      const double taskStart = tracer.now();
      // The wait gap becomes an idle event only when it is long enough to
      // matter on a timeline (>= 1us), keeping ring pressure proportional
      // to actual idleness rather than queue throughput.
      if (taskStart - waitStart >= 1e-6)
        recordEvent(observe::RuntimeEvent::Kind::Idle, waitStart, taskStart);
      task();
      recordEvent(observe::RuntimeEvent::Kind::Task, taskStart, tracer.now());
    } else {
      task();
    }
    finishTask();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

} // namespace motune::runtime
