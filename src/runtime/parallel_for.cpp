#include "runtime/parallel_for.h"

#include "observe/ring.h"
#include "observe/trace.h"
#include "support/check.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>

namespace motune::runtime {

void parallelForBlocked(
    ThreadPool& pool, std::int64_t begin, std::int64_t end, int threads,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  MOTUNE_CHECK(threads >= 1);
  if (end <= begin) return;
  const std::int64_t total = end - begin;
  const auto nChunks = static_cast<std::int64_t>(
      std::min<std::int64_t>(threads, total));
  if (nChunks == 1) {
    // Single-chunk runs (one worker, or total == 1) execute inline on the
    // caller; still record the chunk so single-core machines trace too.
    // Ring events report to the process tracer that owns the rings.
    observe::Tracer& tracer = observe::Tracer::process();
    if (tracer.enabled()) {
      observe::RuntimeEvent event;
      event.kind = observe::RuntimeEvent::Kind::Chunk;
      event.arg0 = begin;
      event.arg1 = end;
      event.start = tracer.now();
      fn(begin, end);
      event.duration = tracer.now() - event.start;
      observe::RuntimeLog::global().ring().tryPush(event);
    } else {
      fn(begin, end);
    }
    return;
  }

  // Static chunking identical to OpenMP schedule(static): ceil-sized blocks.
  const std::int64_t chunk = (total + nChunks - 1) / nChunks;

  // Completion state lives on this stack frame, so every access to it —
  // the workers' decrement, error and notify, the final zero check here —
  // happens under doneMutex. A worker that has released the lock never
  // touches the frame again, and this call cannot see zero (and return)
  // before the last worker has released it. A throwing chunk still counts
  // down; the first error is rethrown here once every chunk has finished.
  std::int64_t remaining = nChunks;
  std::exception_ptr firstError;
  std::mutex doneMutex;
  std::condition_variable doneCv;

  for (std::int64_t c = 0; c < nChunks; ++c) {
    const std::int64_t lo = begin + c * chunk;
    const std::int64_t hi = std::min(end, lo + chunk);
    pool.submit([&, lo, hi] {
      std::exception_ptr error;
      if (lo < hi) {
        try {
          // One relaxed load when tracing is off; when on, each chunk's
          // execution window lands in the executing worker's ring.
          observe::Tracer& tracer = observe::Tracer::process();
          if (tracer.enabled()) {
            observe::RuntimeEvent event;
            event.kind = observe::RuntimeEvent::Kind::Chunk;
            event.arg0 = lo;
            event.arg1 = hi;
            event.start = tracer.now();
            fn(lo, hi);
            event.duration = tracer.now() - event.start;
            observe::RuntimeLog::global().ring().tryPush(event);
          } else {
            fn(lo, hi);
          }
        } catch (...) {
          error = std::current_exception();
        }
      }
      std::lock_guard lock(doneMutex);
      if (error && !firstError) firstError = error;
      if (--remaining == 0) doneCv.notify_all();
    });
  }

  // Help drain the queue while waiting: guarantees progress under nested
  // parallelism (a pool task may itself be inside a parallelFor).
  std::unique_lock lock(doneMutex);
  while (remaining != 0) {
    lock.unlock();
    const bool ran = pool.tryRunOne();
    lock.lock();
    if (!ran)
      doneCv.wait_for(lock, std::chrono::milliseconds(1),
                      [&] { return remaining == 0; });
  }
  if (firstError) std::rethrow_exception(firstError);
}

void parallelFor(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                 int threads, const std::function<void(std::int64_t)>& fn) {
  parallelForBlocked(pool, begin, end, threads,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) fn(i);
                     });
}

} // namespace motune::runtime
