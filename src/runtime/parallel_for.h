// Work-sharing parallel loop over an index range — the `#pragma omp
// parallel for schedule(static)` equivalent of the Insieme-runtime
// substitute. Kernels invoke it with the thread count selected by the
// version table, so a multi-versioned region really executes with the
// parallelism its metadata promises.
#pragma once

#include "runtime/thread_pool.h"

#include <cstdint>
#include <functional>

namespace motune::runtime {

/// Executes fn(i) for i in [begin, end) using `threads` logical threads with
/// static chunking (contiguous blocks, as OpenMP schedule(static) does).
/// Blocks until all iterations complete. threads <= 1 runs inline. If fn
/// throws, its chunk stops there, every other chunk still runs, and the
/// first error (in completion order) is rethrown to the caller.
void parallelFor(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                 int threads, const std::function<void(std::int64_t)>& fn);

/// Block variant: fn(chunkBegin, chunkEnd) per static chunk; lower overhead
/// for fine-grained iterations (each worker gets one contiguous block).
void parallelForBlocked(
    ThreadPool& pool, std::int64_t begin, std::int64_t end, int threads,
    const std::function<void(std::int64_t, std::int64_t)>& fn);

} // namespace motune::runtime
