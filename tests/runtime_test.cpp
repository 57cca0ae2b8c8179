#include "multiversion/version_table.h"
#include "runtime/parallel_for.h"
#include "runtime/policy.h"
#include "runtime/region.h"
#include "runtime/thread_pool.h"
#include "support/check.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace motune::runtime {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

/// Threads of this process, or -1 where /proc/self/task is not readable.
long processThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<long>(
      std::distance(it, std::filesystem::directory_iterator()));
}

TEST(ThreadPool, StartsItsWorkersAtTheFirstSubmit) {
  const long before = processThreads();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is not readable";
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  EXPECT_EQ(processThreads(), before);
  std::atomic<int> offCaller{0};
  const std::thread::id caller = std::this_thread::get_id();
  pool.submit([&] { offCaller += std::this_thread::get_id() != caller; });
  pool.wait();
  EXPECT_EQ(offCaller.load(), 1);
  EXPECT_EQ(processThreads(), before + 4);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallelFor(pool, 0, n, 7, [&](std::int64_t i) { ++hits[i]; });
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  ThreadPool pool(2);
  int calls = 0;
  parallelFor(pool, 5, 5, 4, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(pool, 5, 6, 4, [&](std::int64_t i) {
    EXPECT_EQ(i, 5);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, BlockedChunksAreContiguousAndDisjoint) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallelForBlocked(pool, 0, 100, 7,
                     [&](std::int64_t lo, std::int64_t hi) {
                       std::lock_guard lock(m);
                       chunks.emplace_back(lo, hi);
                     });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 7u);
  EXPECT_EQ(chunks.front().first, 0);
  EXPECT_EQ(chunks.back().second, 100);
  for (std::size_t i = 1; i < chunks.size(); ++i)
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
}

TEST(ParallelFor, MoreThreadsThanIterations) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallelFor(pool, 0, 3, 16, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelFor, NestedParallelismDoesNotDeadlock) {
  ThreadPool pool(1); // worst case: a single worker
  std::atomic<int> total{0};
  parallelFor(pool, 0, 4, 4, [&](std::int64_t) {
    parallelFor(pool, 0, 8, 4, [&](std::int64_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

/// Overwrites the stack just below the caller, where the frame of a call
/// that has just returned used to be.
__attribute__((noinline)) void scribbleStack() {
  volatile unsigned char junk[2048];
  for (volatile unsigned char& c : junk) c = 0xA5;
}

TEST(ParallelFor, BackToBackCallsFromManyThreadsShareOnePool) {
  // Regression: the last worker of a call used to drop the remaining count
  // to zero before locking the caller's stack-allocated mutex, so the
  // caller could return first and the worker then locked a dead frame.
  // Scribbling over that frame right after each call turns the late lock
  // into a crash or hang instead of a silent read.
  constexpr int kCalls = 5000;
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        parallelFor(pool, 0, 4, 4, [&](std::int64_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
        scribbleStack();
      }
    });
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 4 * kCalls * 4);
}

TEST(ParallelFor, ThrowOffTheCallersThreadReachesTheCaller) {
  // A throwing body on a pool worker used to call std::terminate. The
  // caller's own chunks wait until a worker has thrown, so the throw is
  // known to happen off the caller's thread.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> thrown{0};
  const auto body = [&](std::int64_t) {
    if (std::this_thread::get_id() != caller) {
      ++thrown;
      throw std::runtime_error("worker failed");
    }
    for (int spins = 0; thrown.load() == 0 && spins < 5000; ++spins)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  EXPECT_THROW(parallelFor(pool, 0, 64, 4, body), std::runtime_error);
  EXPECT_GT(thrown.load(), 0);

  // The pool is still usable.
  std::atomic<int> calls{0};
  parallelFor(pool, 0, 64, 4, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 64);
  pool.submit([&] { ++calls; });
  pool.wait();
  EXPECT_EQ(calls.load(), 65);
}

TEST(ParallelFor, ThrowOnTheCallersChunkWaitsForTheOtherChunks) {
  // The other chunks count down on the caller's stack frame, so the
  // caller may only rethrow once every chunk has finished.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> offCaller{0};
  std::atomic<int> finished{0};
  bool threw = false;
  try {
    parallelForBlocked(pool, 0, 64, 4, [&](std::int64_t lo, std::int64_t hi) {
      if (std::this_thread::get_id() == caller)
        throw std::runtime_error("caller failed");
      ++offCaller;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished += static_cast<int>(hi - lo);
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  // Every chunk that ran on a worker had finished before the call returned.
  EXPECT_EQ(finished.load(), offCaller.load() * 16);
  EXPECT_EQ(threw, offCaller.load() < 4) << "the caller ran a chunk";
  pool.wait();
}

mv::VersionTable makeTable() {
  // Mimics a Pareto front: faster versions use more threads/resources.
  mv::VersionTable table("region");
  struct Row {
    double time;
    int threads;
  };
  for (const Row r : {Row{0.10, 40}, Row{0.20, 20}, Row{0.55, 10},
                      Row{1.00, 1}}) {
    mv::CodeVersion v;
    v.meta.threads = r.threads;
    v.meta.timeSeconds = r.time;
    v.meta.resources = r.time * r.threads;
    v.meta.tileSizes = {8, 8, 8};
    v.run = [](int) {};
    table.add(std::move(v));
  }
  return table;
}

TEST(VersionTable, SortedByTimeAndRanges) {
  const mv::VersionTable t = makeTable();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t[0].meta.timeSeconds, 0.10);
  EXPECT_DOUBLE_EQ(t[3].meta.timeSeconds, 1.00);
  EXPECT_EQ(t.fastest(), 0u);
  EXPECT_EQ(t.mostEfficient(), 3u); // serial: resources == 1.0 < others
  EXPECT_DOUBLE_EQ(t.timeRange().first, 0.10);
  EXPECT_DOUBLE_EQ(t.resourceRange().second, 5.5);
}

TEST(Policy, WeightedSumExtremes) {
  const mv::VersionTable t = makeTable();
  EXPECT_EQ(WeightedSumPolicy(1.0, 0.0).select(t), t.fastest());
  EXPECT_EQ(WeightedSumPolicy(0.0, 1.0).select(t), t.mostEfficient());
}

TEST(Policy, WeightedSumMinimizesNormalizedScore) {
  const mv::VersionTable t = makeTable();
  const double wT = 0.5, wR = 0.5;
  const std::size_t pick = WeightedSumPolicy(wT, wR).select(t);
  // Recompute the normalized weighted score and verify minimality.
  const auto [tLo, tHi] = t.timeRange();
  const auto [rLo, rHi] = t.resourceRange();
  auto score = [&](std::size_t i) {
    return wT * (t[i].meta.timeSeconds - tLo) / (tHi - tLo) +
           wR * (t[i].meta.resources - rLo) / (rHi - rLo);
  };
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_LE(score(pick), score(i) + 1e-12);
}

TEST(Policy, TimeBudgetPicksMostEfficientWithinBudget) {
  const mv::VersionTable t = makeTable();
  // Budget 0.6 s: versions 0.10/0.20/0.55 qualify; 0.55s@10t has the
  // lowest resource usage (5.5 < 4.0? no: 0.2*20=4.0, 0.1*40=4.0, 0.55*10=5.5)
  // -> 0.20s@20t and 0.10s@40t tie at 4.0; the scan keeps the first found.
  const std::size_t pick = TimeBudgetPolicy(0.6).select(t);
  EXPECT_LE(t[pick].meta.timeSeconds, 0.6);
  EXPECT_LE(t[pick].meta.resources, 4.0);
}

TEST(Policy, TimeBudgetFallsBackToFastest) {
  const mv::VersionTable t = makeTable();
  EXPECT_EQ(TimeBudgetPolicy(0.01).select(t), t.fastest());
}

TEST(Policy, EfficiencyFloorSelectsFastestEfficientVersion) {
  const mv::VersionTable t = makeTable();
  // serial reference = 1.0 s. Efficiencies: 1.0/4.0=0.25 (40t),
  // 1.0/4.0=0.25 (20t), 1.0/5.5=0.18 (10t), 1.0 (1t).
  EXPECT_EQ(EfficiencyFloorPolicy(0.9).select(t), 3u);
  const std::size_t pick = EfficiencyFloorPolicy(0.2).select(t);
  EXPECT_LE(t[pick].meta.timeSeconds, 0.2 + 1e-12);
}

TEST(Policy, ThreadCapRespectsAvailableCores) {
  const mv::VersionTable t = makeTable();
  EXPECT_EQ(t[ThreadCapPolicy(10).select(t)].meta.threads, 10);
  EXPECT_EQ(t[ThreadCapPolicy(1).select(t)].meta.threads, 1);
  EXPECT_EQ(t[ThreadCapPolicy(100).select(t)].meta.threads, 40);
}

// --- Property tests over degenerate and randomized tables (ISSUE 8) ------

mv::VersionTable singleVersionTable() {
  mv::VersionTable t("solo");
  mv::CodeVersion v;
  v.meta.threads = 8;
  v.meta.timeSeconds = 0.3;
  v.meta.resources = 2.4;
  v.run = [](int) {};
  t.add(std::move(v));
  return t;
}

mv::VersionTable allEqualTable(std::size_t n) {
  mv::VersionTable t("flat");
  for (std::size_t i = 0; i < n; ++i) {
    mv::CodeVersion v;
    v.meta.threads = 4;
    v.meta.timeSeconds = 0.5; // identical objectives: both ranges collapse
    v.meta.resources = 2.0;
    v.run = [](int) {};
    t.add(std::move(v));
  }
  return t;
}

TEST(PolicyProperty, WeightedSumSingleVersionDoesNotDivideByZero) {
  // A one-row table collapses both min-max ranges to zero width; the
  // normalization must degrade gracefully instead of producing NaN.
  const mv::VersionTable t = singleVersionTable();
  for (const auto& [wT, wR] :
       {std::pair{1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}, {3.0, 7.0}}) {
    EXPECT_EQ(WeightedSumPolicy(wT, wR).select(t), 0u);
  }
}

TEST(PolicyProperty, WeightedSumAllEqualObjectivesPicksAValidIndex) {
  const mv::VersionTable t = allEqualTable(5);
  for (const auto& [wT, wR] :
       {std::pair{1.0, 0.0}, {0.0, 1.0}, {0.25, 0.75}}) {
    const std::size_t pick = WeightedSumPolicy(wT, wR).select(t);
    EXPECT_LT(pick, t.size());
  }
}

TEST(PolicyProperty, WeightedSumPickMinimizesScoreOnRandomTables) {
  support::Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    mv::VersionTable t("random");
    const int n = static_cast<int>(rng.uniformInt(1, 8));
    for (int i = 0; i < n; ++i) {
      mv::CodeVersion v;
      v.meta.threads = static_cast<int>(rng.uniformInt(1, 64));
      v.meta.timeSeconds = rng.uniform(0.01, 2.0);
      v.meta.resources = v.meta.timeSeconds * v.meta.threads;
      v.run = [](int) {};
      t.add(std::move(v));
    }
    const double wT = rng.uniform();
    const double wR = rng.uniform();
    const std::size_t pick = WeightedSumPolicy(wT, wR).select(t);
    ASSERT_LT(pick, t.size());
    const auto [tLo, tHi] = t.timeRange();
    const auto [rLo, rHi] = t.resourceRange();
    const double tSpan = tHi > tLo ? tHi - tLo : 1.0;
    const double rSpan = rHi > rLo ? rHi - rLo : 1.0;
    auto score = [&](std::size_t i) {
      return wT * (t[i].meta.timeSeconds - tLo) / tSpan +
             wR * (t[i].meta.resources - rLo) / rSpan;
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_LE(score(pick), score(i) + 1e-12)
          << "trial " << trial << ": index " << i << " beats pick " << pick;
      EXPECT_FALSE(std::isnan(score(i)));
    }
  }
}

TEST(PolicyProperty, TimeBudgetFallbackAndFeasibilityOnRandomTables) {
  // Whenever any version meets the budget the pick must meet it too;
  // when none does, the pick must be the fastest version.
  support::Rng rng(4711);
  for (int trial = 0; trial < 100; ++trial) {
    mv::VersionTable t("random");
    const int n = static_cast<int>(rng.uniformInt(1, 8));
    for (int i = 0; i < n; ++i) {
      mv::CodeVersion v;
      v.meta.threads = static_cast<int>(rng.uniformInt(1, 64));
      v.meta.timeSeconds = rng.uniform(0.01, 2.0);
      v.meta.resources = v.meta.timeSeconds * v.meta.threads;
      v.run = [](int) {};
      t.add(std::move(v));
    }
    const double budget = rng.uniform(0.0, 2.5);
    const std::size_t pick = TimeBudgetPolicy(budget).select(t);
    ASSERT_LT(pick, t.size());
    const bool feasible = t[t.fastest()].meta.timeSeconds <= budget;
    if (feasible) {
      EXPECT_LE(t[pick].meta.timeSeconds, budget);
    } else {
      EXPECT_EQ(pick, t.fastest());
    }
  }
}

TEST(PolicyProperty, SingleVersionTableIsAFixedPointForEveryPolicy) {
  const mv::VersionTable t = singleVersionTable();
  EXPECT_EQ(TimeBudgetPolicy(0.001).select(t), 0u); // fallback path
  EXPECT_EQ(TimeBudgetPolicy(10.0).select(t), 0u);
  EXPECT_EQ(EfficiencyFloorPolicy(0.99).select(t), 0u);
  EXPECT_EQ(ThreadCapPolicy(1).select(t), 0u);
  EXPECT_EQ(ThreadCapPolicy(100).select(t), 0u);
}

TEST(Region, InvokeRunsSelectedVersionAndCounts) {
  mv::VersionTable table("r");
  std::vector<int> runs(2, 0);
  // A genuine trade-off: the fast version costs more resources.
  for (int v = 0; v < 2; ++v) {
    mv::CodeVersion cv;
    cv.meta.threads = v == 0 ? 4 : 1;
    cv.meta.timeSeconds = v == 0 ? 0.1 : 1.0;
    cv.meta.resources = v == 0 ? 0.4 : 0.2;
    cv.run = [&runs, v](int threads) {
      EXPECT_EQ(threads, v == 0 ? 4 : 1);
      ++runs[v];
    };
    table.add(std::move(cv));
  }
  Region region(std::move(table));
  WeightedSumPolicy fastestPolicy(1.0, 0.0);
  const std::size_t fast = region.invoke(fastestPolicy);
  EXPECT_EQ(fast, 0u);
  WeightedSumPolicy thriftyPolicy(0.0, 1.0);
  region.invoke(thriftyPolicy);
  EXPECT_EQ(runs[0], 1);
  EXPECT_EQ(runs[1], 1);
  EXPECT_EQ(region.totalInvocations(), 2u);
  EXPECT_EQ(region.invocationCounts()[0], 1u);
}

TEST(VersionTable, RejectsNonPositiveTime) {
  mv::VersionTable table("r");
  mv::CodeVersion v;
  v.meta.timeSeconds = 0.0;
  EXPECT_THROW(table.add(std::move(v)), support::CheckError);
}

} // namespace
} // namespace motune::runtime
