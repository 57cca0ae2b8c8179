// Evaluation plumbing around ObjectiveFunction:
//  * CountingEvaluator memoizes evaluated configurations and counts unique
//    evaluations — the E metric of Table VI ("the number of points
//    evaluated for obtaining a solution set");
//  * BatchEvaluator evaluates configuration sets through the thread pool,
//    mirroring the paper's parallel evaluation of independent
//    configurations during compilation (§III.A, §IV).
//
// The memo is two-level. A thread-local front cache serves repeat lookups
// without touching any shared cache line, so parallel batch evaluation of
// previously-seen configurations scales with the thread count instead of
// ping-ponging shard locks between cores. Behind it, the shared memo is
// striped across hash-selected shards (independent mutexes) and has
// single-flight semantics: when several threads ask for the same
// not-yet-evaluated configuration, exactly one evaluates it and the others
// block until the result is published — a duplicate config costs one
// evaluation, never two, regardless of timing. reset() invalidates the
// front caches lazily via an epoch counter.
#pragma once

#include "observe/metrics.h"
#include "runtime/thread_pool.h"
#include "tuning/kernel_problem.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace motune::tuning {

class CountingEvaluator final : public ObjectiveFunction {
public:
  explicit CountingEvaluator(ObjectiveFunction& inner);

  std::size_t numObjectives() const override {
    return inner_.numObjectives();
  }
  const std::vector<ParamSpec>& space() const override {
    return inner_.space();
  }

  Objectives evaluate(const Config& config) override;

  /// Unique configurations evaluated so far (cache hits are free, exactly
  /// as re-running an already-measured variant would be skipped).
  std::uint64_t evaluations() const;

  /// Memoized lookups served without re-evaluation — including lookups
  /// that waited on an in-flight evaluation of the same configuration —
  /// since construction or the last reset().
  std::uint64_t memoHits() const;

  /// Clears the memo and zeroes both the local counters and the
  /// tuning.evaluations.* metric counters, so back-to-back runs in one
  /// process report per-run (not cumulative) counts.
  void reset();

  /// Journal hook for durable sessions (src/session/): called once per
  /// *unique* evaluation — on the leader path, after the result is
  /// published, outside any shard lock, or at the end of an
  /// evaluateBatch() — never for memo hits or preloaded entries. Set it
  /// before evaluation starts; it is read concurrently.
  using EvalListener = std::function<void(const Config&, const Objectives&)>;
  void setListener(EvalListener listener) { listener_ = std::move(listener); }

  /// Evaluates `configs` (in parallel on `pool` when `parallel`), preserving
  /// order, and journals the batch's unique evaluations after it, in the
  /// order their configurations first appear in `configs` — the order a
  /// serial pass journals them in — so the journal does not depend on the
  /// number of workers or on which finished first.
  std::vector<Objectives> evaluateBatch(const std::vector<Config>& configs,
                                        runtime::ThreadPool& pool,
                                        bool parallel);

  /// Pre-seeds the memo with a result recorded by a previous (killed) run.
  /// The configuration counts as one unique evaluation, exactly as if this
  /// evaluator had computed it, so a resumed search reports the same E as
  /// an uninterrupted one; later lookups are ordinary memo hits. Returns
  /// false (and changes nothing) if the config is already memoized or has
  /// an evaluation in flight (the leader's identical result then wins).
  ///
  /// Thread safety: preload() takes the shard lock and may race evaluate()
  /// and reset() — a daemon restart can re-seed one job's evaluator while
  /// other jobs are mid-search. The deterministic-E guarantee, however,
  /// only holds when each search owns its evaluator: the serve layer
  /// enforces per-job evaluator isolation (one AutoTuner per job), pinned
  /// by tests/serve_test.cpp and the concurrency tests in tuning_test.cpp.
  bool preload(const Config& config, const Objectives& objectives);

private:
  // Calls listener_ for the deferred evaluations in `order` and stops
  // deferring.
  void journalDeferred(const std::vector<Config>& order);

  // 16 shards comfortably cover the pool sizes the batch evaluator runs
  // with (machine core counts); power of two so selection is a mask.
  static constexpr std::size_t kShards = 16;

  // One memo entry. Pending entries are in-flight evaluations duplicates
  // wait on; Ready entries hold the published objectives; Failed marks a
  // leader whose evaluation threw (the entry is removed and waiters retry,
  // electing a new leader). Entries are shared_ptrs so waiters keep theirs
  // alive across a concurrent reset() or failure-erase.
  struct Slot {
    enum class State { Pending, Ready, Failed };
    State state = State::Pending;
    Objectives value;
  };

  // Unique-evaluation counts live inside the shard, updated under the
  // shard mutex the miss path already holds. alignas keeps adjacent shards
  // off each other's cache lines.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::condition_variable ready;
    std::unordered_map<Config, std::shared_ptr<Slot>, ConfigHash> memo;
    std::uint64_t evals = 0;
  };

  ObjectiveFunction& inner_;
  std::array<Shard, kShards> shards_;
  // Distinguishes this instance from others a pool thread's front cache
  // may have served (ids are never reused, unlike addresses).
  const std::uint64_t id_;
  // Bumped by reset(); front caches compare-and-clear on their next lookup.
  std::atomic<std::uint64_t> epoch_{0};
  // Memo hits (front-cache or shard) — striped, so the front-cache hit
  // path writes only the calling thread's cell.
  observe::Counter hits_;
  // Unique-evaluation journal hook (empty = disabled).
  EvalListener listener_;
  // While evaluateBatch() runs, the leader path parks unique evaluations
  // in deferred_ instead of calling listener_. The flag is flipped by the
  // batch's caller while no evaluation is in flight.
  bool deferJournal_ = false;
  std::mutex deferredMutex_;
  std::unordered_map<Config, Objectives, ConfigHash> deferred_;
  // Process-wide mirrors exported through the observability layer.
  observe::Counter& uniqueCounter_;
  observe::Counter& memoHitCounter_;
  observe::Histogram& latency_;
};

class BatchEvaluator {
public:
  BatchEvaluator(ObjectiveFunction& fn, runtime::ThreadPool& pool,
                 bool parallel = true)
      : fn_(fn), pool_(pool), parallel_(parallel) {}

  /// Evaluates all configurations (in parallel when enabled), preserving
  /// order.
  std::vector<Objectives> evaluateAll(const std::vector<Config>& configs);

private:
  ObjectiveFunction& fn_;
  runtime::ThreadPool& pool_;
  bool parallel_;
};

} // namespace motune::tuning
