// CountingEvaluator memoizes evaluated configurations and counts unique
// evaluations — the E metric of Table VI ("the number of points evaluated
// for obtaining a solution set"). evaluateBatch() can fan a batch's new
// configurations out to the thread pool, as the paper evaluates
// independent configurations in parallel (§III.A, §IV).
//
// Ownership contract: the memo is a plain map owned by one thread, the
// search engine's, which makes every call on this class. Pool threads only
// run inner.evaluate(), each on a distinct configuration of one batch, so
// the inner function must allow concurrent calls on different configs.
// Concurrent searches (serve jobs, islands) each own an evaluator.
#pragma once

#include "observe/metrics.h"
#include "runtime/thread_pool.h"
#include "tuning/kernel_problem.h"

#include <cstdint>
#include <exception>
#include <functional>
#include <memory_resource>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace motune::tuning {

class CountingEvaluator final : public ObjectiveFunction {
public:
  explicit CountingEvaluator(ObjectiveFunction& inner);

  std::size_t numObjectives() const override { return inner_.numObjectives(); }
  const std::vector<ParamSpec>& space() const override {
    return inner_.space();
  }

  /// Memoized inner evaluation. An empty objective vector or a NaN or
  /// infinite objective is a support::CheckError naming the config, and
  /// is not memoized.
  Objectives evaluate(const Config& config) override;

  /// Unique configurations evaluated or preloaded (memo hits are free).
  std::uint64_t evaluations() const { return evals_; }

  /// Lookups served from the memo, repeats within one batch included.
  std::uint64_t memoHits() const { return hits_; }

  /// One memoized evaluation; the memo never moves or drops an entry, so
  /// a pointer to one stays valid for the evaluator's lifetime.
  using Entry = std::pair<const Config, Objectives>;

  /// Journal hook for durable sessions (src/session/): called once per
  /// evaluate() or evaluateBatch() that evaluated anything, with its
  /// unique evaluations in first-appearance order (a single evaluate() is
  /// a batch of one), before the call returns; never for hits or preloads.
  using EvalListener = std::function<void(std::span<const Entry* const>)>;
  void setListener(EvalListener listener) { listener_ = std::move(listener); }

  /// Evaluates `configs`, preserving order: serves memo hits, evaluates
  /// each distinct miss once (through `pool` when `parallel`), then
  /// memoizes, counts and journals the misses in first-appearance order,
  /// so E, memoHits() and the journal match a serial pass at any pool
  /// size. Returns, per config, the memo's objectives for it (which stay
  /// valid for the evaluator's lifetime). If a miss throws, the completed
  /// misses are published and the first failure is rethrown; the serial
  /// path stops at that miss. A miss with empty, NaN or infinite
  /// objectives fails the same way, with a support::CheckError naming its
  /// config (as evaluate() and preload() refuse one).
  std::vector<const Objectives*> evaluateBatch(std::span<const Config> configs,
                                               runtime::ThreadPool& pool,
                                               bool parallel);
  std::vector<const Objectives*> evaluateBatch(
      const std::vector<Config>& configs, runtime::ThreadPool& pool,
      bool parallel) {
    return evaluateBatch(std::span<const Config>(configs), pool, parallel);
  }

  /// Pre-seeds the memo with a result journaled by a previous (killed)
  /// run. It counts as a unique evaluation, so a resumed search reports
  /// the same E as an uninterrupted one. Returns false (and changes
  /// nothing) if the config is already memoized. Empty, NaN or infinite
  /// objectives are a support::CheckError.
  bool preload(const Config& config, const Objectives& objectives);

private:
  void countHits(std::uint64_t n) {
    if (n == 0) return;
    hits_ += n;
    memoHitCounter_.add(n);
  }

  /// A memo entry a batch evaluates, at a position of the batch.
  struct Miss {
    Entry* entry;
    std::size_t position;
  };
  /// evaluateBatch's per-miss state, kept across batches so a batch
  /// allocates only what its results need.
  struct BatchScratch {
    std::vector<Miss> misses;  ///< first appearances, in batch order
    std::vector<Miss> repeats; ///< later appearances of a miss
    std::vector<Objectives> results;
    std::vector<double> seconds;
    std::vector<std::exception_ptr> errors;
    std::vector<char> done;
    std::vector<const Entry*> published;
  };

  ObjectiveFunction& inner_;
  // The memo only grows, so its nodes come from an arena it frees whole;
  // keys and objectives stay ordinary vectors (Entry is unchanged).
  std::pmr::monotonic_buffer_resource arena_;
  std::pmr::unordered_map<Config, Objectives, ConfigHash> memo_{&arena_};
  std::uint64_t evals_ = 0;
  std::uint64_t hits_ = 0;
  EvalListener listener_;
  BatchScratch scratch_;
  // Process-wide mirrors exported through the observability layer.
  observe::Counter& uniqueCounter_;
  observe::Counter& memoHitCounter_;
  observe::Histogram& latency_;
};

} // namespace motune::tuning
