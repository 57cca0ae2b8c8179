#include "tuning/evaluator.h"

#include "observe/trace.h"
#include "runtime/parallel_for.h"
#include "support/check.h"

#include <chrono>

namespace motune::tuning {

namespace {

std::uint64_t nextEvaluatorId() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Per-thread front cache (one per thread, handed between evaluator
/// instances via the owner id). Bounded by the number of unique
/// configurations the owning evaluator has seen — the same bound as the
/// shared memo itself.
struct LocalCache {
  std::uint64_t owner = 0; ///< id_ of the evaluator the contents belong to
  std::uint64_t epoch = 0; ///< epoch_ value the contents were filled under
  std::unordered_map<Config, Objectives, ConfigHash> map;
};

LocalCache& localCache() {
  static thread_local LocalCache cache;
  return cache;
}

} // namespace

CountingEvaluator::CountingEvaluator(ObjectiveFunction& inner)
    : inner_(inner), id_(nextEvaluatorId()),
      uniqueCounter_(observe::MetricsRegistry::global().counter(
          "tuning.evaluations.unique")),
      memoHitCounter_(observe::MetricsRegistry::global().counter(
          "tuning.evaluations.memo_hits")),
      latency_(observe::MetricsRegistry::global().histogram(
          "tuning.evaluation.seconds")) {}

Objectives CountingEvaluator::evaluate(const Config& config) {
  // Front cache: repeat lookups complete without acquiring any lock or
  // writing any shared cache line (both counters below are striped), which
  // is what lets parallel batch evaluation scale past one core.
  LocalCache& local = localCache();
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (local.owner != id_ || local.epoch != epoch) {
    local.owner = id_;
    local.epoch = epoch;
    local.map.clear();
  }
  if (auto cached = local.map.find(config); cached != local.map.end()) {
    hits_.add();
    memoHitCounter_.add();
    return cached->second;
  }

  Shard& shard = shards_[ConfigHash{}(config) & (kShards - 1)];
  for (;;) {
    std::shared_ptr<Slot> slot;
    {
      std::unique_lock lock(shard.mutex);
      auto it = shard.memo.find(config);
      if (it == shard.memo.end()) {
        slot = std::make_shared<Slot>();
        shard.memo.emplace(config, slot);
      } else {
        slot = it->second;
        // Single-flight: a concurrent evaluation of this exact config is
        // in progress — wait for its result instead of evaluating twice.
        shard.ready.wait(lock,
                         [&] { return slot->state != Slot::State::Pending; });
        if (slot->state == Slot::State::Ready) {
          hits_.add();
          memoHitCounter_.add();
          // Don't populate the front cache across a concurrent reset():
          // the value belongs to the epoch it was computed under.
          if (epoch_.load(std::memory_order_relaxed) == local.epoch)
            local.map.emplace(config, slot->value);
          return slot->value;
        }
        continue; // leader failed; retry and elect a new leader
      }
    }

    // This thread is the leader for `config`: evaluate outside any lock.
    const auto begin = std::chrono::steady_clock::now();
    Objectives obj;
    try {
      obj = inner_.evaluate(config);
    } catch (...) {
      std::lock_guard lock(shard.mutex);
      slot->state = Slot::State::Failed;
      shard.memo.erase(config);
      shard.ready.notify_all();
      throw;
    }
    latency_.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count());
    bool current;
    {
      std::lock_guard lock(shard.mutex);
      slot->value = std::move(obj);
      slot->state = Slot::State::Ready;
      // A reset() that raced this evaluation has already dropped the slot
      // from the memo (and zeroed the counters). The computed value is
      // still returned to the caller, but it belongs to the pre-reset
      // epoch: counting it or journaling it would double-book the config
      // once the post-reset world evaluates it again.
      auto it = shard.memo.find(config);
      current = it != shard.memo.end() && it->second == slot;
      if (current) {
        ++shard.evals;
        uniqueCounter_.add();
      }
      shard.ready.notify_all();
      if (epoch_.load(std::memory_order_relaxed) == local.epoch)
        local.map.emplace(config, slot->value);
    }
    // Journal the unique evaluation outside the shard lock; Ready slot
    // values are immutable, so reading slot->value here is race-free.
    if (current && listener_) {
      if (deferJournal_) {
        std::lock_guard lock(deferredMutex_);
        deferred_.emplace(config, slot->value);
      } else {
        listener_(config, slot->value);
      }
    }
    return slot->value;
  }
}

std::vector<Objectives>
CountingEvaluator::evaluateBatch(const std::vector<Config>& configs,
                                 runtime::ThreadPool& pool, bool parallel) {
  BatchEvaluator batch(*this, pool, parallel);
  deferJournal_ = true;
  std::vector<Objectives> out;
  try {
    out = batch.evaluateAll(configs);
  } catch (...) {
    journalDeferred(configs); // keep what completed before the failure
    throw;
  }
  journalDeferred(configs);
  return out;
}

void CountingEvaluator::journalDeferred(const std::vector<Config>& order) {
  deferJournal_ = false;
  for (const Config& config : order) {
    if (deferred_.empty()) break;
    auto it = deferred_.find(config);
    if (it == deferred_.end()) continue;
    listener_(config, it->second);
    deferred_.erase(it);
  }
}

bool CountingEvaluator::preload(const Config& config,
                                const Objectives& objectives) {
  Shard& shard = shards_[ConfigHash{}(config) & (kShards - 1)];
  std::lock_guard lock(shard.mutex);
  auto it = shard.memo.find(config);
  if (it != shard.memo.end()) return false;
  auto slot = std::make_shared<Slot>();
  slot->value = objectives;
  slot->state = Slot::State::Ready;
  shard.memo.emplace(config, std::move(slot));
  ++shard.evals;
  uniqueCounter_.add();
  return true;
}

std::uint64_t CountingEvaluator::evaluations() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    sum += shard.evals;
  }
  return sum;
}

std::uint64_t CountingEvaluator::memoHits() const { return hits_.value(); }

void CountingEvaluator::reset() {
  // Bump the epoch first: threads racing with the reset re-validate their
  // front cache on the next lookup and drop pre-reset contents.
  epoch_.fetch_add(1, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    shard.memo.clear();
    shard.evals = 0;
  }
  hits_.reset();
  // A reset marker makes traces self-delimiting: a resumed job's trace
  // shows where each run's tuning.evaluations.* mirrors started over.
  observe::Tracer& tracer = observe::Tracer::global();
  if (tracer.enabled())
    tracer.event("evaluator.reset",
                 {{"unique", support::Json(uniqueCounter_.value())},
                  {"memo_hits", support::Json(memoHitCounter_.value())}});
  // Keep the process-wide mirrors in lockstep: without this, the second
  // run of a process reports cumulative tuning.evaluations.* counts.
  uniqueCounter_.reset();
  memoHitCounter_.reset();
}

std::vector<Objectives>
BatchEvaluator::evaluateAll(const std::vector<Config>& configs) {
  std::vector<Objectives> out(configs.size());
  if (!parallel_ || configs.size() <= 1) {
    for (std::size_t i = 0; i < configs.size(); ++i)
      out[i] = fn_.evaluate(configs[i]);
    return out;
  }
  runtime::parallelFor(pool_, 0, static_cast<std::int64_t>(configs.size()),
                       static_cast<int>(pool_.workers()),
                       [&](std::int64_t i) {
                         out[static_cast<std::size_t>(i)] =
                             fn_.evaluate(configs[static_cast<std::size_t>(i)]);
                       });
  return out;
}

} // namespace motune::tuning
