#include "tuning/evaluator.h"

#include "runtime/parallel_for.h"
#include "support/check.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <string>

namespace motune::tuning {

using Clock = std::chrono::steady_clock;
static double secondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

CountingEvaluator::CountingEvaluator(ObjectiveFunction& inner)
    : inner_(inner),
      uniqueCounter_(observe::MetricsRegistry::global().counter(
          "tuning.evaluations.unique")),
      memoHitCounter_(observe::MetricsRegistry::global().counter(
          "tuning.evaluations.memo_hits")),
      latency_(observe::MetricsRegistry::global().histogram(
          "tuning.evaluation.seconds")) {
  // A default tune evaluates 1,000-3,000 configs: rehash rarely, if ever.
  memo_.reserve(2048);
}

/// Refuses an empty objective vector or a NaN or infinite objective,
/// naming the config: the Pareto machinery sorts objectives (a NaN breaks
/// the strict weak order), the session journal cannot represent either
/// value, and the memo marks a configuration still being evaluated by its
/// empty objectives.
static void checkObjectives(const Config& config,
                            const Objectives& objectives) {
  const char* problem = nullptr;
  if (objectives.empty())
    problem = "empty objective vector";
  else if (!std::all_of(objectives.begin(), objectives.end(),
                        [](double v) { return std::isfinite(v); }))
    problem = "non-finite objective";
  if (problem == nullptr) return;
  std::string text = std::string(problem) + " for config [";
  for (std::size_t d = 0; d < config.size(); ++d)
    text += (d ? ", " : "") + std::to_string(config[d]);
  support::checkFailed("objectives are finite and non-empty", __FILE__,
                       __LINE__, text + "]");
}

Objectives CountingEvaluator::evaluate(const Config& config) {
  if (auto it = memo_.find(config); it != memo_.end()) {
    countHits(1);
    return it->second;
  }
  const auto begin = Clock::now();
  Objectives objectives = inner_.evaluate(config);
  checkObjectives(config, objectives);
  latency_.observe(secondsSince(begin));
  const Entry& entry = *memo_.emplace(config, std::move(objectives)).first;
  ++evals_;
  uniqueCounter_.add();
  if (listener_) {
    const Entry* batch[] = {&entry};
    listener_(batch);
  }
  return entry.second;
}

std::vector<const Objectives*>
CountingEvaluator::evaluateBatch(std::span<const Config> configs,
                                 runtime::ThreadPool& pool, bool parallel) {
  BatchScratch& s = scratch_;
  s.misses.clear();
  s.repeats.clear();
  // However the batch ends, no entry it left pending stays in the memo.
  struct PendingCleanup {
    CountingEvaluator& self;
    ~PendingCleanup() {
      for (const Miss& miss : self.scratch_.misses)
        if (miss.entry->second.empty())
          self.memo_.erase(self.memo_.find(miss.entry->first));
    }
  } cleanup{*this};

  // Pass 1: one memo lookup per config. A hit is served; a new config gets
  // a pending entry (empty objectives) at its first appearance, which its
  // repeats in the batch then find.
  std::vector<const Objectives*> out(configs.size(), nullptr);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    auto [it, inserted] = memo_.try_emplace(configs[i]);
    if (inserted) {
      s.misses.push_back({&*it, i});
    } else if (it->second.empty()) {
      s.repeats.push_back({&*it, i});
    } else {
      out[i] = &it->second;
      ++hits;
    }
  }
  countHits(hits);
  if (s.misses.empty()) return out;

  // Pass 2: evaluate the distinct misses; a task touches only its slot.
  const std::size_t n = s.misses.size();
  s.results.resize(n);
  s.seconds.assign(n, 0.0);
  s.errors.assign(n, nullptr);
  s.done.assign(n, 0);
  const auto evaluateMiss = [&](std::size_t k) {
    const Config& config = s.misses[k].entry->first;
    try {
      s.results[k] = inner_.evaluate(config);
      checkObjectives(config, s.results[k]);
      s.done[k] = 1;
    } catch (...) {
      s.errors[k] = std::current_exception();
    }
  };
  if (parallel && n > 1) {
    runtime::parallelFor(pool, 0, static_cast<std::int64_t>(n),
                         static_cast<int>(pool.workers()),
                         [&](std::size_t k) {
                           const auto begin = Clock::now();
                           evaluateMiss(k);
                           s.seconds[k] = secondsSince(begin);
                         });
  } else {
    // Each miss ends where the next begins: one clock read per miss.
    auto begin = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
      evaluateMiss(k);
      const auto end = Clock::now();
      s.seconds[k] = std::chrono::duration<double>(end - begin).count();
      begin = end;
      if (s.errors[k]) break;
    }
  }

  // Pass 3: memoize and count the completed misses in first-appearance
  // order, serve their repeats, record the latencies and journal them;
  // then count the served repeats as hits and rethrow the first failure.
  std::exception_ptr failure;
  std::size_t timed = 0;
  s.published.clear();
  for (std::size_t k = 0; k < n; ++k) {
    Entry& entry = *s.misses[k].entry;
    if (s.done[k]) {
      entry.second = std::move(s.results[k]);
      out[s.misses[k].position] = &entry.second;
      s.seconds[timed++] = s.seconds[k];
      s.published.push_back(&entry);
    } else if (!failure) {
      failure = s.errors[k];
    }
  }
  hits = 0;
  for (const Miss& repeat : s.repeats) {
    if (repeat.entry->second.empty()) continue; // its miss failed
    out[repeat.position] = &repeat.entry->second;
    ++hits;
  }
  evals_ += timed;
  uniqueCounter_.add(timed);
  latency_.observe(std::span<const double>(s.seconds.data(), timed));
  if (listener_ && !s.published.empty()) listener_(s.published);
  countHits(hits);
  if (failure) std::rethrow_exception(failure);
  return out;
}

bool CountingEvaluator::preload(const Config& config,
                                const Objectives& objectives) {
  checkObjectives(config, objectives);
  if (!memo_.emplace(config, objectives).second) return false;
  ++evals_;
  uniqueCounter_.add();
  return true;
}

} // namespace motune::tuning
