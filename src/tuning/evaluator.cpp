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
          "tuning.evaluation.seconds")) {}

/// Refuses a NaN or infinite objective, naming the config: the Pareto
/// machinery sorts objectives (a NaN breaks the strict weak order) and
/// the session journal cannot represent either value.
static void checkFinite(const Config& config, const Objectives& objectives) {
  if (std::all_of(objectives.begin(), objectives.end(),
                  [](double v) { return std::isfinite(v); }))
    return;
  std::string text = "non-finite objective for config [";
  for (std::size_t d = 0; d < config.size(); ++d)
    text += (d ? ", " : "") + std::to_string(config[d]);
  support::checkFailed("isfinite(objective)", __FILE__, __LINE__, text + "]");
}

const CountingEvaluator::Entry&
CountingEvaluator::publish(const Config& config, Objectives objectives,
                           double seconds) {
  latency_.observe(seconds);
  const Entry& entry = *memo_.emplace(config, std::move(objectives)).first;
  ++evals_;
  uniqueCounter_.add();
  return entry;
}

Objectives CountingEvaluator::evaluate(const Config& config) {
  if (auto it = memo_.find(config); it != memo_.end()) {
    countHit();
    return it->second;
  }
  const auto begin = Clock::now();
  Objectives objectives = inner_.evaluate(config);
  checkFinite(config, objectives);
  const Entry& entry =
      publish(config, std::move(objectives), secondsSince(begin));
  if (listener_) {
    const Entry* batch[] = {&entry};
    listener_(batch);
  }
  return entry.second;
}

std::vector<Objectives>
CountingEvaluator::evaluateBatch(const std::vector<Config>& configs,
                                 runtime::ThreadPool& pool, bool parallel) {
  // Pass 1: serve memo hits; note each miss at its first appearance and
  // each repeat of a miss as (position, miss slot).
  std::vector<Objectives> out(configs.size());
  std::vector<std::size_t> missed;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (auto it = memo_.find(configs[i]); it != memo_.end()) {
      out[i] = it->second;
      countHit();
    } else {
      missed.push_back(i);
    }
  }
  // Group equal configs by sorting the missed positions (stable, so a
  // group starts at its first appearance): no allocation per miss, and
  // O(n log n) for the thousands of configs a random or grid batch holds.
  std::stable_sort(missed.begin(), missed.end(),
                   [&](std::size_t a, std::size_t b) {
                     return configs[a] < configs[b];
                   });
  std::vector<std::size_t> misses;
  std::vector<std::pair<std::size_t, std::size_t>> repeats;
  for (std::size_t k = 0; k < missed.size(); ++k) {
    if (k > 0 && configs[missed[k]] == configs[misses.back()])
      repeats.emplace_back(missed[k], misses.back());
    else
      misses.push_back(missed[k]);
  }
  std::sort(misses.begin(), misses.end()); // first-appearance order
  for (auto& [i, slot] : repeats)
    slot = static_cast<std::size_t>(
        std::lower_bound(misses.begin(), misses.end(), slot) -
        misses.begin());

  // Pass 2: evaluate the distinct misses; a task touches only its slot.
  const std::size_t n = misses.size();
  std::vector<Objectives> results(n);
  std::vector<double> seconds(n);
  std::vector<std::exception_ptr> errors(n);
  std::vector<char> done(n, 0);
  const auto evaluateMiss = [&](std::size_t k) {
    const auto begin = Clock::now();
    try {
      results[k] = inner_.evaluate(configs[misses[k]]);
      checkFinite(configs[misses[k]], results[k]);
      done[k] = 1;
    } catch (...) {
      errors[k] = std::current_exception();
    }
    seconds[k] = secondsSince(begin);
  };
  if (parallel && n > 1) {
    runtime::parallelFor(pool, 0, static_cast<std::int64_t>(n),
                         static_cast<int>(pool.workers()), evaluateMiss);
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      evaluateMiss(k);
      if (errors[k]) break;
    }
  }

  // Pass 3: publish the completed misses in first-appearance order and
  // journal them, then serve the repeats and rethrow the first failure.
  std::exception_ptr failure;
  std::vector<const Entry*> published;
  if (listener_) published.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (done[k]) {
      const Entry& entry =
          publish(configs[misses[k]], std::move(results[k]), seconds[k]);
      out[misses[k]] = entry.second;
      if (listener_) published.push_back(&entry);
    } else if (!failure) {
      failure = errors[k];
    }
  }
  if (listener_ && !published.empty()) listener_(published);
  for (const auto& [i, k] : repeats) {
    if (!done[k]) continue;
    out[i] = out[misses[k]];
    countHit();
  }
  if (failure) std::rethrow_exception(failure);
  return out;
}

bool CountingEvaluator::preload(const Config& config,
                                const Objectives& objectives) {
  checkFinite(config, objectives);
  if (!memo_.emplace(config, objectives).second) return false;
  ++evals_;
  uniqueCounter_.add();
  return true;
}

} // namespace motune::tuning
