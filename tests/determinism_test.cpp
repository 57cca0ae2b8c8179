// Determinism guarantees of the optimization pipeline: a fixed seed must
// produce identical results regardless of evaluation parallelism or thread
// pool size. Everything the paper reports (fronts, evaluation counts,
// hypervolume trajectories) relies on this for reproducibility.
#include "core/gde3.h"
#include "core/rsgde3.h"
#include "core/testproblems.h"
#include "runtime/thread_pool.h"
#include "support/rng.h"
#include "tuning/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <thread>

using namespace motune;

namespace {

/// The objectives an evaluateBatch() result points at, copied out.
std::vector<tuning::Objectives> valuesOf(
    const std::vector<const tuning::Objectives*>& batch) {
  std::vector<tuning::Objectives> out;
  for (const tuning::Objectives* objectives : batch) out.push_back(*objectives);
  return out;
}

/// Canonical, order-insensitive rendering of a front for comparison:
/// configs with bit-exact objective values.
std::multiset<std::pair<tuning::Config, tuning::Objectives>>
canonicalFront(const std::vector<opt::Individual>& front) {
  std::multiset<std::pair<tuning::Config, tuning::Objectives>> out;
  for (const auto& ind : front) out.emplace(ind.config, ind.objectives);
  return out;
}

struct RunOutcome {
  std::multiset<std::pair<tuning::Config, tuning::Objectives>> front;
  std::uint64_t evaluations = 0;
  int generations = 0;
  std::vector<double> hvHistory;

  bool operator==(const RunOutcome&) const = default;
};

RunOutcome runGDE3(unsigned poolWorkers, bool parallelEvaluation,
                   std::uint64_t seed) {
  opt::SyntheticProblem problem = opt::makeSchaffer();
  runtime::ThreadPool pool(poolWorkers);
  opt::GDE3Options options;
  options.seed = seed;
  options.maxGenerations = 12; // bounded, identical across runs
  options.parallelEvaluation = parallelEvaluation;
  opt::GDE3 engine(problem, pool, options);
  const opt::OptResult result = engine.run();
  return {canonicalFront(result.front), result.evaluations,
          result.generations, result.hvHistory};
}

RunOutcome runRSGDE3(unsigned poolWorkers, bool parallelEvaluation,
                     std::uint64_t seed) {
  opt::SyntheticProblem problem = opt::makeFonseca();
  runtime::ThreadPool pool(poolWorkers);
  opt::RSGDE3Options options;
  options.gde3.seed = seed;
  options.gde3.maxGenerations = 10;
  options.gde3.parallelEvaluation = parallelEvaluation;
  opt::RSGDE3 engine(problem, pool, options);
  const opt::OptResult result = engine.run();
  return {canonicalFront(result.front), result.evaluations,
          result.generations, result.hvHistory};
}

/// Objective function that records how often each configuration reaches
/// the inner evaluation and sleeps long enough that concurrent calls
/// overlap in time — the probe for "each duplicate is evaluated once".
class SlowProbe final : public tuning::ObjectiveFunction {
public:
  SlowProbe() : space_{{"x", 0, 1000}} {}

  std::size_t numObjectives() const override { return 2; }
  const std::vector<tuning::ParamSpec>& space() const override {
    return space_;
  }

  tuning::Objectives evaluate(const tuning::Config& config) override {
    {
      std::lock_guard lock(mutex_);
      ++evalCount_[config];
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const double x = static_cast<double>(config.front());
    return {x * x, (x - 2.0) * (x - 2.0)};
  }

  std::map<tuning::Config, int> counts() const {
    std::lock_guard lock(mutex_);
    return evalCount_;
  }

private:
  std::vector<tuning::ParamSpec> space_;
  mutable std::mutex mutex_;
  std::map<tuning::Config, int> evalCount_;
};

} // namespace

TEST(Determinism, SingleFlightEvaluatesConcurrentDuplicatesExactlyOnce) {
  SlowProbe probe;
  tuning::CountingEvaluator counting(probe);

  // Each config appears 8 times back-to-back, so a fan-out of the whole
  // batch would hand duplicates of one config to several of the 4 pool
  // workers at once; each config must still reach SlowProbe exactly once.
  const std::vector<std::int64_t> xs{3, 14, 159, 265};
  std::vector<tuning::Config> configs;
  for (const std::int64_t x : xs)
    for (int dup = 0; dup < 8; ++dup) configs.push_back({x});

  runtime::ThreadPool pool(4);
  const auto results =
      valuesOf(counting.evaluateBatch(configs, pool, /*parallel=*/true));

  for (const auto& [config, times] : probe.counts())
    EXPECT_EQ(times, 1) << "config " << config.front()
                        << " reached the inner evaluation more than once";
  EXPECT_EQ(counting.evaluations(), xs.size());
  EXPECT_EQ(counting.memoHits(), configs.size() - xs.size());

  // The published results are bit-identical to a serial evaluation.
  SlowProbe serialProbe;
  tuning::CountingEvaluator serial(serialProbe);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const tuning::Objectives expected = serial.evaluate(configs[i]);
    ASSERT_EQ(results[i].size(), expected.size()) << "config " << i;
    for (std::size_t k = 0; k < expected.size(); ++k)
      EXPECT_EQ(std::memcmp(&results[i][k], &expected[k], sizeof(double)), 0)
          << "config " << i << " objective " << k;
  }
}

TEST(Determinism, GDE3IdenticalAcrossPoolSizesAndEvaluationModes) {
  const RunOutcome reference = runGDE3(1, false, 42);
  EXPECT_FALSE(reference.front.empty());
  EXPECT_GT(reference.evaluations, 0u);
  for (unsigned workers : {1u, 2u, 4u})
    for (bool parallel : {false, true}) {
      const RunOutcome outcome = runGDE3(workers, parallel, 42);
      EXPECT_EQ(outcome, reference)
          << workers << " workers, parallelEvaluation=" << parallel;
    }
}

TEST(Determinism, GDE3DifferentSeedsDiverge) {
  // Sanity check that the comparison above is not vacuous.
  EXPECT_NE(runGDE3(1, false, 42), runGDE3(1, false, 43));
}

TEST(Determinism, RSGDE3IdenticalAcrossPoolSizesAndEvaluationModes) {
  const RunOutcome reference = runRSGDE3(1, false, 7);
  EXPECT_FALSE(reference.front.empty());
  for (unsigned workers : {1u, 2u, 4u})
    for (bool parallel : {false, true}) {
      const RunOutcome outcome = runRSGDE3(workers, parallel, 7);
      EXPECT_EQ(outcome, reference)
          << workers << " workers, parallelEvaluation=" << parallel;
    }
}

TEST(Determinism, ParallelBatchMatchesSerialBitExactly) {
  opt::SyntheticProblem problem = opt::makeZDT1();
  support::Rng rng(123);
  std::vector<tuning::Config> configs;
  for (int i = 0; i < 64; ++i) {
    tuning::Config c;
    for (const auto& spec : problem.space())
      c.push_back(rng.uniformInt(spec.lo, spec.hi));
    configs.push_back(std::move(c));
  }

  runtime::ThreadPool pool(4);
  tuning::CountingEvaluator serial(problem);
  tuning::CountingEvaluator parallel(problem);
  const auto a =
      valuesOf(serial.evaluateBatch(configs, pool, /*parallel=*/false));
  const auto b =
      valuesOf(parallel.evaluateBatch(configs, pool, /*parallel=*/true));
  ASSERT_EQ(a.size(), configs.size());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "config " << i;
    for (std::size_t k = 0; k < a[i].size(); ++k)
      EXPECT_EQ(std::memcmp(&a[i][k], &b[i][k], sizeof(double)), 0)
          << "config " << i << " objective " << k << ": " << a[i][k]
          << " vs " << b[i][k];
  }
}

TEST(Determinism, CountingEvaluatorMemoConsistentUnderConcurrentBatches) {
  opt::SyntheticProblem problem = opt::makeSchaffer();
  tuning::CountingEvaluator counting(problem);

  // A batch with heavy duplication, evaluated concurrently: the memo must
  // end with exactly the unique configurations and serve every duplicate
  // the same (bit-identical) objectives.
  std::vector<tuning::Config> configs;
  std::set<tuning::Config> unique;
  support::Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    tuning::Config c{rng.uniformInt(problem.space().front().lo,
                                    problem.space().front().hi)};
    for (int dup = 0; dup < 8; ++dup) configs.push_back(c);
    unique.insert(c);
  }

  runtime::ThreadPool pool(4);
  const auto first =
      valuesOf(counting.evaluateBatch(configs, pool, /*parallel=*/true));
  EXPECT_EQ(counting.evaluations(), unique.size());

  // Re-evaluating the identical batch is served fully from the memo.
  const auto hitsBefore = counting.memoHits();
  const auto second =
      valuesOf(counting.evaluateBatch(configs, pool, /*parallel=*/true));
  EXPECT_EQ(counting.evaluations(), unique.size());
  EXPECT_EQ(counting.memoHits(), hitsBefore + configs.size());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], second[i]) << "config " << i;

  // Duplicates within the first batch already agreed with each other.
  std::map<tuning::Config, tuning::Objectives> seen;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto [it, inserted] = seen.emplace(configs[i], first[i]);
    if (!inserted) EXPECT_EQ(it->second, first[i]) << "config " << i;
  }
}
