#include "core/rsgde3.h"
#include "ir/parse.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "observe/metrics.h"
#include "runtime/thread_pool.h"
#include "support/check.h"
#include "support/rng.h"
#include "tuning/evaluator.h"
#include "tuning/kernel_problem.h"
#include "tuning/native_evaluator.h"
#include "tuning/search_space.h"
#include "tuning/surrogate.h"
#include "tuning/validation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <stdexcept>
#include <string>

// Heap allocations made by this thread while an AllocationCount is alive;
// everything else allocates uncounted.
namespace {
thread_local bool countingAllocations = false;
thread_local std::uint64_t allocationsCounted = 0;
} // namespace

void* operator new(std::size_t bytes) {
  if (countingAllocations) ++allocationsCounted;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with the
// allocation site's operator new and warn.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace motune::tuning {
namespace {

/// Counts the calling thread's heap allocations over its lifetime.
class AllocationCount {
public:
  AllocationCount() {
    allocationsCounted = 0;
    countingAllocations = true;
  }
  ~AllocationCount() { countingAllocations = false; }
  std::uint64_t value() const { return allocationsCounted; }
};

TEST(Boundary, ClosestToClampsAndRounds) {
  Boundary b;
  b.lo = {1.0, 1.0};
  b.hi = {10.0, 5.0};
  EXPECT_EQ(b.closestTo({3.4, 2.6}), (Config{3, 3}));
  EXPECT_EQ(b.closestTo({-4.0, 99.0}), (Config{1, 5}));
  EXPECT_EQ(b.closestTo({10.49, 0.51}), (Config{10, 1}));
}

TEST(Boundary, FractionalBoundsNeverEscape) {
  Boundary b;
  b.lo = {2.6};
  b.hi = {2.8};
  // Rounding 2.7 would give 3, outside [2.6, 2.8]; re-clamp to floor(hi)...
  // which is below lo — the integer projection picks the nearest valid int.
  const Config c = b.closestTo({2.7});
  EXPECT_GE(static_cast<double>(c[0]), 2.0);
  EXPECT_LE(static_cast<double>(c[0]), 3.0);
}

TEST(Boundary, ContainsAndIntersect) {
  Boundary a;
  a.lo = {0.0, 0.0};
  a.hi = {10.0, 10.0};
  Boundary b;
  b.lo = {5.0, -5.0};
  b.hi = {15.0, 5.0};
  Boundary c = a;
  c.intersectWith(b);
  EXPECT_DOUBLE_EQ(c.lo[0], 5.0);
  EXPECT_DOUBLE_EQ(c.hi[0], 10.0);
  EXPECT_DOUBLE_EQ(c.lo[1], 0.0);
  EXPECT_DOUBLE_EQ(c.hi[1], 5.0);
  EXPECT_TRUE(c.contains({7, 3}));
  EXPECT_FALSE(c.contains({4, 3}));
}

TEST(Boundary, FromSpaceAndCardinality) {
  const std::vector<ParamSpec> space{{"a", 1, 4}, {"b", 0, 9}};
  const Boundary b = Boundary::fromSpace(space);
  EXPECT_DOUBLE_EQ(b.lo[0], 1.0);
  EXPECT_DOUBLE_EQ(b.hi[1], 9.0);
  EXPECT_DOUBLE_EQ(spaceCardinality(space), 40.0);
}

/// Toy objective function used by evaluator tests: f = (x, 10 - x).
class ToyFn final : public ObjectiveFunction {
public:
  std::size_t numObjectives() const override { return 2; }
  const std::vector<ParamSpec>& space() const override { return space_; }
  Objectives evaluate(const Config& c) override {
    ++calls;
    return {static_cast<double>(c[0]), 10.0 - static_cast<double>(c[0])};
  }
  std::atomic<int> calls{0};

private:
  std::vector<ParamSpec> space_{{"x", 0, 10}};
};

TEST(CountingEvaluator, CountsUniqueOnly) {
  ToyFn fn;
  CountingEvaluator counter(fn);
  counter.evaluate({3});
  counter.evaluate({3});
  counter.evaluate({4});
  EXPECT_EQ(counter.evaluations(), 2u);
  EXPECT_EQ(counter.memoHits(), 1u);
  EXPECT_EQ(fn.calls.load(), 2);
  // The memo belongs to the instance: a fresh evaluator starts empty.
  CountingEvaluator fresh(fn);
  EXPECT_EQ(fresh.evaluations(), 0u);
  fresh.evaluate({3});
  EXPECT_EQ(fn.calls.load(), 3);
}

/// The objectives an evaluateBatch() result points at, copied out.
std::vector<Objectives> valuesOf(const std::vector<const Objectives*>& batch) {
  std::vector<Objectives> out;
  for (const Objectives* objectives : batch) out.push_back(*objectives);
  return out;
}

TEST(EvaluateBatch, PreservesOrderParallel) {
  ToyFn fn;
  CountingEvaluator counter(fn);
  runtime::ThreadPool pool(4);
  std::vector<Config> configs;
  for (std::int64_t i = 0; i <= 10; ++i) configs.push_back({i});
  const auto out =
      valuesOf(counter.evaluateBatch(configs, pool, /*parallel=*/true));
  ASSERT_EQ(out.size(), 11u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_DOUBLE_EQ(out[i][0], static_cast<double>(i));
}

/// One evaluateBatch() cell of the contract grid below: two configs
/// memoized beforehand, then a batch with in-batch repeats of misses and
/// of memoized configs.
struct BatchOutcome {
  std::vector<Objectives> results;
  std::uint64_t evaluations = 0;
  std::uint64_t memoHits = 0;
  std::vector<Config> journal;
  int innerCalls = 0;
};

BatchOutcome runContractBatch(unsigned workers, bool parallel) {
  ToyFn fn;
  CountingEvaluator counter(fn);
  BatchOutcome outcome;
  counter.setListener(
      [&](std::span<const CountingEvaluator::Entry* const> published) {
        for (const auto* e : published) outcome.journal.push_back(e->first);
      });
  counter.evaluate({1});
  counter.evaluate({9});
  runtime::ThreadPool pool(workers);
  outcome.results = valuesOf(counter.evaluateBatch(
      {{5}, {3}, {5}, {7}, {3}, {1}, {7}, {9}, {2}, {5}}, pool, parallel));
  outcome.evaluations = counter.evaluations();
  outcome.memoHits = counter.memoHits();
  outcome.innerCalls = fn.calls.load();
  return outcome;
}

TEST(EvaluateBatch, SameResultsCountsAndJournalAtEveryPoolSize) {
  const BatchOutcome reference = runContractBatch(1, false);
  EXPECT_EQ(reference.evaluations, 6u); // 1, 9, then misses 5, 3, 7, 2
  EXPECT_EQ(reference.memoHits, 6u);    // 5, 3, 1, 7, 9, 5
  EXPECT_EQ(reference.innerCalls, 6);   // each distinct miss once
  EXPECT_EQ(reference.journal,
            (std::vector<Config>{{1}, {9}, {5}, {3}, {7}, {2}}));
  ASSERT_EQ(reference.results.size(), 10u);
  EXPECT_EQ(reference.results[2], (Objectives{5.0, 5.0}));
  EXPECT_EQ(reference.results[5], (Objectives{1.0, 9.0}));

  for (unsigned workers : {1u, 2u, 4u})
    for (bool parallel : {false, true}) {
      const BatchOutcome outcome = runContractBatch(workers, parallel);
      const std::string cell = std::to_string(workers) + " workers, " +
                               (parallel ? "parallel" : "serial");
      ASSERT_EQ(outcome.results.size(), reference.results.size()) << cell;
      for (std::size_t i = 0; i < outcome.results.size(); ++i)
        EXPECT_EQ(std::memcmp(outcome.results[i].data(),
                              reference.results[i].data(),
                              2 * sizeof(double)),
                  0)
            << cell << ", config " << i;
      EXPECT_EQ(outcome.evaluations, reference.evaluations) << cell;
      EXPECT_EQ(outcome.memoHits, reference.memoHits) << cell;
      EXPECT_EQ(outcome.innerCalls, reference.innerCalls) << cell;
      EXPECT_EQ(outcome.journal, reference.journal) << cell;
    }
}

TEST(EvaluateBatch, ListenerFiresOncePerBatchWithItsMissesInOrder) {
  ToyFn fn;
  CountingEvaluator counter(fn);
  std::vector<std::vector<Config>> calls;
  counter.setListener(
      [&](std::span<const CountingEvaluator::Entry* const> published) {
        std::vector<Config> batch;
        for (const auto* e : published) {
          EXPECT_EQ(e->second[0], static_cast<double>(e->first[0]));
          batch.push_back(e->first);
        }
        calls.push_back(std::move(batch));
      });
  EXPECT_TRUE(counter.preload({8}, {8.0, 2.0}));
  runtime::ThreadPool pool(4);
  for (bool parallel : {false, true}) {
    calls.clear();
    const std::int64_t o = parallel ? 0 : 20; // fresh configs per pass
    counter.evaluateBatch({{o + 4}, {8}, {o + 2}, {o + 4}, {o + 9}, {o + 2}},
                          pool, parallel);
    counter.evaluateBatch({{o + 2}, {8}, {o + 9}}, pool, parallel); // hits
    counter.evaluate({o + 5});
    counter.evaluate({o + 5}); // hit
    EXPECT_EQ(calls, (std::vector<std::vector<Config>>{
                         {{o + 4}, {o + 2}, {o + 9}}, {{o + 5}}}))
        << (parallel ? "parallel" : "serial");
  }
}

/// ToyFn that throws on x == 6.
class ThrowingFn final : public ObjectiveFunction {
public:
  std::size_t numObjectives() const override { return 2; }
  const std::vector<ParamSpec>& space() const override { return space_; }
  Objectives evaluate(const Config& c) override {
    ++calls;
    if (c[0] == 6) throw std::runtime_error("evaluation failed");
    return {static_cast<double>(c[0]), 10.0 - static_cast<double>(c[0])};
  }
  std::atomic<int> calls{0};

private:
  std::vector<ParamSpec> space_{{"x", 0, 10}};
};

TEST(EvaluateBatch, ThrowingMissPublishesOnlyCompletedMisses) {
  const std::vector<Config> batch{{5}, {1}, {6}, {3}, {5}, {4}};
  for (unsigned workers : {1u, 2u, 4u})
    for (bool parallel : {false, true}) {
      const std::string cell = std::to_string(workers) + " workers, " +
                               (parallel ? "parallel" : "serial");
      ThrowingFn fn;
      CountingEvaluator counter(fn);
      std::vector<Config> journal;
      counter.setListener(
          [&](std::span<const CountingEvaluator::Entry* const> published) {
            for (const auto* e : published) journal.push_back(e->first);
          });
      counter.evaluate({1});
      runtime::ThreadPool pool(workers);
      EXPECT_THROW(counter.evaluateBatch(batch, pool, parallel),
                   std::runtime_error)
          << cell;

      // The journal is the memoized misses in first-appearance order, and
      // each journaled config is a memo hit from now on.
      if (!parallel) {
        // The serial path stops at the throwing miss: exactly the misses
        // before it are memoized and journaled.
        EXPECT_EQ(journal, (std::vector<Config>{{1}, {5}})) << cell;
        EXPECT_EQ(fn.calls.load(), 3) << cell; // 1, 5, 6
      } else {
        std::vector<Config> allowed{{1}, {5}, {3}, {4}};
        std::size_t next = 0;
        for (const Config& c : journal) {
          while (next < allowed.size() && allowed[next] != c) ++next;
          EXPECT_LT(next, allowed.size())
              << cell << ": journaled {" << c[0] << "} out of order";
          ++next;
        }
      }
      EXPECT_EQ(counter.evaluations(), journal.size()) << cell;
      const int calls = fn.calls.load();
      for (const Config& c : journal) counter.evaluate(c);
      EXPECT_EQ(fn.calls.load(), calls)
          << cell << ": a journaled config was not memoized";
    }
}

/// ToyFn whose first objective is NaN at x == 6 and +infinity at x == 8.
class NonFiniteFn final : public ObjectiveFunction {
public:
  std::size_t numObjectives() const override { return 2; }
  const std::vector<ParamSpec>& space() const override { return space_; }
  Objectives evaluate(const Config& c) override {
    ++calls;
    const auto x = static_cast<double>(c[0]);
    if (c[0] == 6) return {std::nan(""), 10.0 - x};
    if (c[0] == 8) return {HUGE_VAL, 10.0 - x};
    return {x, 10.0 - x};
  }
  std::atomic<int> calls{0};

private:
  std::vector<ParamSpec> space_{{"x", 0, 10}};
};

/// The CheckError message of `call`, or "" if it did not throw one.
template <typename Fn> std::string checkErrorOf(Fn&& call) {
  try {
    call();
  } catch (const support::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(CountingEvaluator, RefusesNonFiniteObjectives) {
  NonFiniteFn fn;
  CountingEvaluator counter(fn);
  EXPECT_NE(checkErrorOf([&] { counter.evaluate({6}); })
                .find("non-finite objective for config [6]"),
            std::string::npos);
  EXPECT_NE(checkErrorOf([&] { counter.evaluate({8}); }).find("[8]"),
            std::string::npos);
  EXPECT_EQ(counter.evaluations(), 0u); // neither was memoized
  EXPECT_THROW(counter.evaluate({6}), support::CheckError);
  EXPECT_EQ(fn.calls.load(), 3);

  EXPECT_THROW(counter.preload({3}, {std::nan(""), 1.0}), support::CheckError);
  EXPECT_THROW(counter.preload({3}, {1.0, -HUGE_VAL}), support::CheckError);
  EXPECT_EQ(counter.evaluations(), 0u);
  EXPECT_TRUE(counter.preload({3}, {3.0, 7.0}));
}

TEST(EvaluateBatch, NonFiniteMissFailsLikeAThrowingMiss) {
  const std::vector<Config> batch{{5}, {1}, {6}, {3}, {5}, {4}};
  for (bool parallel : {false, true}) {
    NonFiniteFn fn;
    CountingEvaluator counter(fn);
    std::vector<Config> journal;
    counter.setListener(
        [&](std::span<const CountingEvaluator::Entry* const> published) {
          for (const auto* e : published) journal.push_back(e->first);
        });
    runtime::ThreadPool pool(4);
    const std::string error =
        checkErrorOf([&] { counter.evaluateBatch(batch, pool, parallel); });
    EXPECT_NE(error.find("[6]"), std::string::npos)
        << (parallel ? "parallel" : "serial");
    // The completed misses are published; the non-finite one is not.
    if (parallel)
      EXPECT_EQ(journal, (std::vector<Config>{{5}, {1}, {3}, {4}}));
    else
      EXPECT_EQ(journal, (std::vector<Config>{{5}, {1}}));
    EXPECT_EQ(counter.evaluations(), journal.size());
    EXPECT_THROW(counter.evaluate({6}), support::CheckError);
  }
}

/// ToyFn that returns no objectives at x == 4.
class EmptyAtFourFn final : public ObjectiveFunction {
public:
  std::size_t numObjectives() const override { return 2; }
  const std::vector<ParamSpec>& space() const override { return space_; }
  Objectives evaluate(const Config& c) override {
    ++calls;
    if (c[0] == 4) return {};
    return {static_cast<double>(c[0]), 10.0 - static_cast<double>(c[0])};
  }
  std::atomic<int> calls{0};

private:
  std::vector<ParamSpec> space_{{"x", 0, 10}};
};

TEST(EvaluateBatch, FailedMissLeavesNoMemoEntry) {
  // A batch marks each new config in the memo before evaluating it; a
  // miss that fails, and its repeats, must leave no trace, so the next
  // lookup evaluates (and fails) again.
  for (bool parallel : {false, true}) {
    EmptyAtFourFn fn;
    CountingEvaluator counter(fn);
    runtime::ThreadPool pool(2);
    EXPECT_NE(checkErrorOf([&] {
                counter.evaluateBatch({{3}, {4}, {5}, {4}}, pool, parallel);
              }).find("empty objective vector for config [4]"),
              std::string::npos);
    const int calls = fn.calls.load();
    EXPECT_THROW(counter.evaluate({4}), support::CheckError);
    EXPECT_THROW(counter.evaluateBatch({{4}}, pool, parallel),
                 support::CheckError);
    EXPECT_EQ(fn.calls.load(), calls + 2);
    EXPECT_EQ(*counter.evaluateBatch({{3}}, pool, parallel)[0],
              (Objectives{3.0, 7.0}));
    EXPECT_THROW(counter.preload({4}, {}), support::CheckError);
  }
}

TEST(EvaluateBatch, AllocatesAtMostThreeTimesPerUniqueEvaluation) {
  // All-miss 30-config mm batches, a fresh evaluator every 70 batches, as
  // a search's generations arrive. Batch scratch and the returned pointer
  // vector count against the evaluations they serve.
  KernelTuningProblem problem(kernels::kernelByName("mm"),
                              machine::westmere());
  std::vector<std::vector<Config>> batches(70);
  std::set<Config> drawn;
  support::Rng rng(31);
  while (drawn.size() < 70 * 30) {
    Config c;
    for (const ParamSpec& p : problem.space())
      c.push_back(rng.uniformInt(p.lo, p.hi));
    if (drawn.insert(c).second)
      batches[(drawn.size() - 1) / 30].push_back(std::move(c));
  }
  runtime::ThreadPool pool(1);
  problem.evaluate(batches[0][0]); // the thread's lowering scratch
  std::uint64_t allocations = 0, evaluations = 0;
  for (int round = 0; round < 3; ++round) {
    CountingEvaluator counter(problem);
    {
      const AllocationCount count;
      for (const std::vector<Config>& batch : batches)
        counter.evaluateBatch(batch, pool, /*parallel=*/false);
      allocations += count.value();
    }
    evaluations += counter.evaluations();
    EXPECT_EQ(counter.memoHits(), 0u);
  }
  ASSERT_EQ(evaluations, 3u * 70 * 30);
  EXPECT_LE(static_cast<double>(allocations) /
                static_cast<double>(evaluations),
            3.0)
      << allocations << " allocations for " << evaluations << " evaluations";

  // A memo hit copies its objectives out of evaluate() and nothing else;
  // a batch of hits allocates only the vector it returns.
  CountingEvaluator counter(problem);
  counter.evaluateBatch(batches[0], pool, /*parallel=*/false);
  {
    const AllocationCount count;
    counter.evaluate(batches[0][7]);
    EXPECT_LE(count.value(), 1u);
  }
  {
    const AllocationCount count;
    counter.evaluateBatch(batches[0], pool, /*parallel=*/false);
    EXPECT_LE(count.value(), 1u);
  }
}

TEST(RSGDE3, AllocatesAtMostThreeTimesPerUniqueEvaluation) {
  // A default RS-GDE3 search reuses its members' storage from one
  // generation to the next and hands its final state over by move, so
  // over six runs its heap allocations per unique evaluation, the memo's
  // two included, stay at 2.5 or fewer (2.42; 2.53 when the result was a
  // copy). Evaluation is serial so that every allocation happens on the
  // counted thread.
  const std::pair<const char*, machine::MachineModel> cells[] = {
      {"mm", machine::westmere()}, {"n-body", machine::barcelona()}};
  runtime::ThreadPool pool(1);
  std::uint64_t allocations = 0, evaluations = 0;
  for (const auto& [kernel, machine] : cells) {
    KernelTuningProblem problem(kernels::kernelByName(kernel), machine);
    Config warm;
    for (const ParamSpec& p : problem.space()) warm.push_back(p.lo);
    problem.evaluate(warm); // the thread's lowering scratch
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      opt::RSGDE3Options options;
      options.gde3.seed = seed;
      options.gde3.parallelEvaluation = false;
      opt::RSGDE3 engine(problem, pool, options);
      const AllocationCount count;
      evaluations += engine.run().evaluations;
      allocations += count.value();
    }
  }
  EXPECT_LE(static_cast<double>(allocations) /
                static_cast<double>(evaluations),
            2.5)
      << allocations << " allocations for " << evaluations << " evaluations";
}

TEST(Surrogate, ScoresWithoutAllocating) {
  // A culling search scores 30 trials per generation and observes every
  // evaluated one. The model works in buffers it keeps: once fit, a score
  // allocates nothing, and 400 observations on mm/westmere, which fill
  // and wrap the 128-sample window and refit 22 times, allocate less than
  // once per observation.
  KernelTuningProblem problem(kernels::kernelByName("mm"),
                              machine::westmere());
  std::vector<Config> configs;
  std::vector<Objectives> objectives;
  support::Rng rng(7);
  while (configs.size() < 400) {
    Config c;
    for (const ParamSpec& p : problem.space())
      c.push_back(rng.uniformInt(p.lo, p.hi));
    objectives.push_back(problem.evaluate(c));
    configs.push_back(std::move(c));
  }
  Surrogate model(problem.space(), problem.numObjectives());
  {
    const AllocationCount count;
    for (std::size_t i = 0; i < configs.size(); ++i)
      model.observe(configs[i], objectives[i]);
    EXPECT_LE(count.value(), configs.size())
        << count.value() << " allocations for " << configs.size()
        << " observations";
  }
  ASSERT_EQ(model.fits(), 22u);
  // The process's first prediction registers the predictions counter.
  double sum = model.score(configs[0]);
  {
    const AllocationCount count;
    for (const Config& c : configs) sum += model.score(c);
    EXPECT_EQ(count.value(), 0u);
  }
  EXPECT_TRUE(std::isfinite(sum));
}

TEST(KernelProblem, SpaceMatchesPaperSetup) {
  KernelTuningProblem prob(kernels::kernelByName("mm"),
                           machine::westmere());
  const auto& space = prob.space();
  ASSERT_EQ(space.size(), 4u);
  EXPECT_EQ(space[0].hi, 700); // N/2
  EXPECT_EQ(space[3].name, "threads");
  EXPECT_EQ(space[3].hi, 40);
  EXPECT_EQ(prob.numObjectives(), 2u);
}

TEST(KernelProblem, RefusesAnImperfectNestNamingWhereItStops) {
  // Loop i holds loop j beside an assignment: the cost model lowers only
  // the perfect nest (i), so the problem is refused with the shape named,
  // not with an error about the first induction variable it cannot bind.
  const std::string source = R"(
    array A[16]
    array B[16][16]
    array C[16]
    for i = 2 .. 14 {
      for j = 2 .. 14 {
        for k = 1 .. 14 {
          B[i-1][k-1] = A[j-2] * 2.0;
        }
      }
      C[i+1] = A[i] + 1.0;
    }
  )";
  kernels::KernelSpec spec;
  spec.name = "imperfect";
  spec.tileDims = 1;
  spec.paperN = spec.testN = 12;
  spec.buildIR = [source](std::int64_t) { return ir::parseProgram(source); };
  try {
    KernelTuningProblem problem(spec, machine::westmere());
    FAIL() << "an imperfect nest was accepted";
  } catch (const support::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("imperfect loop nest: loop 'i' holds loop 'j'"),
              std::string::npos)
        << what;
  }
}

TEST(KernelProblem, ObjectivesConsistent) {
  KernelTuningProblem prob(kernels::kernelByName("mm"),
                           machine::westmere());
  const Objectives o = prob.evaluate({64, 64, 32, 10});
  ASSERT_EQ(o.size(), 2u);
  EXPECT_GT(o[0], 0.0);
  EXPECT_DOUBLE_EQ(o[1], 10.0 * o[0]);
  // Deterministic.
  EXPECT_EQ(prob.evaluate({64, 64, 32, 10}), o);
}

TEST(KernelProblem, MoreThreadsFasterButCostlier) {
  KernelTuningProblem prob(kernels::kernelByName("mm"),
                           machine::westmere());
  const Objectives serial = prob.evaluate({96, 48, 32, 1});
  const Objectives parallel = prob.evaluate({96, 48, 32, 40});
  EXPECT_LT(parallel[0], serial[0]);
  EXPECT_GT(parallel[1], serial[1]);
}

TEST(KernelProblem, UntiledSerialIsTheWorstReasonableTime) {
  KernelTuningProblem prob(kernels::kernelByName("mm"),
                           machine::westmere(), 512);
  const double untiled = prob.untiledSerialSeconds();
  EXPECT_GT(untiled, prob.evaluate({64, 32, 32, 1})[0]);
}

TEST(KernelProblem, SmallProblemOverride) {
  KernelTuningProblem prob(kernels::kernelByName("jacobi-2d"),
                           machine::barcelona(), 128);
  EXPECT_EQ(prob.problemSize(), 128);
  EXPECT_EQ(prob.space()[0].hi, 63); // (N-2)/2 interior trip halved
  const Objectives o = prob.evaluate({8, 8, 4});
  EXPECT_GT(o[0], 0.0);
}

TEST(KernelProblem, InstantiateProducesParallelTiledProgram) {
  KernelTuningProblem prob(kernels::kernelByName("mm"),
                           machine::westmere(), 64);
  const ir::Program p = prob.instantiate({8, 8, 8, 4});
  EXPECT_TRUE(p.rootLoop().parallel);
  EXPECT_EQ(p.rootLoop().iv, "i_t");
}

TEST(KernelProblem, RejectsMalformedConfigs) {
  KernelTuningProblem prob(kernels::kernelByName("mm"),
                           machine::westmere(), 64);
  EXPECT_THROW(prob.evaluate({8, 8, 8}), support::CheckError);
  EXPECT_THROW(prob.evaluate({0, 8, 8, 4}), support::CheckError);
  const std::int64_t tileHi = prob.space()[1].hi;
  const std::int64_t threadsHi = prob.space().back().hi;
  EXPECT_THROW(prob.evaluate({8, 8, 8, 0}), support::CheckError);
  EXPECT_THROW(prob.evaluate({8, 8, 8, threadsHi + 1}), support::CheckError);
  EXPECT_THROW(prob.evaluate({8, tileHi + 1, 8, 4}), support::CheckError);
  try {
    prob.predictFull({8, tileHi + 1, 8, 4});
    ADD_FAILURE() << "out-of-range tile accepted";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("parameter out of range: t_j"),
              std::string::npos)
        << e.what();
  }
  // The edges of the space stay legal.
  EXPECT_NO_THROW(prob.evaluate({8, tileHi, 8, threadsHi}));
}

TEST(NativeEvaluator, MeasuresRealExecution) {
  runtime::ThreadPool pool(2);
  NativeKernelEvaluator eval(kernels::kernelByName("mm"), 64, 2, pool,
                             /*repetitions=*/3);
  const Objectives o = eval.evaluate({16, 16, 16, 1});
  ASSERT_EQ(o.size(), 2u);
  EXPECT_GT(o[0], 0.0);
  EXPECT_LT(o[0], 5.0); // a 64^3 mm takes far less than 5 s
  EXPECT_DOUBLE_EQ(o[1], o[0]);
  const Objectives o2 = eval.evaluate({16, 16, 16, 2});
  EXPECT_DOUBLE_EQ(o2[1], 2.0 * o2[0]);
}

TEST(Validation, ModelAgreesWithSimulatorWithinOrderOfMagnitude) {
  const auto& mm = kernels::kernelByName("mm");
  // Paper-size configs: tiles are clamped into the miniature space and
  // threads pinned to 1.
  const std::vector<Config> configs{{4, 12, 6, 2}, {8, 8, 8, 1},
                                    {512, 512, 512, 40}};
  const auto samples = validateAgainstCachesim(mm, machine::westmere(),
                                               configs, {8, 0});
  ASSERT_EQ(samples.size(), 3u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.n, mm.testN);
    EXPECT_EQ(s.config.back(), 1);
    EXPECT_GT(s.simDramBytes, 0.0);
    EXPECT_GT(s.modelDramBytes, 0.0);
    EXPECT_GT(s.modelSeconds, 0.0);
    EXPECT_GT(s.simSeconds, 0.0);
    // The analytical model and the simulator must agree on DRAM traffic
    // within an order of magnitude at the miniature size.
    EXPECT_LT(s.dramRatio, 10.0);
    EXPECT_GT(s.dramRatio, 0.1);
  }
}

TEST(Validation, DeduplicatesClampedConfigsAndHonorsCap) {
  const auto& mm = kernels::kernelByName("mm");
  // Both clamp to the miniature space maximum -> one sample.
  const std::vector<Config> same{{512, 512, 512, 40}, {600, 600, 600, 8}};
  EXPECT_EQ(validateAgainstCachesim(mm, machine::westmere(), same, {8, 0})
                .size(),
            1u);
  const std::vector<Config> many{{4, 4, 4, 1}, {6, 6, 6, 1}, {8, 8, 8, 1}};
  EXPECT_EQ(validateAgainstCachesim(mm, machine::westmere(), many, {2, 0})
                .size(),
            2u);
}

TEST(CountingEvaluator, IndependentInstancesAreIsolated) {
  // The serve daemon runs one evaluator per job; their memo, counters and
  // listeners must not bleed into each other even over the same inner fn.
  ToyFn fn;
  CountingEvaluator a(fn);
  CountingEvaluator b(fn);
  a.evaluate({3});
  a.evaluate({5});
  b.evaluate({3});
  EXPECT_EQ(a.evaluations(), 2u);
  EXPECT_EQ(b.evaluations(), 1u);
  EXPECT_TRUE(b.preload({7}, {7.0, 3.0}));
  EXPECT_EQ(b.evaluations(), 2u);
  EXPECT_EQ(a.evaluations(), 2u) << "preload leaked across instances";
  a.evaluate({7});
  EXPECT_EQ(a.evaluations(), 3u) << "b's preload served a's lookup";
}

} // namespace
} // namespace motune::tuning
