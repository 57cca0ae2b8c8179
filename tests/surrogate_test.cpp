// Surrogate-assisted evaluation (src/tuning/surrogate.h): the feature map
// and ridge fit are pure functions of the observation sequence, a keep
// fraction of 1.0 leaves the search byte-identical to a surrogate-free
// run, culling actually saves evaluations while staying deterministic
// across thread-pool sizes, and checkpoint/restore carries the model's
// state bit-exactly.
#include "core/gde3.h"
#include "core/testproblems.h"
#include "runtime/thread_pool.h"
#include "support/check.h"
#include "support/json.h"
#include "tuning/surrogate.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace motune;

namespace {

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::multiset<std::pair<tuning::Config, tuning::Objectives>>
canonicalFront(const std::vector<opt::Individual>& front) {
  std::multiset<std::pair<tuning::Config, tuning::Objectives>> out;
  for (const auto& ind : front) out.emplace(ind.config, ind.objectives);
  return out;
}

/// Deterministic space-filling sequence of valid configurations — wide
/// enough spread for the ridge fit to be well conditioned, no RNG
/// involved so every run of the test sees the same sequence.
tuning::Config probeConfig(const std::vector<tuning::ParamSpec>& space,
                           std::size_t i) {
  tuning::Config config(space.size());
  for (std::size_t d = 0; d < space.size(); ++d) {
    const auto span =
        static_cast<std::uint64_t>(space[d].hi - space[d].lo + 1);
    config[d] = space[d].lo +
                static_cast<std::int64_t>((i * 7919 + (d + 1) * 104729) %
                                          span);
  }
  return config;
}

/// Small-sample surrogate so culling activates within a short test run.
tuning::SurrogateOptions eagerSurrogate() {
  tuning::SurrogateOptions options;
  options.minSamples = 40;
  options.refitEvery = 8;
  return options;
}

} // namespace

TEST(Surrogate, FeatureMapIsDeterministicAndFixedOrder) {
  opt::SyntheticProblem problem = opt::makeFonseca();
  tuning::Surrogate a(problem.space(), problem.numObjectives());
  tuning::Surrogate b(problem.space(), problem.numObjectives());
  for (std::size_t i = 0; i < 32; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    const std::vector<double> features = a.features(config);
    EXPECT_EQ(features.size(), a.featureCount());
    EXPECT_TRUE(bitEqual(features, a.features(config))) << "config " << i;
    EXPECT_TRUE(bitEqual(features, b.features(config))) << "config " << i;
  }
}

TEST(Surrogate, PredictionsArePureFunctionOfTheObservationSequence) {
  // Two independently constructed models fed the identical observation
  // sequence agree bit for bit on every later prediction and score — the
  // determinism contract the session warm-start and checkpoint-restore
  // paths rely on.
  opt::SyntheticProblem problem = opt::makeFonseca();
  tuning::Surrogate a(problem.space(), problem.numObjectives(),
                      eagerSurrogate());
  tuning::Surrogate b(problem.space(), problem.numObjectives(),
                      eagerSurrogate());
  for (std::size_t i = 0; i < 96; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    const tuning::Objectives objectives = problem.evaluate(config);
    a.observe(config, objectives);
    b.observe(config, objectives);
  }
  ASSERT_TRUE(a.ready());
  ASSERT_TRUE(b.ready());
  EXPECT_EQ(a.fits(), b.fits());
  EXPECT_TRUE(bitEqual(a.rankCorrelation(), b.rankCorrelation()));
  for (std::size_t i = 200; i < 232; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    EXPECT_TRUE(bitEqual(a.predict(config), b.predict(config))) << i;
    EXPECT_TRUE(bitEqual(a.score(config), b.score(config))) << i;
  }
  EXPECT_EQ(a.predictions(), b.predictions());
}

TEST(Surrogate, ResetToPreloadedDropsEverythingObservedAfterTheMark) {
  // serialize()/restore() is the checkpoint primitive. Serialize a
  // surrogate after its preload (the mark), feed it a detour, then restore
  // the mark: the detour leaves no trace, the state re-serializes to the
  // same bytes, and re-observing the same tail lands the model in the same
  // state as a straight-through run.
  opt::SyntheticProblem problem = opt::makeFonseca();
  tuning::Surrogate restored(problem.space(), problem.numObjectives(),
                             eagerSurrogate());
  tuning::Surrogate straight(problem.space(), problem.numObjectives(),
                             eagerSurrogate());

  const std::size_t base = 48, tail = 48;
  for (std::size_t i = 0; i < base; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    const tuning::Objectives objectives = problem.evaluate(config);
    restored.observe(config, objectives);
    straight.observe(config, objectives);
  }
  const std::string mark = restored.serialize().dump(-1);

  // Detour: observations that must leave no trace after the restore.
  for (std::size_t i = 500; i < 520; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    restored.observe(config, problem.evaluate(config));
  }
  restored.restore(support::Json::parse(mark));
  EXPECT_EQ(restored.observations(), base);
  EXPECT_EQ(restored.serialize().dump(-1), mark);

  for (std::size_t i = base; i < base + tail; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    const tuning::Objectives objectives = problem.evaluate(config);
    restored.observe(config, objectives);
    straight.observe(config, objectives);
  }
  EXPECT_EQ(restored.observations(), straight.observations());
  for (std::size_t i = 300; i < 316; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    EXPECT_TRUE(bitEqual(restored.predict(config), straight.predict(config)))
        << i;
  }
}

TEST(Surrogate, ResetToPreloadedOffTheRefitGridKeepsTheStraightRunSchedule) {
  // A warm-start preload or a checkpoint rarely lands exactly on the
  // minSamples + k*refitEvery threshold grid (here: 50 observations
  // against a 40+8k grid, so the last fit is at 48). restore() must put
  // back the fit taken at 48 — not refit over all 50 — or the restored
  // run's refit schedule (56, 64, ...) shifts to (58, 66, ...) and every
  // later prediction diverges from the uninterrupted run's.
  opt::SyntheticProblem problem = opt::makeFonseca();
  tuning::Surrogate restored(problem.space(), problem.numObjectives(),
                             eagerSurrogate());
  tuning::Surrogate straight(problem.space(), problem.numObjectives(),
                             eagerSurrogate());

  const std::size_t base = 50, tail = 48; // base off the 40+8k fit grid
  for (std::size_t i = 0; i < base; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    straight.observe(config, problem.evaluate(config));
  }
  restored.restore(support::Json::parse(straight.serialize().dump(-1)));
  EXPECT_EQ(restored.observations(), base);
  EXPECT_EQ(restored.fits(), straight.fits());
  EXPECT_TRUE(bitEqual(restored.rankCorrelation(),
                       straight.rankCorrelation()));

  for (std::size_t i = base; i < base + tail; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    const tuning::Objectives objectives = problem.evaluate(config);
    restored.observe(config, objectives);
    straight.observe(config, objectives);
  }
  EXPECT_EQ(restored.fits(), straight.fits());
  EXPECT_TRUE(bitEqual(restored.rankCorrelation(),
                       straight.rankCorrelation()));
  for (std::size_t i = 300; i < 316; ++i) {
    const tuning::Config config = probeConfig(problem.space(), i);
    EXPECT_TRUE(bitEqual(restored.predict(config), straight.predict(config)))
        << i;
    EXPECT_TRUE(bitEqual(restored.score(config), straight.score(config)))
        << i;
  }
}

TEST(Surrogate, RestoreRefusesAStateOfAnotherShape) {
  // Checkpoints come from journal files: a state whose arrays do not fit
  // this surrogate's space is refused, not indexed out of bounds.
  opt::SyntheticProblem fonseca = opt::makeFonseca();
  opt::SyntheticProblem schaffer = opt::makeSchaffer();
  ASSERT_NE(fonseca.space().size(), schaffer.space().size());
  tuning::Surrogate source(fonseca.space(), fonseca.numObjectives(),
                           eagerSurrogate());
  for (std::size_t i = 0; i < 48; ++i) {
    const tuning::Config config = probeConfig(fonseca.space(), i);
    source.observe(config, fonseca.evaluate(config));
  }
  tuning::Surrogate other(schaffer.space(), schaffer.numObjectives());
  EXPECT_THROW(other.restore(source.serialize()), support::CheckError);
}

TEST(Surrogate, KeepOneIsByteIdenticalToSurrogateFree) {
  // The acceptance bar for the observability mode: with surrogateKeep ==
  // 1.0 the surrogate watches every evaluation but culls nothing, so the
  // evaluation count, Pareto front and hypervolume trajectory match a
  // surrogate-free run bit for bit — at any pool size.
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    opt::GDE3Options options;
    options.seed = 5;
    options.maxGenerations = 10;

    opt::SyntheticProblem plainProblem = opt::makeFonseca();
    runtime::ThreadPool plainPool(workers);
    opt::GDE3 plain(plainProblem, plainPool, options);
    const opt::OptResult plainResult = plain.run();

    opt::SyntheticProblem observedProblem = opt::makeFonseca();
    runtime::ThreadPool observedPool(workers);
    tuning::Surrogate surrogate(observedProblem.space(),
                                observedProblem.numObjectives(),
                                eagerSurrogate());
    opt::GDE3Options withSurrogate = options;
    withSurrogate.surrogate = &surrogate;
    withSurrogate.surrogateKeep = 1.0;
    opt::GDE3 observed(observedProblem, observedPool, withSurrogate);
    const opt::OptResult observedResult = observed.run();

    EXPECT_EQ(observedResult.evaluations, plainResult.evaluations);
    EXPECT_EQ(observedResult.generations, plainResult.generations);
    EXPECT_EQ(canonicalFront(observedResult.front),
              canonicalFront(plainResult.front));
    EXPECT_TRUE(bitEqual(observedResult.hvHistory, plainResult.hvHistory));
    EXPECT_GT(surrogate.observations(), 0u);
  }
}

TEST(Surrogate, CullingSavesEvaluationsDeterministicallyAcrossPools) {
  // With keep < 1 the engine sends fewer trials to the full evaluation
  // once the model is ready — and because the cull is driven by the
  // deterministic surrogate, pool sizes 1 and 4 still produce the same
  // search bit for bit.
  opt::GDE3Options options;
  options.seed = 5;
  options.maxGenerations = 20;
  options.noImproveLimit = 100; // fixed-length run: budgets comparable

  opt::SyntheticProblem plainProblem = opt::makeFonseca();
  runtime::ThreadPool plainPool(1);
  opt::GDE3 plain(plainProblem, plainPool, options);
  const opt::OptResult plainResult = plain.run();

  std::vector<opt::OptResult> culledResults;
  std::vector<std::uint64_t> observations;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    opt::SyntheticProblem problem = opt::makeFonseca();
    runtime::ThreadPool pool(workers);
    tuning::Surrogate surrogate(problem.space(), problem.numObjectives(),
                                eagerSurrogate());
    opt::GDE3Options culled = options;
    culled.surrogate = &surrogate;
    culled.surrogateKeep = 0.5;
    opt::GDE3 engine(problem, pool, culled);
    culledResults.push_back(engine.run());
    observations.push_back(surrogate.observations());
    ASSERT_FALSE(culledResults.back().front.empty());
  }

  EXPECT_LT(culledResults[0].evaluations, plainResult.evaluations);
  EXPECT_EQ(culledResults[0].evaluations, culledResults[1].evaluations);
  EXPECT_EQ(culledResults[0].generations, culledResults[1].generations);
  EXPECT_EQ(canonicalFront(culledResults[0].front),
            canonicalFront(culledResults[1].front));
  EXPECT_TRUE(bitEqual(culledResults[0].hvHistory,
                       culledResults[1].hvHistory));
  EXPECT_EQ(observations[0], observations[1]);
}

TEST(Surrogate, RestoreContinuesTheCheckpointedModel) {
  // Serialize a mid-search engine with an active culling surrogate,
  // restore into a fresh engine with a fresh surrogate, and continue
  // both: the checkpoint carries the model's state, so the remaining
  // generations — cull decisions included — match bit for bit. The
  // restored run uses a different pool size to pin thread-count
  // independence through the restore path too.
  opt::GDE3Options options;
  options.seed = 5;
  options.maxGenerations = 20;
  options.noImproveLimit = 100;

  opt::SyntheticProblem problemA = opt::makeFonseca();
  opt::SyntheticProblem problemB = opt::makeFonseca();
  runtime::ThreadPool poolA(1), poolB(4);
  tuning::Surrogate surrogateA(problemA.space(), problemA.numObjectives(),
                               eagerSurrogate());
  tuning::Surrogate surrogateB(problemB.space(), problemB.numObjectives(),
                               eagerSurrogate());
  opt::GDE3Options optionsA = options;
  optionsA.surrogate = &surrogateA;
  optionsA.surrogateKeep = 0.5;
  opt::GDE3Options optionsB = options;
  optionsB.surrogate = &surrogateB;
  optionsB.surrogateKeep = 0.5;

  opt::GDE3 a(problemA, poolA, optionsA);
  a.initialize();
  for (int g = 0; g < 4; ++g) a.step();
  ASSERT_TRUE(surrogateA.ready());
  const support::Json state = support::Json::parse(a.serialize().dump(-1));

  opt::GDE3 b(problemB, poolB, optionsB);
  b.restore(state);
  EXPECT_EQ(b.generationsDone(), a.generationsDone());
  EXPECT_EQ(surrogateB.observations(), surrogateA.observations());
  EXPECT_TRUE(surrogateB.ready());

  for (int g = 0; g < 6; ++g) {
    const bool improvedA = a.step();
    const bool improvedB = b.step();
    EXPECT_EQ(improvedA, improvedB) << "generation " << g;
  }
  // No evaluation-count comparison: the restored engine's memo counter
  // starts empty (the session layer pre-seeds it separately on resume);
  // the bitwise contract is on the search trajectory itself.
  const opt::OptResult ra = a.release();
  const opt::OptResult rb = b.release();
  EXPECT_EQ(canonicalFront(rb.front), canonicalFront(ra.front));
  EXPECT_TRUE(bitEqual(rb.hvHistory, ra.hvHistory));
  EXPECT_EQ(surrogateB.observations(), surrogateA.observations());
}

namespace {

/// FNV-1a over raw bytes, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(const std::string& text) {
  return fnv1a(kFnvBasis, text.data(), text.size());
}

/// One pinned observation stream: a space, and objectives that are a
/// fixed function of the configuration — positive ones spanning a few
/// decades and, from the second space on, a negative one.
struct PinnedStream {
  std::vector<tuning::ParamSpec> space;
  std::size_t objectives;

  tuning::Config config(std::size_t i) const {
    tuning::Config c(space.size());
    for (std::size_t d = 0; d < space.size(); ++d) {
      const auto span =
          static_cast<std::uint64_t>(space[d].hi - space[d].lo + 1);
      c[d] = space[d].lo + static_cast<std::int64_t>(
                               (i * 7919 + i * i * 31 + (d + 1) * 104729) %
                               span);
    }
    return c;
  }

  tuning::Objectives evaluate(const tuning::Config& c) const {
    double work = 1.0, spread = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      const double x = static_cast<double>(c[d] - space[d].lo) /
                       static_cast<double>(space[d].hi - space[d].lo);
      work += (x - 0.3) * (x - 0.3) * static_cast<double>(d + 1);
      spread += x * static_cast<double>(c.size() - d);
    }
    tuning::Objectives y{work * 1e-3, 50.0 / (1.0 + spread)};
    if (objectives > 2) y.push_back(-1e4 * work * spread);
    return y;
  }
};

struct PinnedHashes {
  std::uint64_t scores;
  std::uint64_t states[3];
};

/// Feeds `stream`'s first `end` observations from `begin` on, scoring a
/// probe after each one the model is ready for, into `scoreHash`, and
/// hashing the state after the observations named in `marks`.
void feed(tuning::Surrogate& model, const PinnedStream& stream,
          std::size_t begin, std::size_t end, std::uint64_t& scoreHash,
          const std::vector<std::size_t>& marks,
          std::vector<std::string>& states) {
  for (std::size_t i = begin; i < end; ++i) {
    const tuning::Config config = stream.config(i);
    model.observe(config, stream.evaluate(config));
    if (model.ready()) {
      const double s = model.score(stream.config(i * 3 + 1000));
      scoreHash = fnv1a(scoreHash, &s, sizeof s);
    }
    for (std::size_t mark : marks)
      if (i + 1 == mark) states.push_back(model.serialize().dump(-1));
  }
}

} // namespace

TEST(Surrogate, ObservationStreamKeepsItsPinnedBits) {
  // 400 observations on spaces of 2, 4 and 5 dimensions (F = 8, 19 and
  // 26 features) and on a 3-dimensional one with spans up to 100,000:
  // the 128-sample window wraps and the fit is redone 22 times. The
  // hashes of every score's bits and of the serialized state after 100,
  // 250 and 400 observations are pinned, so a change to the model's
  // arithmetic that moves a single bit fails here. Restoring the state
  // after 250 and feeding the rest reproduces the same bits.
  const std::vector<PinnedStream> streams = {
      {{{"a", 1, 64}, {"b", -8, 8}}, 2},
      {{{"t0", 1, 512}, {"t1", 1, 256}, {"t2", 4, 96}, {"threads", 1, 12}},
       3},
      {{{"t0", 1, 1024},
        {"t1", 1, 1024},
        {"t2", 1, 1024},
        {"t3", 16, 20},
        {"threads", 1, 24}},
       3},
      {{{"t0", 1, 100000}, {"t1", 1, 5000}, {"threads", 1, 8}}, 2},
  };
  const PinnedHashes pinned[] = {
      {0x0f851bca93387566ull,
       {0x167878d0c247c738ull, 0xa938f696ab0e2e9full, 0x70819cc107c02d8bull}},
      {0x7ae406dfa16e8e9cull,
       {0x51cec145dbf97c03ull, 0x0efbdd0bb002f3dfull, 0x2df532464a71ba8aull}},
      {0x0d32199a74616603ull,
       {0x12cadbf282c94566ull, 0x9f5df1a725683a82ull, 0xfb352b068fe9c6d2ull}},
      {0x16437a38a35c0938ull,
       {0x3a0906d26a1fe4d6ull, 0xe21a6224306fea55ull, 0xe33dad28dfa9cc53ull}},
  };
  for (std::size_t s = 0; s < streams.size(); ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    const PinnedStream& stream = streams[s];
    tuning::Surrogate model(stream.space, stream.objectives);
    std::uint64_t scoreHash = kFnvBasis;
    std::vector<std::string> states;
    feed(model, stream, 0, 400, scoreHash, {100, 250, 400}, states);
    ASSERT_EQ(states.size(), 3u);
    EXPECT_EQ(model.fits(), 22u);
    EXPECT_EQ(scoreHash, pinned[s].scores);
    for (std::size_t k = 0; k < 3; ++k)
      EXPECT_EQ(fnv1a(states[k]), pinned[s].states[k]) << "state " << k;

    // Restore the middle state and continue; the scores after it hash as
    // the uninterrupted run's did.
    tuning::Surrogate straight(stream.space, stream.objectives);
    std::uint64_t straightTail = kFnvBasis, restoredTail = kFnvBasis;
    std::vector<std::string> straightStates, restoredStates;
    feed(straight, stream, 0, 250, straightTail, {}, straightStates);
    straightTail = kFnvBasis;
    feed(straight, stream, 250, 400, straightTail, {400}, straightStates);
    tuning::Surrogate restored(stream.space, stream.objectives);
    restored.restore(support::Json::parse(states[1]));
    EXPECT_EQ(restored.serialize().dump(-1), states[1]);
    feed(restored, stream, 250, 400, restoredTail, {400}, restoredStates);
    EXPECT_EQ(restoredTail, straightTail);
    EXPECT_EQ(restoredStates, straightStates);
    EXPECT_EQ(restoredStates.front(), states[2]);
    EXPECT_EQ(restored.fits(), model.fits());
  }
}
