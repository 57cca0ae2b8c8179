// Durable tuning sessions (src/session/): journal round-trips with
// crash-truncated tails, RNG-stream serialization, GDE3 checkpoint/restore
// mid-search, and the end-to-end guarantee the subsystem exists for — a
// killed `--checkpoint` run resumed with `--resume` produces a Pareto
// front and evaluation count bit-identical to the uninterrupted run.
#include "autotune/autotuner.h"
#include "core/gde3.h"
#include "core/rsgde3.h"
#include "core/testproblems.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "observe/metrics.h"
#include "runtime/thread_pool.h"
#include "session/journal.h"
#include "session/session.h"
#include "support/check.h"
#include "support/rng.h"
#include "tuning/island.h"
#include "tuning/kernel_problem.h"
#include "tuning/surrogate.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace motune;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test directory under the gtest temp root.
std::string freshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::multiset<std::pair<tuning::Config, tuning::Objectives>>
canonicalFront(const std::vector<opt::Individual>& front) {
  std::multiset<std::pair<tuning::Config, tuning::Objectives>> out;
  for (const auto& ind : front) out.emplace(ind.config, ind.objectives);
  return out;
}

/// Bitwise comparison of two double sequences (NaN-safe, sign-of-zero
/// exact) — "bit-identical" means memcmp-equal, not operator==.
bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Size and FNV-1a (64-bit) hash of the session journal in `dir`.
std::pair<std::size_t, std::uint64_t>
journalFingerprint(const std::string& dir) {
  std::ifstream in(session::journalPath(dir), std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return {bytes.size(), hash};
}

} // namespace

TEST(Journal, WriteReadRoundTrip) {
  const std::string dir = freshDir("journal-roundtrip");
  const std::string path = session::journalPath(dir);
  {
    session::JournalWriter writer(path, session::JournalWriter::Mode::Truncate);
    writer.write(support::JsonObject{{"type", "a"}, {"x", 1}});
    writer.write(support::JsonObject{{"type", "b"}, {"y", 2.5}});
    EXPECT_EQ(writer.recordsWritten(), 2u);
  }
  const auto records = session::readJournal(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("type").asString(), "a");
  EXPECT_EQ(records[1].at("y").asNumber(), 2.5);
}

TEST(Journal, ToleratesExactlyOneTruncatedTailLine) {
  const std::string dir = freshDir("journal-tail");
  const std::string path = session::journalPath(dir);
  {
    session::JournalWriter writer(path, session::JournalWriter::Mode::Truncate);
    writer.write(support::JsonObject{{"type", "a"}});
    writer.write(support::JsonObject{{"type", "b"}});
  }
  // Crash model: the process died mid-write, leaving a partial final line.
  {
    std::ofstream out(path, std::ios::app);
    out << R"({"type":"ev)"; // no closing brace, no newline
  }
  const auto records = session::readJournal(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].at("type").asString(), "b");
}

TEST(Journal, RejectsMidFileCorruption) {
  const std::string dir = freshDir("journal-corrupt");
  const std::string path = session::journalPath(dir);
  {
    std::ofstream out(path);
    out << R"({"type":"a"})" << "\n"
        << "GARBAGE NOT JSON\n"
        << R"({"type":"b"})" << "\n";
  }
  EXPECT_THROW(session::readJournal(path), support::CheckError);
}

TEST(Journal, RefusesToOverwriteExistingJournal) {
  const std::string dir = freshDir("journal-overwrite");
  const std::string path = session::journalPath(dir);
  {
    session::JournalWriter writer(path, session::JournalWriter::Mode::Truncate);
    writer.write(support::JsonObject{{"type", "a"}});
  }
  EXPECT_THROW(session::JournalWriter(path,
                                      session::JournalWriter::Mode::Truncate),
               support::CheckError);
  // Append to a missing journal is equally invalid.
  EXPECT_THROW(session::JournalWriter(session::journalPath(
                                          freshDir("journal-absent")),
                                      session::JournalWriter::Mode::Append),
               support::CheckError);
}

TEST(RngState, MidStreamRoundTripReproducesDrawsBitwise) {
  support::Rng rng(99);
  for (int i = 0; i < 37; ++i) rng.uniform(); // advance mid-stream

  const support::Rng::State saved = rng.state();
  std::vector<double> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.uniform(0.0, 10.0));

  support::Rng other(1); // different seed; state transplant must win
  other.setState(saved);
  std::vector<double> actual;
  for (int i = 0; i < 64; ++i) actual.push_back(other.uniform(0.0, 10.0));
  EXPECT_TRUE(bitEqual(expected, actual));
}

TEST(RngState, GaussianCarryPersists) {
  // Marsaglia polar generates pairs; capture the state while one value of
  // the pair is still cached — restore must reproduce the cached value,
  // not restart the pair.
  support::Rng rng(7);
  rng.gaussian(); // first of a pair: the second is now cached

  const support::Rng::State saved = rng.state();
  EXPECT_TRUE(saved.hasCachedGaussian);
  const double expectedCached = rng.gaussian();
  const double expectedNext = rng.gaussian();

  support::Rng other(1234);
  other.setState(saved);
  EXPECT_EQ(other.gaussian(), expectedCached);
  EXPECT_EQ(other.gaussian(), expectedNext);
}

TEST(GDE3Checkpoint, SerializeRestoreMidSearchIsBitIdentical) {
  // The RNG-stream satellite: serialize() a mid-search engine, restore()
  // into a fresh one, and the continued differential-evolution draws —
  // hence populations, fronts and hypervolumes — match bit for bit over
  // the remaining generations, at pool sizes 1 and 4. The state goes
  // through a dump()/parse() text round-trip, exactly as the journal
  // stores it.
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    opt::SyntheticProblem problemA = opt::makeFonseca();
    opt::SyntheticProblem problemB = opt::makeFonseca();
    runtime::ThreadPool poolA(workers), poolB(workers);
    opt::GDE3Options options;
    options.seed = 5;
    options.maxGenerations = 7;

    opt::GDE3 a(problemA, poolA, options);
    a.initialize();
    a.step();
    a.step();
    const support::Json state =
        support::Json::parse(a.serialize().dump(-1));

    opt::GDE3 b(problemB, poolB, options);
    b.restore(state);
    EXPECT_EQ(b.generationsDone(), a.generationsDone());

    for (int g = 0; g < 5; ++g) {
      const bool improvedA = a.step();
      const bool improvedB = b.step();
      EXPECT_EQ(improvedA, improvedB) << "generation " << g;
    }
    const opt::OptResult ra = a.release();
    const opt::OptResult rb = b.release();
    EXPECT_EQ(canonicalFront(ra.front), canonicalFront(rb.front));
    EXPECT_TRUE(bitEqual(ra.hvHistory, rb.hvHistory));
    for (std::size_t i = 0; i < ra.population.size(); ++i) {
      ASSERT_LT(i, rb.population.size());
      EXPECT_EQ(ra.population[i].config, rb.population[i].config) << i;
      EXPECT_TRUE(bitEqual(ra.population[i].objectives,
                           rb.population[i].objectives))
          << i;
    }
  }
}

TEST(SessionHeader, RoundTripAndCompatibility) {
  session::SessionHeader h;
  h.problem = "mm/Westmere/n1400/time/resources";
  h.algorithm = "rsgde3";
  h.seed = 0xdeadbeefcafebabeull; // > 2^53: must survive JSON round-trip
  h.objectives = 2;
  h.space = {{"t_i", 1, 300}, {"threads", 1, 12}};
  h.algorithmOptions = support::JsonObject{{"population", 30}};

  const session::SessionHeader back = session::headerFromJson(
      support::Json::parse(session::headerToJson(h).dump(-1)));
  EXPECT_EQ(back.seed, h.seed);
  EXPECT_NO_THROW(session::checkCompatible(back, h));

  session::SessionHeader wrongSeed = h;
  wrongSeed.seed = 2;
  EXPECT_THROW(session::checkCompatible(h, wrongSeed), support::CheckError);
  session::SessionHeader wrongSpace = h;
  wrongSpace.space[0].hi = 301;
  EXPECT_THROW(session::checkCompatible(h, wrongSpace), support::CheckError);
  session::SessionHeader wrongOpts = h;
  wrongOpts.algorithmOptions = support::JsonObject{{"population", 31}};
  EXPECT_THROW(session::checkCompatible(h, wrongOpts), support::CheckError);
}

TEST(SessionHeader, MalformedSeedIsACheckError) {
  // A journal is outside input: a seed that is not a whole u64 in decimal
  // must fail as a CheckError (what JobStore recovery catches), never as a
  // std:: exception, and "-1" must not wrap to 2^64 - 1.
  session::SessionHeader h;
  h.problem = "p";
  h.algorithm = "rsgde3";
  h.seed = 7;
  h.objectives = 2;
  const auto withSeed = [&](const std::string& seed) {
    support::JsonObject record = session::headerToJson(h).asObject();
    record["seed"] = seed;
    return support::Json(std::move(record));
  };
  EXPECT_EQ(session::headerFromJson(withSeed("18446744073709551615")).seed,
            18446744073709551615ull);
  for (const char* bad : {"abc", "-1", "", "12x", " 12", "+12",
                          "18446744073709551616"})
    EXPECT_THROW(session::headerFromJson(withSeed(bad)), support::CheckError)
        << bad;
}

TEST(SessionWriter, ConcurrentRecordsStayWholeLines) {
  // The writer is thread-safe: evaluation batches and checkpoints recorded
  // from two threads at once land as whole lines, and both counts add up.
  const std::string dir = freshDir("session-writer-concurrent");
  session::SessionHeader header;
  header.problem = "concurrent";
  header.algorithm = "rsgde3";
  header.objectives = 2;
  const std::vector<tuning::CountingEvaluator::Entry> entries{
      {{1, 2}, {0.5, 1.5}}, {{3, 4}, {2.5, 0.25}}, {{5, 6}, {1e-3, 7.0}}};
  std::vector<const tuning::CountingEvaluator::Entry*> batch;
  for (const auto& e : entries) batch.push_back(&e);

  constexpr int kRounds = 200;
  {
    session::SessionWriter writer(dir, header);
    std::thread evals([&] {
      for (int i = 0; i < kRounds; ++i) writer.recordEvaluations(batch);
    });
    for (int g = 1; g <= kRounds; ++g)
      writer.recordCheckpoint(g, 3u * static_cast<std::uint64_t>(g),
                              [g](std::string& out) {
                                out += R"({"g":)" + std::to_string(g) + '}';
                              });
    evals.join();
    EXPECT_EQ(writer.evaluationsRecorded(), kRounds * entries.size());
    EXPECT_EQ(writer.checkpointsWritten(), static_cast<std::uint64_t>(kRounds));
  }
  const session::ResumeState state = session::loadSession(dir);
  EXPECT_EQ(state.evaluations.size(), kRounds * entries.size());
  EXPECT_EQ(state.checkpoints, static_cast<std::uint64_t>(kRounds));
  ASSERT_TRUE(state.checkpoint.has_value());
  EXPECT_EQ(state.checkpoint->at("g").asInt(), kRounds);
  EXPECT_EQ(state.checkpointGeneration, kRounds);
}

TEST(CountingEvaluator, PreloadSeedsMemoAndCountsAsUnique) {
  opt::SyntheticProblem problem = opt::makeSchaffer();
  tuning::CountingEvaluator counting(problem);

  int listenerCalls = 0;
  counting.setListener(
      [&listenerCalls](
          std::span<const tuning::CountingEvaluator::Entry* const> batch) {
        listenerCalls += static_cast<int>(batch.size());
      });

  const tuning::Config config{42};
  const tuning::Objectives canned{1.25, -3.5};
  EXPECT_TRUE(counting.preload(config, canned));
  EXPECT_FALSE(counting.preload(config, canned)) << "second preload is a dup";
  EXPECT_EQ(counting.evaluations(), 1u);
  EXPECT_EQ(listenerCalls, 0) << "preloads must not reach the listener";

  // A lookup serves the preloaded value without evaluating the problem.
  EXPECT_EQ(counting.evaluate(config), canned);
  EXPECT_EQ(counting.evaluations(), 1u);
  EXPECT_EQ(listenerCalls, 0) << "memo hits must not reach the listener";

  // A genuinely new evaluation fires the listener once.
  counting.evaluate(tuning::Config{7});
  counting.evaluate(tuning::Config{7});
  EXPECT_EQ(listenerCalls, 1);
  EXPECT_EQ(counting.evaluations(), 2u);
}

namespace {

autotune::TunerOptions sessionlessOptions() {
  autotune::TunerOptions options;
  options.algorithm = autotune::Algorithm::RSGDE3;
  options.gde3.seed = 3;
  options.gde3.maxGenerations = 12;
  options.evaluationWorkers = 4;
  return options;
}

/// Simulates a SIGKILL: keeps `keepLines` journal lines and appends a
/// torn partial record, exactly what an interrupted write leaves behind.
void cloneTruncated(const std::string& fromDir, const std::string& toDir,
                    std::size_t keepLines) {
  std::ifstream in(session::journalPath(fromDir));
  ASSERT_TRUE(in.good());
  std::ofstream out(session::journalPath(toDir));
  std::string line;
  for (std::size_t i = 0; i < keepLines && std::getline(in, line); ++i)
    out << line << "\n";
  out << R"({"type":"eval","config":[1,)"; // torn tail, no newline
}

} // namespace

TEST(SessionResume, KilledRunResumesBitIdentically) {
  // Golden: the uninterrupted, session-less search.
  opt::SyntheticProblem golden = opt::makeSchaffer();
  autotune::AutoTuner goldenTuner(sessionlessOptions());
  const opt::OptResult goldenResult = goldenTuner.optimize(golden);
  ASSERT_FALSE(goldenResult.front.empty());

  // Full run under a session: journaling must not perturb the search.
  const std::string fullDir = freshDir("session-full");
  autotune::TunerOptions withSession = sessionlessOptions();
  withSession.session.directory = fullDir;
  opt::SyntheticProblem fullProblem = opt::makeSchaffer();
  const opt::OptResult fullResult =
      autotune::AutoTuner(withSession).optimize(fullProblem);
  EXPECT_EQ(canonicalFront(fullResult.front),
            canonicalFront(goldenResult.front));
  EXPECT_EQ(fullResult.evaluations, goldenResult.evaluations);
  EXPECT_TRUE(bitEqual(fullResult.hvHistory, goldenResult.hvHistory));

  // Kill the run at several points — early (before much progress), midway,
  // and near the end — and resume each. Every resume must reproduce the
  // golden front, evaluation count and hypervolume trajectory bit for bit.
  std::size_t totalLines = 0;
  {
    std::ifstream in(session::journalPath(fullDir));
    std::string line;
    while (std::getline(in, line)) ++totalLines;
  }
  ASSERT_GT(totalLines, 10u);

  int cut = 0;
  for (const double fraction : {0.15, 0.55, 0.95}) {
    SCOPED_TRACE("kill at " + std::to_string(fraction));
    const std::string dir =
        freshDir("session-cut-" + std::to_string(cut++));
    cloneTruncated(fullDir, dir,
                   static_cast<std::size_t>(
                       static_cast<double>(totalLines) * fraction));

    autotune::TunerOptions resume = sessionlessOptions();
    resume.session.directory = dir;
    resume.session.resume = true;
    opt::SyntheticProblem problem = opt::makeSchaffer();
    const opt::OptResult resumed =
        autotune::AutoTuner(resume).optimize(problem);

    EXPECT_EQ(canonicalFront(resumed.front),
              canonicalFront(goldenResult.front));
    EXPECT_EQ(resumed.evaluations, goldenResult.evaluations);
    EXPECT_TRUE(bitEqual(resumed.hvHistory, goldenResult.hvHistory));

    // The resumed journal now carries the complete record.
    const session::ResumeState state = session::loadSession(dir);
    EXPECT_TRUE(state.finished);
    EXPECT_EQ(state.resumes, 1);
    EXPECT_EQ(state.evaluations.size(), goldenResult.evaluations);
  }
}

namespace {

/// Forwards to a problem and records every configuration it evaluates.
class RecordingFn final : public tuning::ObjectiveFunction {
public:
  explicit RecordingFn(tuning::ObjectiveFunction& inner) : inner_(inner) {}
  std::size_t numObjectives() const override {
    return inner_.numObjectives();
  }
  const std::vector<tuning::ParamSpec>& space() const override {
    return inner_.space();
  }
  tuning::Objectives evaluate(const tuning::Config& config) override {
    evaluated.push_back(config);
    return inner_.evaluate(config);
  }
  std::vector<tuning::Config> evaluated;

private:
  tuning::ObjectiveFunction& inner_;
};

} // namespace

TEST(SessionResume, CancelledRunJournalsItsLastBatch) {
  // Each batch's eval records are written before evaluateBatch returns,
  // so a cancelled run's journal holds every evaluation it made, the last
  // generation's included, in evaluation order.
  const std::string dir = freshDir("session-cancelled");
  autotune::TunerOptions options = sessionlessOptions();
  options.evaluationWorkers = 1;
  options.session.directory = dir;
  options.session.checkpointEvery = 100;
  int generations = 0;
  options.onProgress = [&](const opt::GenerationProgress&) { ++generations; };
  options.stopRequested = [&] { return generations >= 3; };
  opt::SyntheticProblem problem = opt::makeSchaffer();
  RecordingFn recording(problem);
  const opt::OptResult result = autotune::AutoTuner(options).optimize(recording);
  EXPECT_EQ(generations, 3);

  const session::ResumeState state = session::loadSession(dir);
  EXPECT_FALSE(state.finished);
  ASSERT_EQ(state.evaluations.size(), recording.evaluated.size());
  EXPECT_EQ(state.evaluations.size(), result.evaluations);
  for (std::size_t i = 0; i < state.evaluations.size(); ++i)
    EXPECT_EQ(state.evaluations[i].config, recording.evaluated[i]) << i;
}

/// Forwards to a problem, but one configuration's first objective is NaN.
class PoisonedFn final : public tuning::ObjectiveFunction {
public:
  PoisonedFn(tuning::ObjectiveFunction& inner, tuning::Config poison)
      : inner_(inner), poison_(std::move(poison)) {}
  std::size_t numObjectives() const override {
    return inner_.numObjectives();
  }
  const std::vector<tuning::ParamSpec>& space() const override {
    return inner_.space();
  }
  tuning::Objectives evaluate(const tuning::Config& config) override {
    tuning::Objectives objectives = inner_.evaluate(config);
    if (config == poison_) objectives[0] = std::nan("");
    return objectives;
  }

private:
  tuning::ObjectiveFunction& inner_;
  tuning::Config poison_;
};

TEST(SessionResume, NonFiniteObjectiveStopsTheTuneAndKeepsTheJournal) {
  // A NaN objective is refused where it enters, naming its config, before
  // it can reach the Pareto sorts or the journal (which could not parse
  // it back).
  autotune::TunerOptions options = sessionlessOptions();
  options.evaluationWorkers = 1;
  opt::SyntheticProblem clean = opt::makeSchaffer();
  RecordingFn recording(clean);
  autotune::AutoTuner(options).optimize(recording);
  ASSERT_GT(recording.evaluated.size(), 40u);
  const tuning::Config poison = recording.evaluated[40];
  std::string configText = "[";
  for (std::size_t d = 0; d < poison.size(); ++d)
    configText += (d ? ", " : "") + std::to_string(poison[d]);
  configText += "]";

  for (const bool checkpointed : {false, true}) {
    const std::string dir = freshDir("session-nan");
    if (checkpointed) options.session.directory = dir;
    opt::SyntheticProblem problem = opt::makeSchaffer();
    PoisonedFn poisoned(problem, poison);
    std::string message;
    try {
      autotune::AutoTuner(options).optimize(poisoned);
    } catch (const support::CheckError& e) {
      message = e.what();
    }
    EXPECT_NE(message.find("non-finite objective for config " + configText),
              std::string::npos)
        << message;
    if (!checkpointed) continue;

    const session::ResumeState state = session::loadSession(dir);
    EXPECT_FALSE(state.finished);
    // Every evaluation before the poisoned one is journaled, in order; a
    // parallel batch may also publish its other completed misses.
    ASSERT_GE(state.evaluations.size(), 40u);
    ASSERT_LT(state.evaluations.size(), recording.evaluated.size());
    for (std::size_t i = 0; i < state.evaluations.size(); ++i) {
      const std::size_t at = i < 40 ? i : i + 1; // the poison is skipped
      EXPECT_EQ(state.evaluations[i].config, recording.evaluated[at]) << i;
    }
  }
}

TEST(SessionResume, RefusesMismatchedSearch) {
  const std::string dir = freshDir("session-mismatch");
  autotune::TunerOptions options = sessionlessOptions();
  options.gde3.maxGenerations = 4;
  options.session.directory = dir;
  opt::SyntheticProblem problem = opt::makeSchaffer();
  autotune::AutoTuner(options).optimize(problem);

  // A finished session cannot be resumed ...
  options.session.resume = true;
  opt::SyntheticProblem again = opt::makeSchaffer();
  EXPECT_THROW(autotune::AutoTuner(options).optimize(again),
               support::CheckError);

  // ... and a crashed one only by the same search: un-finish the journal,
  // then try to resume with a different seed.
  {
    std::vector<std::string> lines;
    std::ifstream in(session::journalPath(dir));
    std::string line;
    while (std::getline(in, line))
      if (line.find("\"finish\"") == std::string::npos) lines.push_back(line);
    std::ofstream out(session::journalPath(dir));
    for (const auto& l : lines) out << l << "\n";
  }
  options.gde3.seed = 999;
  opt::SyntheticProblem other = opt::makeSchaffer();
  EXPECT_THROW(autotune::AutoTuner(options).optimize(other),
               support::CheckError);
}

TEST(SessionResume, RefusesAFinishedSession) {
  const std::string dir = freshDir("session-finished");
  autotune::TunerOptions options = sessionlessOptions();
  options.gde3.maxGenerations = 4;
  options.session.directory = dir;
  opt::SyntheticProblem problem = opt::makeSchaffer();
  autotune::AutoTuner(options).optimize(problem);
  const auto before = journalFingerprint(dir);

  const auto resumeMessage = [&options] {
    opt::SyntheticProblem again = opt::makeSchaffer();
    try {
      autotune::AutoTuner(options).optimize(again);
    } catch (const support::CheckError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // The header is checked before the finish record (docs/architecture.md,
  // "Resume semantics"): another search is refused as a mismatch ...
  options.session.resume = true;
  options.gde3.seed = 999;
  EXPECT_NE(resumeMessage().find("session seed mismatch"), std::string::npos);
  // ... and the same search as having nothing left to do.
  options.gde3.seed = sessionlessOptions().gde3.seed;
  EXPECT_NE(resumeMessage().find(
                "already ran to completion; nothing to resume"),
            std::string::npos);
  EXPECT_EQ(journalFingerprint(dir), before)
      << "a refused resume leaves the journal's bytes as they were";
}

// ---------------------------------------------------------------------------
// Journal → surrogate warm-start property.

TEST(SessionSurrogate, JournalFeatureVectorsRoundTripBitIdentically) {
  // The warm-start path trains a surrogate from loadSession()'d eval
  // records. Property: the recorded evaluation sequence — and therefore
  // every derived feature vector — is bit-identical no matter how many
  // evaluation workers wrote the journal, and a crash-truncated journal
  // reloads as an exact prefix with the same features and predictions.
  std::vector<session::ResumeState> states;
  std::vector<std::string> dirs;
  for (const unsigned workers : {1u, 4u}) {
    const std::string dir =
        freshDir("surrogate-journal-" + std::to_string(workers));
    autotune::TunerOptions options = sessionlessOptions();
    options.evaluationWorkers = workers;
    options.session.directory = dir;
    opt::SyntheticProblem problem = opt::makeSchaffer();
    (void)autotune::AutoTuner(options).optimize(problem);
    dirs.push_back(dir);
    states.push_back(session::loadSession(dir));
  }

  ASSERT_EQ(states[0].evaluations.size(), states[1].evaluations.size());
  ASSERT_FALSE(states[0].evaluations.empty());
  tuning::Surrogate model(states[0].header.space,
                          states[0].header.objectives);
  for (std::size_t i = 0; i < states[0].evaluations.size(); ++i) {
    const session::EvalRecord& a = states[0].evaluations[i];
    const session::EvalRecord& b = states[1].evaluations[i];
    EXPECT_EQ(a.config, b.config) << i;
    EXPECT_TRUE(bitEqual(a.objectives, b.objectives)) << i;
    EXPECT_TRUE(bitEqual(model.features(a.config), model.features(b.config)))
        << i;
  }

  // A torn tail (SIGKILL mid-record) must reload as an exact prefix.
  std::size_t totalLines = 0;
  {
    std::ifstream in(session::journalPath(dirs[0]));
    std::string line;
    while (std::getline(in, line)) ++totalLines;
  }
  const std::string torn = freshDir("surrogate-journal-torn");
  cloneTruncated(dirs[0], torn, totalLines / 2);
  const session::ResumeState tornState = session::loadSession(torn);
  ASSERT_FALSE(tornState.evaluations.empty());
  ASSERT_LE(tornState.evaluations.size(), states[0].evaluations.size());
  for (std::size_t i = 0; i < tornState.evaluations.size(); ++i) {
    EXPECT_EQ(tornState.evaluations[i].config,
              states[0].evaluations[i].config)
        << i;
    EXPECT_TRUE(bitEqual(tornState.evaluations[i].objectives,
                         states[0].evaluations[i].objectives))
        << i;
  }

  // Training on the reloaded prefix reproduces the same model bit for bit
  // as training on the same prefix of the intact journal.
  tuning::SurrogateOptions eager;
  eager.minSamples = 20;
  eager.refitEvery = 8;
  tuning::Surrogate fromTorn(tornState.header.space,
                             tornState.header.objectives, eager);
  tuning::Surrogate fromFull(states[0].header.space,
                             states[0].header.objectives, eager);
  for (std::size_t i = 0; i < tornState.evaluations.size(); ++i) {
    fromTorn.observe(tornState.evaluations[i].config,
                     tornState.evaluations[i].objectives);
    fromFull.observe(states[0].evaluations[i].config,
                     states[0].evaluations[i].objectives);
  }
  ASSERT_TRUE(fromTorn.ready());
  for (const session::EvalRecord& record : tornState.evaluations)
    EXPECT_TRUE(bitEqual(fromTorn.predict(record.config),
                         fromFull.predict(record.config)));
}

TEST(SessionResume, RequiresCheckpointableAlgorithm) {
  autotune::TunerOptions options = sessionlessOptions();
  options.algorithm = autotune::Algorithm::Random;
  options.session.directory = freshDir("session-random");
  opt::SyntheticProblem problem = opt::makeSchaffer();
  EXPECT_THROW(autotune::AutoTuner(options).optimize(problem),
               support::CheckError);
}

// ---------------------------------------------------------------------------
// Checkpoint format: version refusal and bounded size.

namespace {

/// Rewrites the journal in `dir` record by record through `edit`; a record
/// for which `edit` returns null is dropped.
void rewriteJournal(const std::string& dir,
                    const std::function<support::Json(support::JsonObject)>&
                        edit) {
  const std::string path = session::journalPath(dir);
  const std::vector<support::Json> records = session::readJournal(path);
  std::ofstream out(path, std::ios::trunc);
  for (const support::Json& r : records) {
    const support::Json edited = edit(r.asObject());
    if (!edited.isNull()) out << edited.dump(-1) << "\n";
  }
}

/// The `checkpoint` records of the journal in `dir`, in order.
std::vector<support::Json> checkpointRecords(const std::string& dir) {
  std::vector<support::Json> out;
  for (const support::Json& r :
       session::readJournal(session::journalPath(dir)))
    if (r.at("type").asString() == "checkpoint") out.push_back(r);
  return out;
}

/// Checkpointed RS-GDE3 tune of dsyrk on Westmere (default size).
std::string checkpointedDsyrkTune(const std::string& name,
                                  autotune::TunerOptions options) {
  const std::string dir = freshDir(name);
  options.session.directory = dir;
  options.session.checkpointEvery = 1;
  tuning::KernelTuningProblem problem(kernels::kernelByName("dsyrk"),
                                      machine::machineByName("westmere"));
  (void)autotune::AutoTuner(options).tune(problem);
  return dir;
}

/// Every array in `state` by its path: "front", "gde3/population/0/g",
/// "gde3/surrogate/recent", ... mapped to its length.
void arrayLengths(const support::Json& state, const std::string& path,
                  std::map<std::string, std::size_t>& out) {
  if (state.kind() == support::Json::Kind::Array) {
    out[path] = state.size();
    for (std::size_t i = 0; i < state.size(); ++i)
      arrayLengths(state[i], path + "/" + std::to_string(i), out);
  } else if (state.kind() == support::Json::Kind::Object) {
    for (const auto& [key, value] : state.asObject())
      arrayLengths(value, path + "/" + key, out);
  }
}

} // namespace

TEST(SessionResume, RefusesVersionOneCheckpoint) {
  // A journal written before the checkpoint format dropped the evaluation
  // archive cannot be resumed; the refusal names the way out.
  const std::string dir = freshDir("session-v1");
  autotune::TunerOptions options = sessionlessOptions();
  options.gde3.maxGenerations = 4;
  options.session.directory = dir;
  opt::SyntheticProblem problem = opt::makeSchaffer();
  autotune::AutoTuner(options).optimize(problem);

  rewriteJournal(dir, [](support::JsonObject record) -> support::Json {
    const std::string& type = record.at("type").asString();
    if (type == "finish") return nullptr;
    if (type != "checkpoint") return record;
    // The version-1 layout: the archive of every evaluated individual and
    // the last front's configs instead of the front and its size.
    support::JsonObject state = record.at("state").asObject();
    support::JsonObject gde3 = state.at("gde3").asObject();
    gde3.emplace("archive", gde3.at("front"));
    gde3.emplace("last_front_configs", support::JsonArray{});
    gde3.erase("front");
    gde3.erase("last_front_size");
    state["gde3"] = std::move(gde3);
    state["version"] = 1;
    record["state"] = std::move(state);
    return record;
  });

  options.session.resume = true;
  opt::SyntheticProblem again = opt::makeSchaffer();
  try {
    autotune::AutoTuner(options).optimize(again);
    ADD_FAILURE() << "a version-1 checkpoint was resumed";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "start a fresh `--checkpoint` directory"),
              std::string::npos)
        << e.what();
  }
}

TEST(SessionCheckpoint, DsyrkCheckpointsStayUnder32KB) {
  // The state carries the population and the front, not every evaluation,
  // so even the last checkpoint of a full tune stays small.
  autotune::TunerOptions options;
  const std::string dir = checkpointedDsyrkTune("checkpoint-dsyrk", options);
  const std::vector<support::Json> checkpoints = checkpointRecords(dir);
  ASSERT_GT(checkpoints.size(), 5u);
  EXPECT_LE(checkpoints.back().dump(-1).size(), 32u * 1024u);
}

TEST(SessionCheckpoint, SurrogateStateDoesNotGrowWithEvaluations) {
  // With a culling surrogate attached the state also carries the model,
  // whose size is fixed by the search space: between generations 5 and 30
  // only hv_history and the front grow with the search. The surrogate's
  // recent window is bounded by correlationWindow; it may still be filling
  // at generation 5 and must be full by 30. Every other array keeps its
  // length, and the bytes grow by no more than those arrays' growth plus
  // the width jitter of the fixed-length numbers.
  autotune::TunerOptions options;
  options.surrogateKeep = 0.5;
  options.gde3.noImproveLimit = 100; // run to generation 30
  options.gde3.maxGenerations = 30;
  const std::string dir =
      checkpointedDsyrkTune("checkpoint-surrogate", options);
  std::map<int, support::Json> byGeneration;
  for (const support::Json& r : checkpointRecords(dir))
    byGeneration.emplace(static_cast<int>(r.at("generation").asInt()),
                         r.at("state"));
  ASSERT_TRUE(byGeneration.count(5) && byGeneration.count(30));
  const support::Json& early = byGeneration.at(5);
  const support::Json& late = byGeneration.at(30);
  ASSERT_TRUE(late.at("gde3").has("surrogate"));

  std::map<std::string, std::size_t> earlyLengths, lateLengths;
  arrayLengths(early, "", earlyLengths);
  arrayLengths(late, "", lateLengths);
  const std::string window = "/gde3/surrogate/recent";
  const std::size_t windowSize = tuning::SurrogateOptions{}.correlationWindow;
  EXPECT_LE(earlyLengths.at(window), windowSize);
  EXPECT_EQ(lateLengths.at(window), windowSize);
  const auto growing = [&](const std::string& path) {
    return path.rfind("/gde3/hv_history", 0) == 0 ||
           path.rfind("/gde3/front", 0) == 0 ||
           (path.rfind(window, 0) == 0 && !earlyLengths.count(path));
  };
  for (const auto& [path, length] : lateLengths) {
    if (growing(path) || path == window) continue;
    ASSERT_TRUE(earlyLengths.count(path)) << path;
    EXPECT_EQ(length, earlyLengths.at(path)) << path;
  }

  const auto bytes = [](const support::Json& j) { return j.dump(-1).size(); };
  const auto grown = [&](const auto& pick) {
    return static_cast<double>(bytes(pick(late))) -
           static_cast<double>(bytes(pick(early)));
  };
  const double allowed =
      grown([](const support::Json& j) {
        return j.at("gde3").at("hv_history");
      }) +
      grown([](const support::Json& j) { return j.at("gde3").at("front"); }) +
      grown([](const support::Json& j) {
        return j.at("gde3").at("surrogate").at("recent");
      }) +
      0.02 * static_cast<double>(bytes(early));
  EXPECT_LE(static_cast<double>(bytes(late)) -
                static_cast<double>(bytes(early)),
            allowed);
}

TEST(SessionJournal, BytesOfAFixedTuneArePinned) {
  // The journal's byte layout is part of the format: the same tune must
  // write the same session.jsonl, byte for byte, whatever the encoder's
  // implementation. The hash below is FNV-1a (64-bit) of the journal that
  // this fixed short checkpointed tune writes.
  const std::string dir = freshDir("session-pinned-bytes");
  autotune::TunerOptions options;
  options.gde3.seed = 1;
  options.gde3.maxGenerations = 4;
  options.evaluationWorkers = 1;
  options.session.directory = dir;
  options.session.checkpointEvery = 1;
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::machineByName("westmere"));
  const autotune::TuningResult full = autotune::AutoTuner(options).tune(problem);

  const auto [size, hash] = journalFingerprint(dir);
  EXPECT_EQ(size, 38728u);
  EXPECT_EQ(hash, 13656201207849221548ull);

  // These bytes resume: a copy killed mid-run continues to the same result.
  const std::string cut = freshDir("session-pinned-resume");
  cloneTruncated(dir, cut, 60);
  options.session.directory = cut;
  options.session.resume = true;
  tuning::KernelTuningProblem again(kernels::kernelByName("mm"),
                                    machine::machineByName("westmere"));
  const autotune::TuningResult resumed =
      autotune::AutoTuner(options).tune(again);
  EXPECT_EQ(canonicalFront(resumed.raw.front), canonicalFront(full.raw.front));
  EXPECT_EQ(resumed.raw.evaluations, full.raw.evaluations);
  EXPECT_TRUE(bitEqual(resumed.raw.hvHistory, full.raw.hvHistory));
}

// The pins below were taken from the build that still encoded checkpoints
// through a Json tree: the state's other shapes, a surrogate's substate and
// per-island sessions, must keep those bytes as well.
TEST(SessionJournal, BytesOfASurrogateTuneArePinned) {
  const std::string dir = freshDir("session-pinned-surrogate");
  autotune::TunerOptions options;
  options.gde3.seed = 1;
  options.gde3.maxGenerations = 4;
  options.evaluationWorkers = 1;
  options.surrogateKeep = 0.5;
  options.session.directory = dir;
  options.session.checkpointEvery = 1;
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::machineByName("westmere"));
  (void)autotune::AutoTuner(options).tune(problem);

  ASSERT_TRUE(checkpointRecords(dir).back().at("state").at("gde3").has(
      "surrogate"));
  const auto [size, hash] = journalFingerprint(dir);
  EXPECT_EQ(size, 107806u);
  EXPECT_EQ(hash, 5348080297343480569ull);
}

TEST(SessionJournal, BytesOfAnIslandTuneArePinned) {
  const std::string dir = freshDir("session-pinned-islands");
  autotune::TunerOptions options;
  options.gde3.seed = 1;
  options.gde3.maxGenerations = 4;
  options.evaluationWorkers = 1;
  options.islands = 2;
  options.migrateEvery = 2;
  options.session.directory = dir;
  options.session.checkpointEvery = 1;
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::machineByName("westmere"));
  (void)autotune::AutoTuner(options).tune(problem);

  const auto [size0, hash0] =
      journalFingerprint(tuning::islandDirectory(dir, 0));
  const auto [size1, hash1] =
      journalFingerprint(tuning::islandDirectory(dir, 1));
  EXPECT_EQ(size0, 38757u);
  EXPECT_EQ(hash0, 13091264293149453262ull);
  EXPECT_EQ(size1, 37829u);
  EXPECT_EQ(hash1, 13271058229870177537ull);
}

namespace {

/// A checkpoint hook that encodes every checkpoint twice, through one memo
/// kept across the run and memo-free, and expects the same text.
struct MemoDifferential {
  opt::EncodeMemo memo;
  int checkpoints = 0;
  std::string last; ///< the latest checkpoint's text

  void operator()(const opt::RSGDE3& engine, int generation) {
    last.clear();
    engine.encodeState(last, &memo);
    ASSERT_EQ(last, engine.serialize().dump(-1))
        << "checkpoint of generation " << generation;
    ++checkpoints;
  }
  opt::RunHooks hooks() {
    opt::RunHooks hooks;
    hooks.checkpoint = [this](const opt::RSGDE3& engine, int generation) {
      (*this)(engine, generation);
    };
    return hooks;
  }
};

tuning::KernelTuningProblem mmWestmere() {
  return tuning::KernelTuningProblem(kernels::kernelByName("mm"),
                                     machine::machineByName("westmere"));
}

std::uint64_t counterValue(const std::string& name) {
  return observe::MetricsRegistry::global().counter(name).value();
}

} // namespace

TEST(CheckpointMemo, PlainTuneWithImmigrantsEncodesAsWithoutTheMemo) {
  tuning::KernelTuningProblem problem = mmWestmere();
  runtime::ThreadPool pool(2);
  opt::GDE3Options gde3;
  gde3.seed = 3;
  const std::uint64_t immigrants = counterValue("gde3.immigrants");
  MemoDifferential check;
  const opt::RunHooks hooks = check.hooks();
  (void)opt::RSGDE3(problem, pool, {gde3, true}).run(&hooks);
  EXPECT_GT(check.checkpoints, 10);
  EXPECT_GT(counterValue("gde3.immigrants"), immigrants)
      << "the run must inject stagnation immigrants";
}

TEST(CheckpointMemo, SurrogateTuneEncodesAsWithoutTheMemo) {
  tuning::KernelTuningProblem problem = mmWestmere();
  runtime::ThreadPool pool(2);
  tuning::Surrogate surrogate(problem.space(), problem.numObjectives());
  opt::GDE3Options gde3;
  gde3.seed = 1;
  gde3.surrogate = &surrogate;
  gde3.surrogateKeep = 0.5;
  const std::uint64_t culled = counterValue("tuning.surrogate.culled");
  MemoDifferential check;
  const opt::RunHooks hooks = check.hooks();
  (void)opt::RSGDE3(problem, pool, {gde3, true}).run(&hooks);
  EXPECT_GT(check.checkpoints, 10);
  EXPECT_GT(counterValue("tuning.surrogate.culled"), culled);
}

TEST(CheckpointMemo, IslandsWithMigrantsEncodeAsWithoutTheMemo) {
  // Two engines stepped in turn, trading their top members every second
  // generation before its checkpoint, as the island model does.
  tuning::KernelTuningProblem problem = mmWestmere();
  runtime::ThreadPool pool(2);
  std::vector<std::unique_ptr<opt::RSGDE3>> islands;
  std::vector<MemoDifferential> checks(2);
  std::vector<opt::RunHooks> hooks;
  for (int k = 0; k < 2; ++k) {
    opt::GDE3Options gde3;
    gde3.seed = 5 + static_cast<std::uint64_t>(k);
    islands.push_back(
        std::make_unique<opt::RSGDE3>(problem, pool, opt::RSGDE3Options{gde3}));
    hooks.push_back(checks[static_cast<std::size_t>(k)].hooks());
  }
  for (int k = 0; k < 2; ++k) islands[k]->begin(&hooks[k]);
  std::size_t integrated = 0;
  for (bool running = true; running;) {
    running = false;
    std::vector<char> stepped(2, 0);
    for (int k = 0; k < 2; ++k) stepped[k] = islands[k]->nextGeneration();
    if (stepped[0] && stepped[1] &&
        islands[0]->engine().generationsDone() % 2 == 0) {
      const auto outbound0 = islands[0]->engine().selectTop(3);
      const auto outbound1 = islands[1]->engine().selectTop(3);
      integrated += islands[0]->engine().integrateMigrants(outbound1);
      integrated += islands[1]->engine().integrateMigrants(outbound0);
    }
    for (int k = 0; k < 2; ++k)
      if (stepped[k]) {
        islands[k]->endGeneration();
        running = true;
      }
  }
  for (auto& island : islands) (void)island->end();
  EXPECT_GT(integrated, 0u);
  EXPECT_GT(checks[0].checkpoints + checks[1].checkpoints, 20);
}

TEST(CheckpointMemo, MembersOneBitApartAreSeparateEntries) {
  // Variants of one member that differ in a single genome bit or a single
  // objective ulp, alone and side by side, encoded through one memo: each
  // encode must write each variant's own text.
  tuning::KernelTuningProblem problem = mmWestmere();
  runtime::ThreadPool pool(1);
  opt::RSGDE3 engine(problem, pool, {});
  engine.begin();
  const support::Json initial = engine.serialize();
  const std::vector<opt::Individual>& population = engine.engine().population();
  ASSERT_GE(population.size(), 4u);
  const opt::Individual base = population[1];
  opt::Individual genomeBit = base;
  genomeBit.genome[0] = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(genomeBit.genome[0]) ^ 1);
  opt::Individual objectiveUlp = base;
  objectiveUlp.objectives[1] =
      std::nextafter(objectiveUlp.objectives[1], 2 * objectiveUlp.objectives[1]);

  const auto withLeadingMembers =
      [&](const std::vector<opt::Individual>& members) {
        support::JsonObject state = initial.asObject();
        support::JsonObject gde3 = state.at("gde3").asObject();
        support::JsonArray encoded = gde3.at("population").asArray();
        for (std::size_t i = 0; i < members.size(); ++i)
          encoded[i] = opt::individualToJson(members[i]);
        gde3["population"] = encoded;
        state["gde3"] = gde3;
        return support::Json(state);
      };
  opt::EncodeMemo memo;
  std::vector<std::string> alone;
  for (const std::vector<opt::Individual>& members :
       std::vector<std::vector<opt::Individual>>{
           {base},
           {genomeBit},
           {objectiveUlp},
           {base, genomeBit, objectiveUlp},
           {objectiveUlp, genomeBit, base},
           {genomeBit, genomeBit, base},
           {base}}) {
    engine.restore(withLeadingMembers(members));
    std::string text;
    engine.encodeState(text, &memo);
    ASSERT_EQ(text, engine.serialize().dump(-1));
    if (members.size() == 1) alone.push_back(text);
  }
  EXPECT_NE(alone[0], alone[1]);
  EXPECT_NE(alone[0], alone[2]);
  EXPECT_NE(alone[1], alone[2]);
  EXPECT_EQ(alone[0], alone[3]);
}

TEST(CheckpointMemo, RestoredStateNeverReadsAnotherRunsText) {
  // Both runs go exactly eight generations, so their hv_history texts
  // have the same length and differ only in their values.
  tuning::KernelTuningProblem problem = mmWestmere();
  runtime::ThreadPool pool(1);
  opt::GDE3Options gde3;
  gde3.maxGenerations = 8;
  gde3.noImproveLimit = 100;
  // The last checkpoint, of generation 8, holds the final state: run()
  // hands the engine's own state over with its result.
  const auto finalState = [&](std::uint64_t seed, MemoDifferential& check) {
    gde3.seed = seed;
    opt::RSGDE3 engine(problem, pool, {gde3, true});
    const opt::RunHooks hooks = check.hooks();
    (void)engine.run(&hooks);
    return support::Json::parse(check.last);
  };
  MemoDifferential first, second;
  const support::Json state1 = finalState(1, first);
  const support::Json state2 = finalState(2, second);
  const auto& hv1 = state1.at("gde3").at("hv_history").asArray();
  const auto& hv2 = state2.at("gde3").at("hv_history").asArray();
  ASSERT_EQ(hv1.size(), hv2.size());
  ASSERT_NE(hv1.back().asNumber(), hv2.back().asNumber());

  // first.memo holds run 1's last text; an engine restored to run 2's
  // state, and back, must encode what it holds, not what the memo has.
  gde3.seed = 1;
  opt::RSGDE3 engine(problem, pool, {gde3, true});
  engine.restore(state2);
  first(engine, 8);
  EXPECT_EQ(engine.serialize().dump(-1), state2.dump(-1));
  engine.restore(state1);
  first(engine, 8);
  EXPECT_EQ(engine.serialize().dump(-1), state1.dump(-1));
  EXPECT_EQ(first.checkpoints, 9 + 2);
}
