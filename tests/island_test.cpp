// Island-model distributed search (src/tuning/island.h): the migrant
// journal's crash edge cases — a lagging reader catching up mid-write, a
// torn record skipped without poisoning later reads, a resumed island
// republishing its rounds exactly once — plus the determinism contract of
// the merged front (bit-identical across pool sizes and exchange media)
// and the analytic seeder (src/tuning/seed.h).
#include "core/testproblems.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "session/journal.h"
#include "session/session.h"
#include "support/check.h"
#include "tuning/island.h"
#include "tuning/seed.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
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

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Distinct synthetic migrants for round `round` (content does not matter
/// to the exchange; distinctness lets the tests prove which round a fetch
/// actually served).
std::vector<opt::Individual> fakeMigrants(int round, std::size_t count) {
  std::vector<opt::Individual> out;
  for (std::size_t i = 0; i < count; ++i) {
    opt::Individual ind;
    ind.genome = {0.5, static_cast<double>(round)};
    ind.config = {static_cast<std::int64_t>(round * 100 + i), 2};
    ind.objectives = {static_cast<double>(round), static_cast<double>(i)};
    out.push_back(std::move(ind));
  }
  return out;
}

void expectSameIndividuals(const std::vector<opt::Individual>& a,
                           const std::vector<opt::Individual>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config, b[i].config) << i;
    EXPECT_TRUE(bitEqual(a[i].objectives, b[i].objectives)) << i;
    EXPECT_TRUE(bitEqual(a[i].genome, b[i].genome)) << i;
  }
}

tuning::JournalExchange makeExchange(const std::string& dir) {
  return tuning::JournalExchange(dir, /*islands=*/2, /*migrateEvery=*/5,
                                 /*migrants=*/3, /*seed=*/9);
}

} // namespace

TEST(JournalExchange, LaggingReaderCatchesUp) {
  const std::string dir = freshDir("island-lagging");
  fs::create_directories(tuning::islandDirectory(dir, 0));
  tuning::JournalExchange exchange = makeExchange(dir);

  // Peer journal does not exist yet (worker process still starting up).
  EXPECT_EQ(exchange.tryFetch(1, 1), std::nullopt);

  // Header written but no round-1 record yet: still lagging, not an error.
  exchange.attach(0, /*resume=*/false);
  EXPECT_EQ(exchange.tryFetch(0, 1), std::nullopt);

  // The record lands; the reader's next poll serves it verbatim.
  const std::vector<opt::Individual> sent = fakeMigrants(1, 3);
  EXPECT_TRUE(exchange.publish(0, 1, 5, sent));
  const auto got = exchange.tryFetch(0, 1);
  ASSERT_TRUE(got.has_value());
  expectSameIndividuals(*got, sent);

  // Reads are repeatable (fetch() may poll the same round many times) and
  // later rounds stay invisible until published.
  expectSameIndividuals(*exchange.tryFetch(0, 1), sent);
  EXPECT_EQ(exchange.tryFetch(0, 2), std::nullopt);

  // A blocking fetch under a cancelled run returns empty instead of
  // spinning forever.
  EXPECT_TRUE(exchange.fetch(0, 2, [] { return true; }).empty());
}

TEST(JournalExchange, TornRecordSkippedWithoutPoisoningLaterReads) {
  const std::string dir = freshDir("island-torn");
  fs::create_directories(tuning::islandDirectory(dir, 0));
  const std::vector<opt::Individual> round1 = fakeMigrants(1, 2);
  {
    tuning::JournalExchange exchange = makeExchange(dir);
    exchange.attach(0, /*resume=*/false);
    EXPECT_TRUE(exchange.publish(0, 1, 5, round1));
  }
  // Crash model: the writer died mid-append, leaving a partial round-2
  // record with no newline at the journal tail.
  {
    std::ofstream out(tuning::migrantJournalPath(dir, 0), std::ios::app);
    out << R"({"type":"migrants","island":0,"round":2,"indiv)";
  }

  // Readers treat the torn tail as not-yet-written: the complete round-1
  // record is still served, round 2 reads as lagging — never an error.
  tuning::JournalExchange reader = makeExchange(dir);
  const auto got = reader.tryFetch(0, 1);
  ASSERT_TRUE(got.has_value());
  expectSameIndividuals(*got, round1);
  EXPECT_EQ(reader.tryFetch(0, 2), std::nullopt);

  // The resumed writer trims the torn tail and republishes round 2 whole;
  // the reader then sees exactly one intact round-2 record.
  tuning::JournalExchange resumed = makeExchange(dir);
  resumed.attach(0, /*resume=*/true);
  const std::vector<opt::Individual> round2 = fakeMigrants(2, 2);
  EXPECT_TRUE(resumed.publish(0, 2, 10, round2));
  const auto after = reader.tryFetch(0, 2);
  ASSERT_TRUE(after.has_value());
  expectSameIndividuals(*after, round2);
}

TEST(JournalExchange, ResumeRepublishesExactlyOnce) {
  const std::string dir = freshDir("island-once");
  fs::create_directories(tuning::islandDirectory(dir, 0));
  {
    tuning::JournalExchange exchange = makeExchange(dir);
    exchange.attach(0, /*resume=*/false);
    EXPECT_TRUE(exchange.publish(0, 1, 5, fakeMigrants(1, 2)));
    EXPECT_TRUE(exchange.publish(0, 2, 10, fakeMigrants(2, 2)));
  }

  // The resumed island replays generations 1..10 from its checkpoint and
  // re-offers rounds 1 and 2: both must be refused (the original records
  // stand), while the first genuinely new round appends.
  tuning::JournalExchange resumed = makeExchange(dir);
  resumed.attach(0, /*resume=*/true);
  EXPECT_FALSE(resumed.publish(0, 1, 5, fakeMigrants(1, 2)));
  EXPECT_FALSE(resumed.publish(0, 2, 10, fakeMigrants(2, 2)));
  EXPECT_TRUE(resumed.publish(0, 3, 15, fakeMigrants(3, 2)));
  resumed.retire(0, 3, 15, 123);
  resumed.retire(0, 3, 15, 123); // idempotent

  // One header, one migrants record per round, one retire — no duplicates.
  const auto records =
      session::readJournal(tuning::migrantJournalPath(dir, 0));
  std::multiset<int> rounds;
  int headers = 0, retires = 0;
  for (const support::Json& r : records) {
    const std::string type = r.at("type").asString();
    if (type == "header") ++headers;
    if (type == "migrants")
      rounds.insert(static_cast<int>(r.at("round").asInt()));
    if (type == "retire") ++retires;
  }
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(retires, 1);
  EXPECT_EQ(rounds, (std::multiset<int>{1, 2, 3}));
}

TEST(JournalExchange, ResumeRejectsForeignJournal) {
  const std::string dir = freshDir("island-foreign");
  fs::create_directories(tuning::islandDirectory(dir, 0));
  {
    tuning::JournalExchange exchange = makeExchange(dir);
    exchange.attach(0, /*resume=*/false);
  }
  // Same directory, different run parameters: the header check refuses.
  tuning::JournalExchange other(dir, /*islands=*/2, /*migrateEvery=*/5,
                                /*migrants=*/3, /*seed=*/10);
  EXPECT_THROW(other.attach(0, /*resume=*/true), support::CheckError);
}

TEST(JournalExchange, RetiredPeerResolvesLaterRoundsEmpty) {
  const std::string dir = freshDir("island-retire");
  fs::create_directories(tuning::islandDirectory(dir, 0));
  tuning::JournalExchange exchange = makeExchange(dir);
  exchange.attach(0, /*resume=*/false);
  const std::vector<opt::Individual> sent = fakeMigrants(1, 2);
  EXPECT_TRUE(exchange.publish(0, 1, 5, sent));
  exchange.retire(0, 1, 7, 321);

  // Earlier rounds stay readable; rounds past the retirement resolve to
  // empty immediately (a faster peer must not block on a finished one).
  expectSameIndividuals(*exchange.tryFetch(0, 1), sent);
  const auto later = exchange.tryFetch(0, 2);
  ASSERT_TRUE(later.has_value());
  EXPECT_TRUE(later->empty());
}

TEST(MemoryExchange, SameProtocolAsJournal) {
  tuning::MemoryExchange exchange;
  const std::vector<opt::Individual> sent = fakeMigrants(1, 3);
  EXPECT_TRUE(exchange.publish(0, 1, 5, sent));
  EXPECT_FALSE(exchange.publish(0, 1, 5, fakeMigrants(9, 1)))
      << "a round is immutable once published";
  expectSameIndividuals(exchange.fetch(0, 1, nullptr), sent);
  exchange.retire(0, 1, 7, 11);
  EXPECT_TRUE(exchange.fetch(0, 2, nullptr).empty());
  EXPECT_TRUE(exchange.fetch(1, 1, [] { return true; }).empty())
      << "stop unblocks a fetch from a never-published island";
}

namespace {

tuning::IslandOptions fonsecaIslands(opt::SyntheticProblem& problem) {
  tuning::IslandOptions io;
  io.islands = 2;
  io.migrateEvery = 3;
  io.migrants = 2;
  io.gde3.seed = 11;
  io.gde3.maxGenerations = 12;
  io.makeHeader = [&problem](int island, std::uint64_t seed) {
    session::SessionHeader h;
    h.problem = "fonseca/island-" + std::to_string(island);
    h.algorithm = "rsgde3";
    h.seed = seed;
    h.objectives = problem.numObjectives();
    h.space = problem.space();
    h.algorithmOptions = support::JsonObject{{"population", 30}};
    return h;
  };
  return io;
}

} // namespace

TEST(Islands, MergedFrontIdenticalAcrossPoolSizesAndMedia) {
  // The determinism contract: the merged front, evaluation count and
  // hypervolume trajectory are a pure function of (problem, options,
  // island count) — identical whether the islands share a thread pool of
  // 1 or 4 workers, and whether migrants travel in memory or through
  // journals on disk.
  std::vector<tuning::IslandRun> runs;
  for (const unsigned workers : {1u, 4u}) {
    opt::SyntheticProblem problem = opt::makeFonseca();
    runtime::ThreadPool pool(workers);
    runs.push_back(runIslands(problem, pool, fonsecaIslands(problem)));
  }
  {
    opt::SyntheticProblem problem = opt::makeFonseca();
    runtime::ThreadPool pool(4);
    tuning::IslandOptions io = fonsecaIslands(problem);
    io.directory = freshDir("island-journal-medium");
    runs.push_back(runIslands(problem, pool, io));
  }

  ASSERT_FALSE(runs[0].merged.front.empty());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_EQ(canonicalFront(runs[i].merged.front),
              canonicalFront(runs[0].merged.front));
    EXPECT_EQ(runs[i].merged.evaluations, runs[0].merged.evaluations);
    EXPECT_TRUE(bitEqual(runs[i].merged.hvHistory,
                         runs[0].merged.hvHistory));
  }

  // The journal-backed run left a resumable session per island.
  const tuning::IslandRun& journalled = runs.back();
  EXPECT_FALSE(journalled.journal.empty());
  EXPECT_GT(journalled.checkpoints, 0u);
  EXPECT_GT(journalled.recordedEvaluations, 0u);
}

namespace {

/// Counts evaluate() calls made off the thread that created it.
class ThreadProbe final : public tuning::ObjectiveFunction {
public:
  explicit ThreadProbe(tuning::ObjectiveFunction& inner) : inner_(inner) {}
  std::size_t numObjectives() const override {
    return inner_.numObjectives();
  }
  const std::vector<tuning::ParamSpec>& space() const override {
    return inner_.space();
  }
  tuning::Objectives evaluate(const tuning::Config& config) override {
    ++calls_;
    if (std::this_thread::get_id() != owner_) ++elsewhere_;
    return inner_.evaluate(config);
  }
  int calls() const { return calls_.load(); }
  int elsewhere() const { return elsewhere_.load(); }

private:
  tuning::ObjectiveFunction& inner_;
  const std::thread::id owner_ = std::this_thread::get_id();
  std::atomic<int> calls_{0};
  std::atomic<int> elsewhere_{0};
};

} // namespace

TEST(Islands, InProcessIslandsRunOnTheCallingThread) {
  for (const bool journalled : {false, true}) {
    SCOPED_TRACE(journalled ? "journal exchange" : "memory exchange");
    opt::SyntheticProblem problem = opt::makeFonseca();
    ThreadProbe probe(problem);
    runtime::ThreadPool pool(4);
    tuning::IslandOptions io = fonsecaIslands(problem);
    io.islands = 4;
    io.gde3.parallelEvaluation = false;
    if (journalled) io.directory = freshDir("island-one-thread");
    const tuning::IslandRun run = runIslands(probe, pool, io);
    EXPECT_GT(run.merged.evaluations, 0u);
    EXPECT_GT(probe.calls(), 0);
    EXPECT_EQ(probe.elsewhere(), 0);
  }
}

TEST(Islands, MergeInvocationReconstructsFinishedWorkers) {
  // Worker mode: each island runs in its own invocation against the shared
  // directory. The invocations must overlap in time — the synchronous ring
  // blocks each round on the neighbour's record — so the test runs them on
  // two threads, as the CLI runs them as two processes. A later merge
  // invocation then rebuilds the combined front without re-running
  // anything.
  const std::string dir = freshDir("island-workers");
  opt::SyntheticProblem problem = opt::makeFonseca();

  tuning::IslandRun inProcess;
  {
    opt::SyntheticProblem golden = opt::makeFonseca();
    runtime::ThreadPool pool(2);
    tuning::IslandOptions io = fonsecaIslands(golden);
    io.directory = freshDir("island-workers-golden");
    inProcess = runIslands(golden, pool, io);
  }

  std::vector<std::thread> workers;
  for (const int k : {0, 1}) {
    workers.emplace_back([&dir, k] {
      opt::SyntheticProblem worker = opt::makeFonseca();
      runtime::ThreadPool pool(2);
      tuning::IslandOptions io = fonsecaIslands(worker);
      io.directory = dir;
      io.islandIndex = k;
      const tuning::IslandRun partial = runIslands(worker, pool, io);
      EXPECT_FALSE(partial.merged.front.empty());
    });
  }
  for (std::thread& t : workers) t.join();

  runtime::ThreadPool pool(2);
  tuning::IslandOptions io = fonsecaIslands(problem);
  io.directory = dir;
  io.resume = true;
  const tuning::IslandRun merged = runIslands(problem, pool, io);
  EXPECT_EQ(canonicalFront(merged.merged.front),
            canonicalFront(inProcess.merged.front));
  EXPECT_EQ(merged.merged.evaluations, inProcess.merged.evaluations);
  // Reconstruction replays the journals without appending anything: no
  // resume records, and the recorded evaluations are exactly the workers'.
  EXPECT_EQ(merged.resumes, 0);
  EXPECT_EQ(merged.recordedEvaluations, merged.merged.evaluations);
}

TEST(AnalyticSeeds, DeterministicInBoundsAndCapped) {
  const machine::MachineModel machine = machine::westmere();
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"), machine);
  const std::vector<tuning::Config> seeds = tuning::analyticSeeds(problem);

  ASSERT_FALSE(seeds.empty());
  EXPECT_LE(seeds.size(), tuning::SeedOptions{}.maxSeeds);
  const std::vector<tuning::ParamSpec>& space = problem.space();
  std::set<tuning::Config> distinct;
  for (const tuning::Config& seed : seeds) {
    ASSERT_EQ(seed.size(), space.size());
    for (std::size_t d = 0; d < seed.size(); ++d) {
      EXPECT_GE(seed[d], space[d].lo) << space[d].name;
      EXPECT_LE(seed[d], space[d].hi) << space[d].name;
    }
    distinct.insert(seed);
  }
  EXPECT_EQ(distinct.size(), seeds.size()) << "seeds are deduplicated";
  EXPECT_EQ(tuning::analyticSeeds(problem), seeds) << "bit-reproducible";
}
