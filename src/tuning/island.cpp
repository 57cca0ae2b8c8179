#include "tuning/island.h"

#include "observe/metrics.h"
#include "observe/trace.h"
#include "support/check.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

namespace motune::tuning {

namespace {

support::Json migrantHeaderRecord(int island, int islands, int migrateEvery,
                                  std::size_t migrants, std::uint64_t seed) {
  return support::JsonObject{{"type", "header"},
                             {"format", "motune-island-migrants"},
                             {"version", 1},
                             {"island", island},
                             {"islands", islands},
                             {"migrate_every", migrateEvery},
                             {"migrants", migrants},
                             {"seed", seed}};
}

support::Json migrantsRecord(int island, int round, int generation,
                             const std::vector<opt::Individual>& emigrants) {
  support::JsonArray individuals;
  for (const opt::Individual& ind : emigrants)
    individuals.push_back(opt::individualToJson(ind));
  return support::JsonObject{{"type", "migrants"},
                             {"island", island},
                             {"round", round},
                             {"generation", generation},
                             {"individuals", std::move(individuals)}};
}

support::Json retireRecord(int island, int round, int generation,
                           std::uint64_t evaluations) {
  return support::JsonObject{{"type", "retire"},
                             {"island", island},
                             {"round", round},
                             {"generation", generation},
                             {"evaluations", evaluations}};
}

} // namespace

std::string islandDirectory(const std::string& directory, int island) {
  return directory + "/island-" + std::to_string(island);
}

std::string migrantJournalPath(const std::string& directory, int island) {
  return islandDirectory(directory, island) + "/migrants.jsonl";
}

// ---------------------------------------------------------------------------
// MigrantExchange

std::vector<opt::Individual>
MigrantExchange::fetch(int from, int round,
                       const std::function<bool()>& stop) {
  for (;;) {
    if (std::optional<std::vector<opt::Individual>> got =
            tryFetch(from, round))
      return *got;
    static observe::Counter& staleReads =
        observe::MetricsRegistry::global().counter("tuning.island.stale_reads");
    staleReads.add();
    if (stop && stop()) return {};
    std::this_thread::sleep_for(std::chrono::milliseconds(pollMs_));
  }
}

// ---------------------------------------------------------------------------
// MemoryExchange

bool MemoryExchange::publish(int island, int round, int /*generation*/,
                             const std::vector<opt::Individual>& emigrants) {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.emplace(std::make_pair(island, round), emigrants).second;
}

std::optional<std::vector<opt::Individual>>
MemoryExchange::tryFetch(int from, int round) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(std::make_pair(from, round));
  if (it != records_.end()) return it->second;
  const auto retired = retired_.find(from);
  if (retired != retired_.end() && retired->second < round)
    return std::vector<opt::Individual>{};
  return std::nullopt;
}

void MemoryExchange::retire(int island, int round, int /*generation*/,
                            std::uint64_t /*evaluations*/) {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_[island] = round;
}

// ---------------------------------------------------------------------------
// JournalExchange

JournalExchange::JournalExchange(std::string directory, int islands,
                                 int migrateEvery, std::size_t migrants,
                                 std::uint64_t seed)
    : directory_(std::move(directory)),
      islands_(islands),
      migrateEvery_(migrateEvery),
      migrants_(migrants),
      seed_(seed) {
  MOTUNE_CHECK(!directory_.empty());
}

void JournalExchange::attach(int island, bool resume) {
  std::lock_guard<std::mutex> lock(mutex_);
  MOTUNE_CHECK_MSG(attached_.find(island) == attached_.end(),
                   "island attached twice");
  const std::string path = migrantJournalPath(directory_, island);
  Attached state;
  // A kill between session creation and the first migrant write leaves a
  // session journal but no migrant journal; the resumed island then starts
  // its migrant journal fresh.
  if (resume && !std::filesystem::exists(path)) resume = false;
  if (resume) {
    // Re-scan what the killed run already published: those rounds are
    // visible to peers and must not be appended again (exactly-once), and
    // JournalWriter's append mode trims any torn tail before we write.
    const std::vector<support::Json> records = session::readJournal(path);
    MOTUNE_CHECK_MSG(!records.empty(), "empty migrant journal: " + path);
    const support::Json& header = records.front();
    MOTUNE_CHECK_MSG(header.at("type").asString() == "header" &&
                         header.at("format").asString() ==
                             "motune-island-migrants",
                     "not a migrant journal: " + path);
    MOTUNE_CHECK_MSG(header.at("version").asInt() == 1,
                     "unsupported migrant journal version: " + path);
    MOTUNE_CHECK_MSG(
        header.at("islands").asInt() == islands_ &&
            header.at("migrate_every").asInt() == migrateEvery_ &&
            static_cast<std::size_t>(header.at("migrants").asInt()) ==
                migrants_ &&
            static_cast<std::uint64_t>(header.at("seed").asInt()) == seed_,
        "migrant journal belongs to a different island run: " + path);
    for (const support::Json& r : records) {
      const std::string type = r.at("type").asString();
      if (type == "migrants")
        state.publishedRounds.insert(static_cast<int>(r.at("round").asInt()));
      else if (type == "retire")
        state.retired = true;
    }
    state.writer = std::make_unique<session::JournalWriter>(
        path, session::JournalWriter::Mode::Append);
  } else {
    state.writer = std::make_unique<session::JournalWriter>(
        path, session::JournalWriter::Mode::Truncate);
    state.writer->write(
        migrantHeaderRecord(island, islands_, migrateEvery_, migrants_,
                            seed_));
  }
  attached_.emplace(island, std::move(state));
}

bool JournalExchange::publish(int island, int round, int generation,
                              const std::vector<opt::Individual>& emigrants) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = attached_.find(island);
  MOTUNE_CHECK_MSG(it != attached_.end(), "publish from unattached island");
  if (!it->second.publishedRounds.insert(round).second) return false;
  it->second.writer->write(migrantsRecord(island, round, generation,
                                          emigrants));
  return true;
}

std::optional<std::vector<opt::Individual>>
JournalExchange::tryFetch(int from, int round) {
  const std::string path = migrantJournalPath(directory_, from);
  // A journal that does not exist yet (the peer process is still starting
  // up) is indistinguishable from lagging; mid-file corruption inside an
  // existing journal stays a hard error (readJournal throws).
  if (!std::filesystem::exists(path)) return std::nullopt;
  const std::vector<support::Json> records = session::readJournal(path);
  for (const support::Json& r : records) {
    if (!r.has("type")) continue;
    const std::string type = r.at("type").asString();
    if (type == "migrants" && r.at("round").asInt() == round) {
      std::vector<opt::Individual> out;
      for (const support::Json& ind : r.at("individuals").asArray())
        out.push_back(opt::individualFromJson(ind));
      return out;
    }
    if (type == "retire" && r.at("round").asInt() < round)
      return std::vector<opt::Individual>{};
  }
  return std::nullopt;
}

void JournalExchange::retire(int island, int round, int generation,
                             std::uint64_t evaluations) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = attached_.find(island);
  MOTUNE_CHECK_MSG(it != attached_.end(), "retire from unattached island");
  if (it->second.retired) return; // resumed island that had already finished
  it->second.writer->write(retireRecord(island, round, generation,
                                        evaluations));
  it->second.retired = true;
}

// ---------------------------------------------------------------------------
// runIslands

namespace {

/// Outcome of one island's run (or reconstruction).
struct IslandOutcome {
  opt::OptResult result;
  std::string journal;
  std::uint64_t checkpoints = 0;
  int resumes = 0;
  std::uint64_t recordedEvaluations = 0;
};

/// Engine options of island k: shifted RNG seed, rotated analytic seeds.
opt::RSGDE3Options islandEngineOptions(const IslandOptions& options, int k) {
  opt::RSGDE3Options rs;
  rs.gde3 = options.gde3;
  rs.reductionEnabled = options.reduction;
  rs.gde3.seed = options.gde3.seed + static_cast<std::uint64_t>(k);
  rs.gde3.initialSeeds.clear();
  const std::size_t n = options.seeds.size();
  for (std::size_t i = 0; i < n; ++i)
    rs.gde3.initialSeeds.push_back(
        options.seeds[(i + static_cast<std::size_t>(k)) % n]);
  return rs;
}

/// One island of a run: its engine, its session and where it stands in
/// the migration protocol. The constructor resumes or starts the search,
/// or, when the island's session already finished, rebuilds its snapshot.
class Island {
public:
  Island(ObjectiveFunction& fn, runtime::ThreadPool& pool,
         const IslandOptions& options, int k, MigrantExchange& exchange)
      : options_(options), k_(k), exchange_(exchange),
        engine_(fn, pool, islandEngineOptions(options, k)) {
    if (!options.directory.empty()) {
      const std::string dir = islandDirectory(options.directory, k);
      MOTUNE_CHECK_MSG(options.makeHeader != nullptr,
                       "island sessions need a header factory");
      const session::SessionHeader header = options.makeHeader(
          k, options.gde3.seed + static_cast<std::uint64_t>(k));
      const bool resume = options.resume && session::sessionExists(dir);
      if (resume) {
        resumed_ = session::loadSession(dir);
        session::checkCompatible(resumed_->header, header);
        for (const session::EvalRecord& e : resumed_->evaluations)
          engine_.engine().evaluator().preload(e.config, e.objectives);
        if (resumed_->finished) {
          // The island already ran to completion: rebuild its result
          // from the final checkpoint plus the preloaded evaluations —
          // this is how a later invocation merges finished worker islands
          // without re-running anything.
          MOTUNE_CHECK_MSG(resumed_->checkpoint.has_value(),
                           "finished island session has no checkpoint: " +
                               dir);
          engine_.restore(*resumed_->checkpoint);
          out_.result = engine_.engine().release();
          out_.journal = session::journalPath(dir);
          out_.checkpoints = resumed_->checkpoints;
          out_.resumes = resumed_->resumes;
          out_.recordedEvaluations = resumed_->evaluations.size();
          done_ = true;
          return;
        }
        writer_ = std::make_unique<session::SessionWriter>(dir, *resumed_);
      } else {
        writer_ = std::make_unique<session::SessionWriter>(dir, header);
      }
      dynamic_cast<JournalExchange&>(exchange).attach(k, resume);
      engine_.engine().evaluator().setListener(
          [this](std::span<const CountingEvaluator::Entry* const> batch) {
            writer_->recordEvaluations(batch);
          });
      hooks_.checkpointEvery = options.checkpointEvery;
      hooks_.checkpoint = [this](const opt::RSGDE3& engine, int generation) {
        writer_->recordCheckpoint(
            generation, engine.engine().evaluations(),
            [&](std::string& out) { engine.encodeState(out, &memo_); });
      };
    }
    hooks_.shouldStop = options.stopRequested;
    if (k == 0) hooks_.onGeneration = options.onProgress;
    if (resumed_.has_value() && resumed_->checkpoint.has_value())
      hooks_.resumeState = &*resumed_->checkpoint;
    engine_.begin(&hooks_);
  }

  bool done() const { return done_; }
  /// The round whose migrants the island waits for, or -1 while it runs.
  int waitingFor() const { return waitingFor_; }
  int predecessor() const {
    return (k_ - 1 + options_.islands) % options_.islands;
  }

  /// Runs generations until the island reaches a migration round, where
  /// it publishes its emigrants and waits, or until its search ends.
  void advance() {
    while (engine_.nextGeneration()) {
      const int generation = engine_.engine().generationsDone();
      if (options_.islands > 1 && generation % options_.migrateEvery == 0) {
        waitingFor_ = generation / options_.migrateEvery;
        const std::vector<opt::Individual> outbound =
            engine_.engine().selectTop(options_.migrants);
        if (exchange_.publish(k_, waitingFor_, generation, outbound)) {
          static observe::Counter& migrantsOut =
              observe::MetricsRegistry::global().counter(
                  "tuning.island.migrants_out");
          migrantsOut.add(outbound.size());
        }
        return;
      }
      engine_.endGeneration();
    }
    finish();
  }

  /// Integrates the awaited round's migrants and ends that generation.
  void integrate(const std::vector<opt::Individual>& inbound) {
    static observe::Counter& migrantsIn =
        observe::MetricsRegistry::global().counter("tuning.island.migrants_in");
    migrantsIn.add(engine_.engine().integrateMigrants(inbound));
    waitingFor_ = -1;
    engine_.endGeneration();
  }

  IslandOutcome& outcome() { return out_; }

private:
  void finish() {
    done_ = true;
    out_.result = engine_.end();
    const bool cancelled =
        options_.stopRequested != nullptr && options_.stopRequested();
    if (!cancelled) {
      if (options_.islands > 1)
        exchange_.retire(k_, out_.result.generations / options_.migrateEvery,
                         out_.result.generations, out_.result.evaluations);
      if (writer_)
        writer_->recordFinish(out_.result.evaluations,
                              out_.result.front.size(),
                              out_.result.hvHistory.empty()
                                  ? 0.0
                                  : out_.result.hvHistory.back());
    }
    if (writer_) {
      out_.journal = writer_->path();
      out_.checkpoints = (resumed_ ? resumed_->checkpoints : 0) +
                         writer_->checkpointsWritten();
      out_.resumes = resumed_ ? resumed_->resumes + 1 : 0;
      out_.recordedEvaluations =
          (resumed_ ? resumed_->evaluations.size() : 0) +
          writer_->evaluationsRecorded();
    }
  }

  const IslandOptions& options_;
  const int k_;
  MigrantExchange& exchange_;
  opt::RSGDE3 engine_;
  std::optional<session::ResumeState> resumed_;
  std::unique_ptr<session::SessionWriter> writer_;
  opt::RunHooks hooks_;
  opt::EncodeMemo memo_; ///< of this island's checkpoints
  IslandOutcome out_;
  bool done_ = false;
  int waitingFor_ = -1;
};

/// Deterministic merge of the islands' snapshots (see IslandOptions).
opt::OptResult mergeOutcomes(const std::vector<IslandOutcome>& outcomes) {
  opt::OptResult merged;
  std::vector<opt::Individual> fronts;
  for (const IslandOutcome& o : outcomes) {
    fronts.insert(fronts.end(), o.result.front.begin(), o.result.front.end());
    merged.population.insert(merged.population.end(),
                             o.result.population.begin(),
                             o.result.population.end());
    merged.evaluations += o.result.evaluations;
    merged.generations = std::max(merged.generations, o.result.generations);
  }
  merged.front = opt::paretoFront(fronts);
  if (!outcomes.empty()) merged.hvHistory = outcomes.front().result.hvHistory;
  return merged;
}

} // namespace

IslandRun runIslands(ObjectiveFunction& fn, runtime::ThreadPool& pool,
                     const IslandOptions& options) {
  MOTUNE_CHECK_MSG(options.islands >= 1, "island count must be >= 1");
  MOTUNE_CHECK_MSG(options.migrateEvery >= 1,
                   "migration interval must be >= 1");
  MOTUNE_CHECK_MSG(options.migrants >= 1, "migrant count must be >= 1");
  MOTUNE_CHECK_MSG(options.islandIndex < options.islands,
                   "island index out of range");
  MOTUNE_CHECK_MSG(options.islandIndex < 0 || !options.directory.empty(),
                   "island worker mode requires a session directory: "
                   "workers exchange migrants through it");
  MOTUNE_CHECK_MSG(options.gde3.surrogate == nullptr,
                   "islands and surrogate culling are mutually exclusive");
  observe::Span span = observe::Tracer::global().span(
      "island.model", {{"islands", support::Json(options.islands)},
                       {"migrate_every", support::Json(options.migrateEvery)},
                       {"worker", support::Json(options.islandIndex >= 0)}});

  std::unique_ptr<MigrantExchange> exchange;
  if (options.directory.empty())
    exchange = std::make_unique<MemoryExchange>();
  else
    exchange = std::make_unique<JournalExchange>(
        options.directory, options.islands, options.migrateEvery,
        options.migrants, options.gde3.seed);

  std::vector<std::unique_ptr<Island>> islands;
  if (options.islandIndex >= 0) {
    // Worker mode: run exactly one island; the merged result is this
    // island's own snapshot (provisional — a later merge invocation over
    // the shared directory produces the combined front).
    islands.push_back(std::make_unique<Island>(fn, pool, options,
                                               options.islandIndex,
                                               *exchange));
  } else {
    for (int k = 0; k < options.islands; ++k)
      islands.push_back(
          std::make_unique<Island>(fn, pool, options, k, *exchange));
  }
  // Each pass advances every running island to its next migration round
  // and hands every waiting one its migrants once they exist. Publishing
  // before fetching keeps this from stalling: of the waiting islands, the
  // one at the lowest round has a predecessor here that already published
  // that round or retired before it. Only a worker process, whose
  // predecessor is another process, ever has to block.
  for (;;) {
    bool running = false, progressed = false;
    for (const std::unique_ptr<Island>& island : islands) {
      if (island->done()) continue;
      running = true;
      if (island->waitingFor() < 0) {
        island->advance();
        progressed = true;
      } else if (std::optional<std::vector<opt::Individual>> inbound =
                     exchange->tryFetch(island->predecessor(),
                                        island->waitingFor())) {
        island->integrate(*inbound);
        progressed = true;
      }
    }
    if (!running) break;
    if (progressed) continue;
    for (const std::unique_ptr<Island>& island : islands) {
      if (island->done()) continue;
      island->integrate(exchange->fetch(island->predecessor(),
                                        island->waitingFor(),
                                        options.stopRequested));
      break;
    }
  }

  IslandRun run;
  std::vector<IslandOutcome> outcomes;
  for (const std::unique_ptr<Island>& island : islands)
    outcomes.push_back(std::move(island->outcome()));
  run.merged = mergeOutcomes(outcomes);
  run.cancelled =
      options.stopRequested != nullptr && options.stopRequested();
  for (const IslandOutcome& o : outcomes) {
    run.checkpoints += o.checkpoints;
    run.resumes += o.resumes;
    run.recordedEvaluations += o.recordedEvaluations;
  }
  if (!outcomes.empty()) run.journal = outcomes.front().journal;
  span.setAttr("evaluations", support::Json(run.merged.evaluations));
  span.setAttr("front_size", support::Json(run.merged.front.size()));
  return run;
}

} // namespace motune::tuning
