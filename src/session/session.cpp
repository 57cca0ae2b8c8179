#include "session/session.h"

#include "observe/metrics.h"
#include "support/check.h"
#include "support/number.h"

#include <filesystem>

namespace motune::session {

namespace {

constexpr int kFormatVersion = 1;
constexpr const char* kFormatName = "motune-session";

support::Json spaceToJson(const std::vector<tuning::ParamSpec>& space) {
  support::JsonArray out;
  for (const auto& p : space)
    out.emplace_back(support::JsonObject{
        {"name", p.name}, {"lo", p.lo}, {"hi", p.hi}});
  return out;
}

std::vector<tuning::ParamSpec> spaceFromJson(const support::Json& json) {
  std::vector<tuning::ParamSpec> out;
  for (const auto& j : json.asArray()) {
    tuning::ParamSpec p;
    p.name = j.at("name").asString();
    p.lo = j.at("lo").asInt();
    p.hi = j.at("hi").asInt();
    out.push_back(std::move(p));
  }
  return out;
}

} // namespace

support::Json headerToJson(const SessionHeader& header) {
  return support::JsonObject{
      {"type", "header"},
      {"format", kFormatName},
      {"version", header.version},
      {"problem", header.problem},
      {"algorithm", header.algorithm},
      {"seed", std::to_string(header.seed)}, // u64-safe: JSON numbers are doubles
      {"objectives", header.objectives},
      {"space", spaceToJson(header.space)},
      {"algorithm_options", header.algorithmOptions},
  };
}

SessionHeader headerFromJson(const support::Json& json) {
  MOTUNE_CHECK_MSG(json.has("format") &&
                       json.at("format").asString() == kFormatName,
                   "not a motune session journal header");
  SessionHeader h;
  h.version = static_cast<int>(json.at("version").asInt());
  h.problem = json.at("problem").asString();
  h.algorithm = json.at("algorithm").asString();
  const std::string& seed = json.at("seed").asString();
  const std::optional<std::uint64_t> parsed =
      support::parseNumber<std::uint64_t>(seed);
  MOTUNE_CHECK_MSG(parsed.has_value(),
                   "session header seed is not a decimal u64: '" + seed + "'");
  h.seed = *parsed;
  h.objectives = static_cast<std::size_t>(json.at("objectives").asInt());
  h.space = spaceFromJson(json.at("space"));
  h.algorithmOptions = json.at("algorithm_options");
  return h;
}

void checkCompatible(const SessionHeader& journal,
                     const SessionHeader& current) {
  MOTUNE_CHECK_MSG(journal.version == kFormatVersion,
                   "session journal format version " +
                       std::to_string(journal.version) +
                       " is not supported (expected " +
                       std::to_string(kFormatVersion) + ")");
  MOTUNE_CHECK_MSG(journal.problem == current.problem,
                   "session problem mismatch: journal tuned '" +
                       journal.problem + "', this run tunes '" +
                       current.problem + "'");
  MOTUNE_CHECK_MSG(journal.algorithm == current.algorithm,
                   "session algorithm mismatch: journal used " +
                       journal.algorithm + ", this run uses " +
                       current.algorithm);
  MOTUNE_CHECK_MSG(journal.seed == current.seed,
                   "session seed mismatch: journal used " +
                       std::to_string(journal.seed) + ", this run uses " +
                       std::to_string(current.seed));
  MOTUNE_CHECK_MSG(journal.objectives == current.objectives,
                   "session objective-count mismatch");
  MOTUNE_CHECK_MSG(spaceToJson(journal.space).dump(-1) ==
                       spaceToJson(current.space).dump(-1),
                   "session search-space mismatch (different parameter "
                   "names or ranges)");
  MOTUNE_CHECK_MSG(journal.algorithmOptions.dump(-1) ==
                       current.algorithmOptions.dump(-1),
                   "session algorithm-options mismatch (population, CR/F, "
                   "stop rule, ... must equal the original run's)");
}

bool warmStartCompatible(const SessionHeader& journal,
                         const SessionHeader& current) {
  return journal.version == kFormatVersion &&
         journal.problem == current.problem &&
         journal.objectives == current.objectives &&
         spaceToJson(journal.space).dump(-1) ==
             spaceToJson(current.space).dump(-1);
}

bool sessionExists(const std::string& directory) {
  return std::filesystem::exists(journalPath(directory));
}

ResumeState loadSession(const std::string& directory) {
  const std::string path = journalPath(directory);
  MOTUNE_CHECK_MSG(std::filesystem::exists(path),
                   "cannot open session journal: " + path);
  const std::vector<support::Json> records = readJournal(path);
  MOTUNE_CHECK_MSG(!records.empty(),
                   "empty session journal in " + directory);
  MOTUNE_CHECK_MSG(records.front().has("type") &&
                       records.front().at("type").asString() == "header",
                   "session journal does not start with a header record");

  ResumeState state;
  state.header = headerFromJson(records.front());
  for (std::size_t i = 1; i < records.size(); ++i) {
    const support::Json& r = records[i];
    const std::string& type = r.at("type").asString();
    if (type == "eval") {
      EvalRecord e;
      for (const auto& v : r.at("config").asArray())
        e.config.push_back(v.asInt());
      for (const auto& v : r.at("objectives").asArray())
        e.objectives.push_back(v.asNumber());
      MOTUNE_CHECK_MSG(e.objectives.size() == state.header.objectives,
                       "eval record objective-count mismatch");
      state.evaluations.push_back(std::move(e));
    } else if (type == "checkpoint") {
      state.checkpoint = r.at("state");
      state.checkpointGeneration = static_cast<int>(r.at("generation").asInt());
      ++state.checkpoints;
    } else if (type == "resume") {
      ++state.resumes;
    } else if (type == "finish") {
      state.finished = true;
    } else {
      MOTUNE_CHECK_MSG(type == "header",
                       "unknown session record type: " + type);
      MOTUNE_CHECK_MSG(false, "duplicate header record in session journal");
    }
  }
  return state;
}

SessionWriter::SessionWriter(const std::string& directory,
                             JournalWriter::Mode mode)
    : journal_(journalPath(directory), mode),
      evaluationsCounter_(observe::MetricsRegistry::global().counter(
          "session.evaluations.recorded")),
      checkpointsCounter_(
          observe::MetricsRegistry::global().counter("session.checkpoints")),
      checkpointGeneration_(observe::MetricsRegistry::global().gauge(
          "session.checkpoint.generation")) {}

SessionWriter::SessionWriter(const std::string& directory,
                             const SessionHeader& header)
    : SessionWriter(directory, JournalWriter::Mode::Truncate) {
  journal_.write(headerToJson(header));
}

SessionWriter::SessionWriter(const std::string& directory,
                             const ResumeState& resumed)
    : SessionWriter(directory, JournalWriter::Mode::Append) {
  journal_.write(support::JsonObject{
      {"type", "resume"},
      {"recorded_evaluations", resumed.evaluations.size()},
      {"from_generation", resumed.checkpointGeneration},
  });
  observe::MetricsRegistry::global().counter("session.resumes").add();
}

void SessionWriter::recordEvaluations(
    std::span<const tuning::CountingEvaluator::Entry* const> batch) {
  // The text Json::dump(-1) writes for the same record: keys in sorted
  // order, numbers through the same formatter.
  const std::lock_guard lock(mutex_);
  buffer_.clear();
  for (const tuning::CountingEvaluator::Entry* e : batch) {
    buffer_ += R"({"config":)";
    support::numbersTo(e->first, buffer_);
    buffer_ += R"(,"objectives":)";
    support::numbersTo(e->second, buffer_);
    buffer_ += ",\"type\":\"eval\"}\n";
  }
  journal_.writeLines(buffer_, batch.size());
  evaluations_.fetch_add(batch.size(), std::memory_order_relaxed);
  evaluationsCounter_.add(batch.size());
}

void SessionWriter::recordCheckpoint(
    int generation, std::uint64_t evaluations,
    const std::function<void(std::string&)>& encodeState) {
  // The text Json::dump(-1) writes for the record, the state encoded in
  // place.
  const std::lock_guard lock(mutex_);
  buffer_ = R"({"evaluations":)";
  support::numberTo(static_cast<double>(evaluations), buffer_);
  buffer_ += R"(,"generation":)";
  support::numberTo(generation, buffer_);
  buffer_ += R"(,"state":)";
  encodeState(buffer_);
  buffer_ += ",\"type\":\"checkpoint\"}\n";
  journal_.writeLines(buffer_, 1);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  checkpointsCounter_.add();
  checkpointGeneration_.set(static_cast<double>(generation));
}

void SessionWriter::recordFinish(std::uint64_t evaluations,
                                 std::size_t frontSize, double hypervolume) {
  journal_.write(support::JsonObject{
      {"type", "finish"},
      {"evaluations", evaluations},
      {"front_size", frontSize},
      {"hypervolume", hypervolume},
  });
}

JournaledSearch::JournaledSearch(opt::RSGDE3& engine, std::string directory,
                                 const SessionHeader& header, bool resume,
                                 int checkpointEvery, opt::RunHooks& hooks)
    : directory_(std::move(directory)), hooks_(hooks) {
  if (resume) {
    resumed_ = loadSession(directory_);
    checkCompatible(resumed_->header, header);
    // Replayed generations between the last checkpoint and the kill
    // re-request the same configurations deterministically and hit these
    // entries, keeping the evaluation count E exact.
    for (const EvalRecord& e : resumed_->evaluations)
      engine.engine().evaluator().preload(e.config, e.objectives);
    if (resumed_->checkpoint.has_value())
      hooks.resumeState = &*resumed_->checkpoint;
    if (resumed_->finished) return;
    writer_ = std::make_unique<SessionWriter>(directory_, *resumed_);
  } else {
    writer_ = std::make_unique<SessionWriter>(directory_, header);
  }
  engine.engine().evaluator().setListener(
      [this](std::span<const tuning::CountingEvaluator::Entry* const> batch) {
        writer_->recordEvaluations(batch);
      });
  hooks.checkpointEvery = checkpointEvery;
  hooks.checkpoint = [this](const opt::RSGDE3& search, int generation) {
    writer_->recordCheckpoint(
        generation, search.engine().evaluations(),
        [&](std::string& out) { search.encodeState(out, &memo_); });
  };
}

void JournaledSearch::finish(const opt::OptResult& result) {
  if (hooks_.shouldStop && hooks_.shouldStop()) return;
  writer_->recordFinish(result.evaluations, result.front.size(),
                        result.hvHistory.empty() ? 0.0
                                                 : result.hvHistory.back());
}

Provenance JournaledSearch::provenance() const {
  Provenance p;
  p.journal = journalPath(directory_);
  if (resumed_.has_value()) {
    p.checkpoints = resumed_->checkpoints;
    p.resumes = resumed_->resumes + (writer_ ? 1 : 0);
    p.recordedEvaluations = resumed_->evaluations.size();
  }
  if (writer_) {
    p.checkpoints += writer_->checkpointsWritten();
    p.recordedEvaluations += writer_->evaluationsRecorded();
  }
  return p;
}

} // namespace motune::session
