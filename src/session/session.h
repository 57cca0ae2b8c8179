// Durable tuning sessions: crash-safe persistence of a running RS-GDE3
// search, so a killed tuning run (`motune tune --checkpoint DIR`) resumes
// (`--resume DIR`) bit-identically — same Pareto front, same evaluation
// count — as if it had never been interrupted.
//
// One session = one directory holding an append-only JSONL journal
// (journal.h) that records, in order:
//   * a `header` record binding the journal to one exact search (problem
//     tag, algorithm, seed, search space, algorithm options) — resume
//     refuses a journal whose header does not match the current run;
//   * an `eval` record per *unique* evaluation (config, objectives),
//     written one batch per write — on resume these pre-seed the
//     CountingEvaluator memo, so replayed generations re-use recorded
//     results instead of re-evaluating;
//   * a `checkpoint` record every N generations carrying the RS-GDE3
//     engine state (population, Pareto front, boundary, RNG position and
//     any surrogate's state), encoded by the engine straight into the
//     record's line; its size does not grow with the number of
//     evaluations, and resume refuses other state versions;
//   * a `resume` marker per resumption (provenance);
//   * a `finish` record when the search completes.
//
// Resume = last complete checkpoint + memo pre-seed of every recorded
// evaluation. Because the search is deterministic, generations between the
// checkpoint and the kill replay exactly, hitting the pre-seeded memo, so
// the evaluation count E and the final front match the uninterrupted run
// bit for bit (pinned by tests/session_test.cpp and the kill-resume CI
// job). The full record format is specified field by field in
// docs/architecture.md. JournaledSearch (below) drives that lifecycle for
// one search: the single search and every island run through it.
#pragma once

#include "core/rsgde3.h"
#include "observe/metrics.h"
#include "session/journal.h"
#include "tuning/evaluator.h"
#include "tuning/search_space.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

namespace motune::session {

/// How a tuning run uses sessions; carried inside autotune::TunerOptions.
struct SessionOptions {
  std::string directory;   ///< empty = sessions disabled
  int checkpointEvery = 1; ///< generations between checkpoint records
  bool resume = false;     ///< continue the journal in `directory`
};

/// Identity of a search — everything that must match for a journal to be
/// replayable by the current invocation.
struct SessionHeader {
  int version = 1;         ///< journal format version
  std::string problem;     ///< free-form tag (kernel, machine, N, objectives)
  std::string algorithm;   ///< "rsgde3" | "gde3"
  std::uint64_t seed = 0;
  std::size_t objectives = 0;
  std::vector<tuning::ParamSpec> space;
  support::Json algorithmOptions; ///< opaque blob, compared verbatim
};

support::Json headerToJson(const SessionHeader& header);
SessionHeader headerFromJson(const support::Json& json);

/// MOTUNE_CHECK-fails with a field-level message when the journal header
/// and the current run describe different searches.
void checkCompatible(const SessionHeader& journal,
                     const SessionHeader& current);

/// Relaxed fingerprint match for surrogate warm-starting: the journal's
/// eval records are usable as training data for `current` when the problem
/// tag, objective count and search space agree. Seed, algorithm and
/// algorithm options may differ — a different search over the same problem
/// still measured the same cost surface.
bool warmStartCompatible(const SessionHeader& journal,
                         const SessionHeader& current);

/// One recorded unique evaluation.
struct EvalRecord {
  tuning::Config config;
  tuning::Objectives objectives;
};

/// Everything a resume needs, reconstructed from a journal.
struct ResumeState {
  SessionHeader header;
  std::vector<EvalRecord> evaluations; ///< all recorded unique evaluations
  std::optional<support::Json> checkpoint; ///< last complete engine state
  int checkpointGeneration = 0;
  std::uint64_t checkpoints = 0; ///< checkpoint records seen
  int resumes = 0;               ///< prior resume markers
  bool finished = false;         ///< a finish record is present
};

bool sessionExists(const std::string& directory);

/// Parses `directory`/session.jsonl (support::readJsonl's rules). Throws
/// support::CheckError on a missing or corrupt journal.
ResumeState loadSession(const std::string& directory);

/// Record-level writer for one tuning run. Every call's records reach the
/// file in one write before it returns, so the journal lags the
/// search by at most the evaluation batch in flight. Emits session.*
/// metrics.
///
/// Thread-safe: `eval` and `checkpoint` records are encoded into one line
/// buffer the writer keeps and reuses, so a run's steady state formats
/// its records without allocating; calls therefore take the writer's lock
/// for their encode and write, and run one at a time.
class SessionWriter {
public:
  /// Fresh session: creates the directory, writes the header record.
  /// Refuses to overwrite an existing journal.
  SessionWriter(const std::string& directory, const SessionHeader& header);

  /// Resumed session: validates nothing (the caller already did via
  /// checkCompatible), appends a resume marker to the existing journal.
  SessionWriter(const std::string& directory, const ResumeState& resumed);

  /// One `eval` record per unique evaluation of a batch, in order
  /// (CountingEvaluator listener target).
  void recordEvaluations(
      std::span<const tuning::CountingEvaluator::Entry* const> batch);

  /// Engine-state checkpoint. `encodeState` appends the state's JSON text
  /// (RSGDE3::encodeState), which becomes the record's `state` field as it
  /// stands: the record is encoded into the line buffer, no tree is built.
  /// `encodeState` runs under the writer's lock and must not call back
  /// into the writer.
  void recordCheckpoint(int generation, std::uint64_t evaluations,
                        const std::function<void(std::string&)>& encodeState);

  /// Clean-completion marker.
  void recordFinish(std::uint64_t evaluations, std::size_t frontSize,
                    double hypervolume);

  std::uint64_t evaluationsRecorded() const { return evaluations_; }
  std::uint64_t checkpointsWritten() const { return checkpoints_; }

private:
  SessionWriter(const std::string& directory, JournalWriter::Mode mode);

  JournalWriter journal_;
  std::mutex mutex_;   ///< guards buffer_
  std::string buffer_; ///< the record lines being encoded (reused)
  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  // session.* instruments, resolved once (the registry never drops one).
  observe::Counter& evaluationsCounter_;
  observe::Counter& checkpointsCounter_;
  observe::Gauge& checkpointGeneration_;
};

/// Where a tuning result came from when it ran under a session, recorded
/// in the artifact so a deployment can trace a front back to its journal.
/// An island run sums its islands' counts and names the first island's
/// journal.
struct Provenance {
  std::string journal;                   ///< path of the session journal
  std::uint64_t checkpoints = 0;         ///< checkpoint records, all runs
  int resumes = 0;                       ///< times the session was resumed
  std::uint64_t recordedEvaluations = 0; ///< journaled unique evaluations
};

/// The session lifecycle of one RS-GDE3 search, in the order
/// docs/architecture.md ("Resume semantics") specifies. The constructor
/// starts a fresh journal in `directory`, or resumes the one there: it
/// checks the header, preloads `engine`'s memo with every recorded
/// evaluation and, unless the journal holds `finish`, appends `resume`.
/// It journals every evaluation batch and sets `hooks`' checkpoint hook
/// and interval and, from the last checkpoint, its resumeState; the caller
/// then runs `engine` with `hooks` and calls finish(). `engine` and
/// `hooks` must outlive this object, which stays where it was built.
class JournaledSearch {
public:
  JournaledSearch(opt::RSGDE3& engine, std::string directory,
                  const SessionHeader& header, bool resume,
                  int checkpointEvery, opt::RunHooks& hooks);
  JournaledSearch(const JournaledSearch&) = delete;
  JournaledSearch& operator=(const JournaledSearch&) = delete;

  /// The resumed journal already holds `finish`: nothing was appended,
  /// nothing will be, and hooks.resumeState holds the final checkpoint.
  /// The caller refuses the resume or rebuilds the result from it.
  bool finished() const { return writer_ == nullptr; }

  /// Writes `finish` unless hooks.shouldStop reports the run cancelled: a
  /// cancelled journal stays resumable.
  void finish(const opt::OptResult& result);

  Provenance provenance() const;

private:
  std::string directory_;
  const opt::RunHooks& hooks_;
  std::optional<ResumeState> resumed_;
  std::unique_ptr<SessionWriter> writer_;
  opt::EncodeMemo memo_; ///< consecutive checkpoints share most of their text
};

} // namespace motune::session
