// Durable job store of the tuning daemon: one directory per job under
// STATE/jobs/, holding everything needed to resume, replay, or audit it.
// docs/serve.md ("State directory") lists the layout. Every file in it is
// either replaced atomically or appended as JSONL (support/files.h).
//
// The on-disk state is the source of truth across restarts. recover()
// reconstructs the scheduler's world from it: jobs with an artifact are
// done, marked jobs are cancelled/failed, everything else — including jobs
// that were mid-run when the daemon died — re-enters the queue, resuming
// from the session journal when one exists. Because searches are
// deterministic in their seed, a re-run job (no journal, or a journal too
// damaged to load) still produces the bit-identical artifact; the journal
// only saves the already-spent evaluations.
#pragma once

#include "serve/job.h"
#include "support/json.h"

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace motune::serve {

/// Append-only per-job event stream (events.jsonl): one JSONL record per
/// lifecycle transition, each carrying a wall-clock stamp and, for the
/// terminal records, the job's result metrics. This is the per-job
/// observability sink — the daemon-level metrics aggregate across jobs,
/// this file is the one place a single job's history lives.
class JobLog {
public:
  explicit JobLog(const std::string& path);
  void record(const std::string& event, support::JsonObject fields = {});

private:
  std::string path_;
  std::mutex mutex_;
};

/// One job recovered from disk (recover() output).
struct RecoveredJob {
  std::string id;
  JobSpec spec;
  int priority = 0;
  double submittedUnix = 0.0;
  JobState state = JobState::Queued; ///< Queued, Done, Failed or Cancelled
  bool hasSession = false;           ///< a session journal exists
  std::string error;                 ///< Failed only
  JobInfo doneInfo;                  ///< Done only: metrics from events.jsonl
};

class JobStore {
public:
  explicit JobStore(std::string stateDir); ///< creates STATE/jobs/

  const std::string& stateDir() const { return stateDir_; }
  std::string jobDir(const std::string& id) const;
  std::string artifactPath(const std::string& id) const;
  std::string sessionDir(const std::string& id) const;
  std::string eventsPath(const std::string& id) const;
  std::string tracePath(const std::string& id) const;

  /// Number of runs already recorded in the job's trace.jsonl (one
  /// `trace.header` line per run). A restarted daemon appends run 1, 2, ...
  /// to the same file; the count keys the resumed run's span-id range so
  /// ids stay unique across the whole trace.
  int traceRunCount(const std::string& id) const;

  /// Allocates the next job id ("j%06d", continuing past any ids already
  /// on disk) and persists {id, spec, priority}: the directory, job.json
  /// (write-temp + rename, so a crash never leaves a half-written spec)
  /// and the `submitted` event. Returns the id.
  std::string persistNewJob(const JobSpec& spec, int priority,
                            double submittedUnix);

  /// Opens (creates) the job's event log.
  std::shared_ptr<JobLog> log(const std::string& id);

  /// Terminal markers. The artifact, written by the worker, is the done
  /// marker; all three are atomic replaces.
  void markCancelled(const std::string& id);
  void markFailed(const std::string& id, const std::string& error);

  /// The surrogate warm-start corpus pinned to a job: written once before
  /// the job's first run, read back verbatim on every resume (the journal
  /// list is part of the search identity once culling is on).
  void writeWarmStart(const std::string& id,
                      const std::vector<std::string>& dirs);
  /// Returns the pinned list, or nullopt when the job has none on disk.
  std::optional<std::vector<std::string>>
  readWarmStart(const std::string& id) const;

  /// Scans STATE/jobs/ and classifies every job directory; also reseeds
  /// the id allocator past the highest recovered id. Jobs whose session
  /// journal exists but is unloadable (killed before the header flushed,
  /// or already carrying a finish record without an artifact) get the
  /// journal removed here so the re-run starts a fresh one.
  std::vector<RecoveredJob> recover();

  /// Writes STATE/daemon.json (pid/port provenance for scripts).
  void writeDaemonInfo(int port, unsigned workers);

private:
  std::string stateDir_;
  std::mutex mutex_;
  std::uint64_t nextId_ = 1;
};

} // namespace motune::serve
