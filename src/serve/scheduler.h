// Multi-tenant job scheduler of the tuning daemon: a bounded priority
// queue in front of a fixed worker pool, with admission control and
// durable state (serve/store.h).
//
// Concurrency model: each worker thread runs one job at a time through its
// own AutoTuner, whose search engine owns the job's memoizing
// CountingEvaluator (see the ownership contract in tuning/evaluator.h); the
// job's thread pool serves only random search. Jobs never share mutable
// tuning state, and every job's artifact is bit-identical regardless of
// how many workers run or in which order jobs are dequeued (pinned by
// tests/serve_test.cpp). The only cross-job state is the process-wide
// MetricsRegistry, which feeds the daemon gauges (queue depth, active
// jobs, admission rejects, latency histograms) and never feeds back into a
// search.
//
// Admission control: the queue is bounded. A submit against a full queue
// is rejected immediately with a retry-after hint — backpressure at the
// edge instead of unbounded memory growth — and counted in
// serve.admission.rejects. An accepted job is persisted (job.json +
// `submitted` event) before submit() returns, so an acknowledged job
// survives a SIGKILL of the daemon from that instant on.
#pragma once

#include "serve/job.h"
#include "serve/store.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace motune::serve {

class StreamHub;

struct SchedulerOptions {
  unsigned workers = 2;          ///< concurrent tuning jobs
  std::size_t queueCapacity = 64; ///< queued (not running) jobs admitted
  unsigned jobThreads = 1;       ///< evaluation workers per random-search job
  int checkpointEvery = 1;       ///< generations between job checkpoints
  double retryAfterSeconds = 0.5; ///< backpressure hint on rejects
};

/// Outcome of a submit: accepted with an id, or rejected with the reason
/// and a retry-after hint (admission control) .
struct Admission {
  bool accepted = false;
  std::string id;
  std::string error;
  double retryAfterSeconds = 0.0;
  /// The spec matched an already-finished job byte for byte: `id` is that
  /// job's id and its artifact is immediately fetchable — nothing was
  /// scheduled (the serve result cache; opt out per submit with no_cache).
  bool cached = false;
};

/// Outcome of a cancel. Queued jobs cancel immediately; running
/// GDE3-family jobs stop cooperatively after the current generation (state
/// becomes `cancelling` on the wire until the worker confirms).
struct CancelOutcome {
  bool ok = false;
  std::string detail; ///< "cancelled" | "cancelling" | error text
};

class JobScheduler {
public:
  /// `hub` (optional) receives live frames — job state transitions,
  /// per-generation progress, trace records — for the daemon's subscribe
  /// verb. The scheduler never blocks on it (serve/stream.h).
  JobScheduler(JobStore& store, SchedulerOptions options,
               StreamHub* hub = nullptr);
  ~JobScheduler(); ///< stop()s if still running

  /// Recovers durable jobs from the store (done/failed/cancelled jobs
  /// surface in list(); interrupted ones re-enter the queue — ahead of
  /// anything submitted later, at their recorded priority) and spawns the
  /// workers. The recovery queue ignores the capacity bound: those jobs
  /// were already admitted once.
  void start();

  /// Graceful stop: workers finish their current job, the queue stays
  /// durable on disk for the next start. Idempotent.
  void stop();

  /// `noCache` bypasses the exact-spec result cache (for cacheable specs
  /// — see cacheableSpec() — the deterministic searches make a finished
  /// job's artifact the correct answer for any byte-identical
  /// resubmission; load harnesses that need N real runs of one spec opt
  /// out).
  Admission submit(const JobSpec& spec, int priority, bool noCache = false);
  CancelOutcome cancel(const std::string& id);
  std::optional<JobInfo> status(const std::string& id) const;
  std::vector<JobInfo> list() const;

  /// Daemon-level snapshot for the `stats` verb: queue/capacity/active,
  /// lifetime counters, and p50/p99 of the job latency histograms.
  support::Json stats() const;

  /// Blocks until the queue is empty and no job is running (load tests,
  /// benches). Returns false on timeout; <= 0 waits forever.
  bool drain(double timeoutSeconds = 0.0);

  std::size_t queueDepth() const;
  unsigned activeJobs() const;

private:
  struct Job {
    std::string id;
    JobSpec spec;
    int priority = 0;
    JobState state = JobState::Queued;
    double submittedUnix = 0.0;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point started;
    double queueSeconds = 0.0;
    double runSeconds = 0.0;
    int resumes = 0;
    std::uint64_t evaluations = 0;
    double hypervolume = 0.0;
    std::size_t frontSize = 0;
    std::string error;
    std::string artifactPath;
    bool hasSession = false; ///< resume from the journal on first run
    std::atomic<bool> stopRequested{false};
    std::shared_ptr<JobLog> log;
  };

  void workerLoop();
  void runJob(const std::shared_ptr<Job>& job);
  void enqueueLocked(const std::shared_ptr<Job>& job, bool recovered);
  /// The warm-start corpus for a surrogate job: the pinned on-disk list
  /// when one exists, else the session journals of finished compatible
  /// jobs (pinned to disk before returning, so every resume sees the same
  /// list).
  std::vector<std::string> warmStartDirsFor(const Job& job);
  JobInfo infoOf(const Job& job) const; ///< caller holds mutex_
  /// Publishes a `{"stream":"control","event":"state",...}` frame (no-op
  /// without a hub or subscribers).
  void publishState(const std::string& id, JobState state);

  JobStore& store_;
  SchedulerOptions options_;
  StreamHub* hub_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable wakeWorkers_;
  std::condition_variable idle_;
  /// Dequeue order: highest priority first (key stores -priority), FIFO
  /// within a priority level. Recovered jobs are enqueued during start(),
  /// before any new submission can race in, so they keep their on-disk id
  /// order and run ahead of new jobs of equal priority.
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<Job>> queue_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  /// Exact-spec result cache: specHash -> id of the first job that
  /// finished that spec. Holds cacheable specs only (cacheableSpec():
  /// warm-started surrogate jobs are excluded — their artifacts are not
  /// pure functions of the spec). Rebuilt from recovered Done jobs on
  /// start() (the job directories are the only record of it), extended
  /// as jobs finish.
  std::map<std::string, std::string> specIndex_;
  std::uint64_t seq_ = 0;
  unsigned active_ = 0;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;
};

} // namespace motune::serve
