#include "serve/scheduler.h"

#include "autotune/artifact.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "serve/stream.h"
#include "support/check.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <thread>

namespace motune::serve {

namespace {

double nowUnix() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double secondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

observe::MetricsRegistry& metrics() {
  return observe::MetricsRegistry::global();
}

} // namespace

JobScheduler::JobScheduler(JobStore& store, SchedulerOptions options,
                           StreamHub* hub)
    : store_(store), options_(options), hub_(hub) {
  if (options_.workers == 0) options_.workers = 1;
}

void JobScheduler::publishState(const std::string& id, JobState state) {
  if (hub_ == nullptr || !hub_->anySubscribers()) return;
  hub_->publishControl(
      id, support::Json(support::JsonObject{
              {"stream", support::Json("control")},
              {"event", support::Json("state")},
              {"job", support::Json(id)},
              {"state", support::Json(jobStateName(state))}}));
}

JobScheduler::~JobScheduler() { stop(); }

void JobScheduler::start() {
  std::vector<RecoveredJob> recovered = store_.recover();
  {
    std::lock_guard lock(mutex_);
    MOTUNE_CHECK_MSG(!started_, "scheduler already started");
    started_ = true;
    stopping_ = false;
    for (RecoveredJob& rec : recovered) {
      auto job = std::make_shared<Job>();
      job->id = rec.id;
      job->spec = rec.spec;
      job->priority = rec.priority;
      job->state = rec.state;
      job->submittedUnix = rec.submittedUnix;
      job->enqueued = std::chrono::steady_clock::now();
      job->error = rec.error;
      job->hasSession = rec.hasSession;
      job->log = store_.log(rec.id);
      if (rec.state == JobState::Done) {
        job->evaluations = rec.doneInfo.evaluations;
        job->hypervolume = rec.doneInfo.hypervolume;
        job->frontSize = rec.doneInfo.frontSize;
        job->resumes = rec.doneInfo.resumes;
        job->artifactPath = rec.doneInfo.artifactPath;
      }
      jobs_.emplace(job->id, job);
      if (rec.state == JobState::Queued) enqueueLocked(job, /*recovered=*/true);
      // Result cache: recovered in id order, so emplace keeps the earliest
      // finished job for each distinct spec across restarts too.
      // Warm-started specs are never cacheable (see submit()).
      if (rec.state == JobState::Done && cacheableSpec(rec.spec))
        specIndex_.emplace(specHash(rec.spec), job->id);
    }
    metrics().gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  }
  // Touch the whole cache counter family up front so every scrape exposes
  // all three members — a member absent until its first event reads as an
  // incomplete family on dashboards.
  metrics().counter("serve.cache.lookups");
  metrics().counter("serve.cache.hits");
  metrics().counter("serve.cache.misses");
  for (unsigned i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

void JobScheduler::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  wakeWorkers_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
  std::lock_guard lock(mutex_);
  started_ = false;
}

void JobScheduler::enqueueLocked(const std::shared_ptr<Job>& job,
                                 bool recovered) {
  queue_.emplace(std::make_pair(-job->priority, seq_++), job);
  if (recovered) job->log->record("requeued", {{"priority", job->priority}});
}

Admission JobScheduler::submit(const JobSpec& spec, int priority,
                               bool noCache) {
  Admission admission;
  try {
    validateSpec(spec);
  } catch (const support::CheckError& e) {
    admission.error = e.what();
    metrics().counter("serve.admission.invalid").add();
    return admission;
  }

  // Admission control: persistNewJob touches the disk, so check capacity
  // first and do the I/O outside the lock only after reserving a slot is
  // impossible to get wrong — here the simple order is check + persist +
  // enqueue all under the lock; job submission is not the hot path.
  std::unique_lock lock(mutex_);
  if (stopping_ || !started_) {
    admission.error = "daemon is shutting down";
    return admission;
  }

  // Exact-spec result cache: a byte-identical spec that already finished
  // gets the finished job's id back — before the capacity check, since
  // nothing is scheduled. Only warm-start-free specs (surrogate_keep ==
  // 1) are eligible: below 1 the artifact also depends on the corpus of
  // compatible jobs that had finished when the job first ran
  // (warmStartDirsFor), so an identical spec submitted later can
  // legitimately produce a different artifact. Ineligible submits skip
  // the lookup entirely (no serve.cache.* counter moves). The artifact
  // existence check guards against an operator deleting a job directory
  // behind the index.
  if (!noCache && cacheableSpec(spec)) {
    metrics().counter("serve.cache.lookups").add();
    const auto hit = specIndex_.find(specHash(spec));
    std::shared_ptr<Job> cachedJob;
    if (hit != specIndex_.end()) {
      const auto it = jobs_.find(hit->second);
      // The 64-bit hash alone is not proof of identity: verify the
      // indexed job's canonical spec JSON matches before serving it, so
      // a hash collision demotes to a miss instead of returning another
      // spec's artifact.
      if (it != jobs_.end() && it->second->state == JobState::Done &&
          specToJson(it->second->spec).dump(-1) ==
              specToJson(spec).dump(-1) &&
          std::filesystem::exists(store_.artifactPath(hit->second)))
        cachedJob = it->second;
    }
    if (cachedJob) {
      metrics().counter("serve.cache.hits").add();
      admission.accepted = true;
      admission.cached = true;
      admission.id = cachedJob->id;
      lock.unlock();
      cachedJob->log->record("cache_hit", {{"priority", priority}});
      return admission;
    }
    metrics().counter("serve.cache.misses").add();
  }

  if (queue_.size() >= options_.queueCapacity) {
    admission.error = "queue full";
    admission.retryAfterSeconds = options_.retryAfterSeconds;
    metrics().counter("serve.admission.rejects").add();
    return admission;
  }

  const double submitted = nowUnix();
  const std::string id = store_.persistNewJob(spec, priority, submitted);
  auto job = std::make_shared<Job>();
  job->id = id;
  job->spec = spec;
  job->priority = priority;
  job->submittedUnix = submitted;
  job->enqueued = std::chrono::steady_clock::now();
  job->log = store_.log(id);
  job->log->record("submitted", {{"priority", priority},
                                 {"spec", specToJson(spec)}});
  jobs_.emplace(id, job);
  enqueueLocked(job, /*recovered=*/false);
  metrics().counter("serve.submits").add();
  metrics().gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  lock.unlock();
  wakeWorkers_.notify_one();

  admission.accepted = true;
  admission.id = id;
  return admission;
}

CancelOutcome JobScheduler::cancel(const std::string& id) {
  CancelOutcome outcome;
  std::shared_ptr<Job> toMark; // markCancelled outside the lock
  {
    std::lock_guard lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      outcome.detail = "unknown job: " + id;
      return outcome;
    }
    Job& job = *it->second;
    switch (job.state) {
    case JobState::Queued: {
      for (auto qit = queue_.begin(); qit != queue_.end(); ++qit)
        if (qit->second->id == id) {
          queue_.erase(qit);
          break;
        }
      job.state = JobState::Cancelled;
      job.queueSeconds = secondsSince(job.enqueued);
      toMark = it->second;
      outcome.ok = true;
      outcome.detail = "cancelled";
      metrics().counter("serve.jobs.cancelled").add();
      metrics().gauge("serve.queue_depth")
          .set(static_cast<double>(queue_.size()));
      break;
    }
    case JobState::Running:
      // Cooperative: the worker observes the flag between generations,
      // discards the partial result and confirms the cancellation.
      job.stopRequested.store(true);
      outcome.ok = true;
      outcome.detail = "cancelling";
      break;
    case JobState::Done:
    case JobState::Failed:
    case JobState::Cancelled:
      outcome.detail = std::string("job already ") + jobStateName(job.state);
      break;
    }
  }
  if (toMark) {
    store_.markCancelled(id);
    toMark->log->record("cancelled", {{"while", "queued"}});
    if (hub_ != nullptr)
      hub_->publishEnd(
          id, support::Json(support::JsonObject{
                  {"stream", support::Json("control")},
                  {"event", support::Json("state")},
                  {"job", support::Json(id)},
                  {"state", support::Json(jobStateName(JobState::Cancelled))}}));
  }
  return outcome;
}

JobInfo JobScheduler::infoOf(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.priority = job.priority;
  info.spec = job.spec;
  info.submittedUnix = job.submittedUnix;
  info.queueSeconds = job.state == JobState::Queued
                          ? secondsSince(job.enqueued)
                          : job.queueSeconds;
  info.runSeconds = job.state == JobState::Running ? secondsSince(job.started)
                                                   : job.runSeconds;
  info.resumes = job.resumes;
  info.evaluations = job.evaluations;
  info.hypervolume = job.hypervolume;
  info.frontSize = job.frontSize;
  info.error = job.error;
  info.artifactPath = job.artifactPath;
  return info;
}

std::optional<JobInfo> JobScheduler::status(const std::string& id) const {
  std::lock_guard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return infoOf(*it->second);
}

std::vector<JobInfo> JobScheduler::list() const {
  std::lock_guard lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(infoOf(*job));
  return out;
}

support::Json JobScheduler::stats() const {
  std::size_t depth;
  unsigned active;
  {
    std::lock_guard lock(mutex_);
    depth = queue_.size();
    active = active_;
  }
  auto& reg = metrics();
  const auto wait = reg.histogram("serve.job.queue_seconds").snapshot();
  const auto run = reg.histogram("serve.job.run_seconds").snapshot();
  const auto total = reg.histogram("serve.job.total_seconds").snapshot();
  auto summary = [](const observe::Histogram::Snapshot& s) -> support::Json {
    return support::JsonObject{{"count", std::to_string(s.count)},
                               {"mean", s.mean()},
                               {"p50", s.p50()},
                               {"p99", s.p99()}};
  };
  return support::JsonObject{
      {"queue_depth", static_cast<std::int64_t>(depth)},
      {"queue_capacity", static_cast<std::int64_t>(options_.queueCapacity)},
      {"active_jobs", static_cast<std::int64_t>(active)},
      {"workers", static_cast<std::int64_t>(options_.workers)},
      {"submits",
       std::to_string(reg.counter("serve.submits").value())},
      {"admission_rejects",
       std::to_string(reg.counter("serve.admission.rejects").value())},
      {"completed", std::to_string(reg.counter("serve.jobs.done").value())},
      {"failed", std::to_string(reg.counter("serve.jobs.failed").value())},
      {"cancelled",
       std::to_string(reg.counter("serve.jobs.cancelled").value())},
      {"resumed", std::to_string(reg.counter("serve.jobs.resumed").value())},
      {"cache_lookups",
       std::to_string(reg.counter("serve.cache.lookups").value())},
      {"cache_hits",
       std::to_string(reg.counter("serve.cache.hits").value())},
      {"cache_misses",
       std::to_string(reg.counter("serve.cache.misses").value())},
      {"queue_seconds", summary(wait)},
      {"run_seconds", summary(run)},
      {"total_seconds", summary(total)},
  };
}

bool JobScheduler::drain(double timeoutSeconds) {
  std::unique_lock lock(mutex_);
  auto done = [this] { return queue_.empty() && active_ == 0; };
  if (timeoutSeconds <= 0.0) {
    idle_.wait(lock, done);
    return true;
  }
  return idle_.wait_for(lock, std::chrono::duration<double>(timeoutSeconds),
                        done);
}

std::size_t JobScheduler::queueDepth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

unsigned JobScheduler::activeJobs() const {
  std::lock_guard lock(mutex_);
  return active_;
}

void JobScheduler::workerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      wakeWorkers_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = queue_.begin()->second;
      queue_.erase(queue_.begin());
      job->state = JobState::Running;
      job->started = std::chrono::steady_clock::now();
      job->queueSeconds = secondsSince(job->enqueued);
      ++active_;
      metrics().gauge("serve.queue_depth")
          .set(static_cast<double>(queue_.size()));
      metrics().gauge("serve.active_jobs").set(static_cast<double>(active_));
    }
    // Yield once before the job takes the CPU. submit() woke this worker
    // while its connection thread still had the ack to deliver, and the
    // woken worker tends to run on that thread's CPU: a job started right
    // away holds the CPU for a scheduler tick (4 ms at HZ=250) before the
    // ack's delivery finishes there. The yield lets it finish first
    // (docs/serve.md, "Submit path").
    std::this_thread::yield();
    publishState(job->id, JobState::Running);
    runJob(job);
    {
      std::lock_guard lock(mutex_);
      --active_;
      metrics().gauge("serve.active_jobs").set(static_cast<double>(active_));
    }
    idle_.notify_all();
  }
}

std::vector<std::string> JobScheduler::warmStartDirsFor(const Job& job) {
  if (std::optional<std::vector<std::string>> pinned =
          store_.readWarmStart(job.id))
    return *pinned;
  // First run: the corpus is the session journals of finished jobs over
  // the same problem (kernel/machine/n/objectives; seed and algorithm may
  // differ — session::warmStartCompatible re-checks per journal). Pinned
  // to disk before the search starts: the list is part of the search
  // identity once culling is on, and a later resume must not see a corpus
  // grown by jobs that finished in between.
  std::vector<std::string> dirs;
  const std::string objectives =
      specToJson(job.spec).at("objectives").dump(-1);
  {
    std::lock_guard lock(mutex_);
    for (const auto& [id, other] : jobs_) { // id order: deterministic
      if (id == job.id || other->state != JobState::Done) continue;
      const JobSpec& s = other->spec;
      if (s.kernel != job.spec.kernel || s.machine != job.spec.machine ||
          s.n != job.spec.n ||
          specToJson(s).at("objectives").dump(-1) != objectives)
        continue;
      if (!session::sessionExists(store_.sessionDir(id))) continue;
      dirs.push_back(store_.sessionDir(id));
      if (dirs.size() >= 8) break; // bounded preload cost
    }
  }
  store_.writeWarmStart(job.id, dirs);
  return dirs;
}

void JobScheduler::runJob(const std::shared_ptr<Job>& job) {
  job->log->record("started", {{"resume", job->hasSession},
                               {"queue_seconds", job->queueSeconds}});
  if (job->hasSession) metrics().counter("serve.jobs.resumed").add();

  // Per-job tracer: every span/event this job's search emits — from any
  // thread of its private evaluation pool — lands in the job's own
  // trace.jsonl, stamped with the job id and run sequence. A restarted
  // daemon appends run 1, 2, ... to the same file, and the span-id base
  // (job number in the high bits, run sequence below) keeps ids globally
  // unique across concurrent jobs and across resumes of one job.
  const int runSeq = store_.traceRunCount(job->id);
  std::uint64_t jobNum = 0;
  try {
    jobNum = std::stoull(job->id.substr(1));
  } catch (const std::exception&) {
    jobNum = 0;
  }
  observe::Tracer jobTracer;
  jobTracer.seedIds((jobNum << 32) |
                    (static_cast<std::uint64_t>(runSeq & 0xff) << 24) | 1);
  jobTracer.setStamp({{"job", support::Json(job->id)},
                      {"run", support::Json(runSeq)}});
  jobTracer.addSink(std::make_shared<observe::JsonLinesSink>(
      store_.tracePath(job->id), observe::JsonLinesSink::Mode::Append));
  if (hub_ != nullptr)
    jobTracer.addSink(std::make_shared<StreamSink>(*hub_, job->id));
  jobTracer.event("serve.job.start",
                  {{"resume", support::Json(job->hasSession)},
                   {"queue_seconds", support::Json(job->queueSeconds)},
                   {"kernel", support::Json(job->spec.kernel)},
                   {"algorithm", support::Json(job->spec.algorithm)}});

  JobState finalState;
  std::string error;
  autotune::TuningResult result;
  try {
    // The override covers the tuner's whole lifetime; its evaluation pool
    // threads inherit it through ThreadPool::submit. The tuner (and its
    // pool) is destroyed before jobTracer goes out of scope below.
    observe::ScopedTracer traceScope(&jobTracer);
    tuning::KernelTuningProblem problem = problemFromSpec(job->spec);
    std::vector<std::string> warmDirs;
    if (job->spec.surrogateKeep < 1.0) warmDirs = warmStartDirsFor(*job);
    autotune::TunerOptions options = tunerOptionsFromSpec(
        job->spec, store_.sessionDir(job->id), options_.jobThreads,
        options_.checkpointEvery, warmDirs);
    options.stopRequested = [job] { return job->stopRequested.load(); };
    options.onProgress = [this, job](const opt::GenerationProgress& p) {
      {
        std::lock_guard lock(mutex_);
        job->evaluations = p.evaluations;
        job->hypervolume = p.hypervolume;
        job->frontSize = p.frontSize;
      }
      if (hub_ != nullptr && hub_->anySubscribers())
        hub_->publishBestEffort(
            job->id,
            support::Json(support::JsonObject{
                {"stream", support::Json("progress")},
                {"job", support::Json(job->id)},
                {"generation", support::Json(p.generation)},
                {"hypervolume", support::Json(p.hypervolume)},
                {"gen_hypervolume", support::Json(p.genHypervolume)},
                {"front_size",
                 support::Json(static_cast<std::uint64_t>(p.frontSize))},
                {"evaluations",
                 support::Json(std::to_string(p.evaluations))}}));
    };
    autotune::AutoTuner tuner(std::move(options));
    result = tuner.tune(problem);
    if (job->stopRequested.load()) {
      finalState = JobState::Cancelled;
    } else {
      autotune::TunedArtifact artifact = autotune::makeArtifact(result, problem);
      autotune::saveArtifact(artifact, store_.artifactPath(job->id));
      finalState = JobState::Done;
    }
  } catch (const std::exception& e) {
    finalState = JobState::Failed;
    error = e.what();
  }

  const double runSeconds = secondsSince(job->started);
  {
    std::lock_guard lock(mutex_);
    job->state = finalState;
    job->runSeconds = runSeconds;
    job->error = error;
    if (finalState == JobState::Done) {
      job->evaluations = result.evaluations;
      job->hypervolume = result.hypervolume;
      job->frontSize = result.front.size();
      job->resumes = result.session ? result.session->resumes : 0;
      job->artifactPath = store_.artifactPath(job->id);
      // Warm-started jobs (surrogate_keep < 1) are not cacheable: their
      // artifact depends on the store's contents at first run, not just
      // the spec — never index them. Keep-first: a later no-cache run of
      // the same spec leaves the entry as it is.
      if (cacheableSpec(job->spec))
        specIndex_.emplace(specHash(job->spec), job->id);
    }
  }

  auto& reg = metrics();
  switch (finalState) {
  case JobState::Done:
    job->log->record("finished",
                     {{"run_seconds", runSeconds},
                      {"evaluations", std::to_string(result.evaluations)},
                      {"hypervolume", result.hypervolume},
                      {"front_size",
                       static_cast<std::int64_t>(result.front.size())},
                      {"resumes", result.session ? result.session->resumes : 0}});
    reg.counter("serve.jobs.done").add();
    break;
  case JobState::Cancelled:
    store_.markCancelled(job->id);
    job->log->record("cancelled",
                     {{"while", "running"}, {"run_seconds", runSeconds}});
    reg.counter("serve.jobs.cancelled").add();
    break;
  case JobState::Failed:
  default:
    store_.markFailed(job->id, error);
    job->log->record("failed",
                     {{"error", error}, {"run_seconds", runSeconds}});
    reg.counter("serve.jobs.failed").add();
    break;
  }
  reg.histogram("serve.job.queue_seconds").observe(job->queueSeconds);
  reg.histogram("serve.job.run_seconds").observe(runSeconds);
  reg.histogram("serve.job.total_seconds")
      .observe(job->queueSeconds + runSeconds);

  jobTracer.event("serve.job.finish",
                  {{"state", support::Json(jobStateName(finalState))},
                   {"run_seconds", support::Json(runSeconds)},
                   {"evaluations",
                    support::Json(std::to_string(job->evaluations))},
                   {"hypervolume", support::Json(job->hypervolume)}});
  // Drop the sinks before the tracer dies: the StreamSink borrows the hub
  // and the file sink should flush/close deterministically here, not at
  // some later destructor ordering.
  jobTracer.clearSinks();

  if (hub_ != nullptr)
    hub_->publishEnd(
        job->id,
        support::Json(support::JsonObject{
            {"stream", support::Json("control")},
            {"event", support::Json("state")},
            {"job", support::Json(job->id)},
            {"state", support::Json(jobStateName(finalState))}}));
}

} // namespace motune::serve
