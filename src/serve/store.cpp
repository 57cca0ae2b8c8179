#include "serve/store.h"

#include "session/session.h"
#include "support/check.h"
#include "support/files.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

namespace motune::serve {

namespace fs = std::filesystem;

namespace {

double nowUnix() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// State files are indented JSON, replaced atomically.
void writeJson(const std::string& path, const support::Json& json) {
  support::writeFileAtomic(path, json.dump(2) + "\n");
}

} // namespace

JobLog::JobLog(const std::string& path) : path_(path) {}

void JobLog::record(const std::string& event, support::JsonObject fields) {
  fields.emplace("event", event);
  fields.emplace("t_unix", nowUnix());
  const support::Json line(std::move(fields));
  std::lock_guard lock(mutex_);
  // Opened per record, so a daemon holds no descriptor per finished job.
  const auto mode = fs::exists(path_) ? support::JsonlWriter::Mode::Append
                                      : support::JsonlWriter::Mode::Truncate;
  support::JsonlWriter(path_, mode).write(line);
}

JobStore::JobStore(std::string stateDir) : stateDir_(std::move(stateDir)) {
  fs::create_directories(fs::path(stateDir_) / "jobs");
}

std::string JobStore::jobDir(const std::string& id) const {
  return (fs::path(stateDir_) / "jobs" / id).string();
}

std::string JobStore::artifactPath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "artifact.json").string();
}

std::string JobStore::sessionDir(const std::string& id) const {
  return (fs::path(jobDir(id)) / "session").string();
}

std::string JobStore::eventsPath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "events.jsonl").string();
}

std::string JobStore::tracePath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "trace.jsonl").string();
}

int JobStore::traceRunCount(const std::string& id) const {
  std::ifstream in(tracePath(id));
  if (!in.good()) return 0;
  int runs = 0;
  std::string line;
  while (std::getline(in, line))
    if (line.find("\"trace.header\"") != std::string::npos) ++runs;
  return runs;
}

std::string JobStore::persistNewJob(const JobSpec& spec, int priority,
                                    double submittedUnix) {
  std::string id;
  {
    std::lock_guard lock(mutex_);
    char buf[16];
    std::snprintf(buf, sizeof buf, "j%06llu",
                  static_cast<unsigned long long>(nextId_++));
    id = buf;
  }
  fs::create_directories(jobDir(id));
  const support::Json record = support::JsonObject{
      {"id", id},
      {"spec", specToJson(spec)},
      {"priority", priority},
      {"submitted_unix", submittedUnix},
  };
  writeJson(jobDir(id) + "/job.json", record);
  return id;
}

std::shared_ptr<JobLog> JobStore::log(const std::string& id) {
  return std::make_shared<JobLog>(eventsPath(id));
}

void JobStore::markCancelled(const std::string& id) {
  support::writeFileAtomic(jobDir(id) + "/cancelled", "cancelled\n");
}

void JobStore::markFailed(const std::string& id, const std::string& error) {
  writeJson(jobDir(id) + "/error.json", support::JsonObject{{"error", error}});
}

void JobStore::writeWarmStart(const std::string& id,
                              const std::vector<std::string>& dirs) {
  support::JsonArray list;
  for (const std::string& d : dirs) list.emplace_back(d);
  writeJson(jobDir(id) + "/warm_start.json",
            support::JsonObject{{"dirs", std::move(list)}});
}

std::optional<std::vector<std::string>>
JobStore::readWarmStart(const std::string& id) const {
  const std::string path = jobDir(id) + "/warm_start.json";
  if (!fs::exists(path)) return std::nullopt;
  std::vector<std::string> dirs;
  for (const auto& d :
       support::Json::parse(support::readFile(path)).at("dirs").asArray())
    dirs.push_back(d.asString());
  return dirs;
}

std::vector<RecoveredJob> JobStore::recover() {
  std::vector<RecoveredJob> out;
  const fs::path jobsRoot = fs::path(stateDir_) / "jobs";
  std::uint64_t maxId = 0;
  std::vector<fs::path> dirs;
  for (const auto& entry : fs::directory_iterator(jobsRoot))
    if (entry.is_directory()) dirs.push_back(entry.path());
  std::sort(dirs.begin(), dirs.end());

  for (const fs::path& dir : dirs) {
    const fs::path specPath = dir / "job.json";
    // A crash between mkdir and the job.json rename leaves a spec-less
    // directory; the submit was never acknowledged, so it is not a job.
    if (!fs::exists(specPath)) continue;

    const support::Json record =
        support::Json::parse(support::readFile(specPath.string()));

    RecoveredJob job;
    job.id = record.at("id").asString();
    job.spec = specFromJson(record.at("spec"));
    job.priority = static_cast<int>(record.at("priority").asInt());
    job.submittedUnix = record.at("submitted_unix").asNumber();
    if (job.id.size() > 1)
      maxId = std::max<std::uint64_t>(maxId, std::stoull(job.id.substr(1)));

    if (fs::exists(dir / "cancelled")) {
      job.state = JobState::Cancelled;
    } else if (fs::exists(dir / "error.json")) {
      job.state = JobState::Failed;
      const std::string text = support::readFile((dir / "error.json").string());
      job.error = support::Json::parse(text).at("error").asString();
    } else if (fs::exists(dir / "artifact.json")) {
      job.state = JobState::Done;
      job.doneInfo.id = job.id;
      job.doneInfo.state = JobState::Done;
      job.doneInfo.priority = job.priority;
      job.doneInfo.spec = job.spec;
      job.doneInfo.submittedUnix = job.submittedUnix;
      job.doneInfo.artifactPath = (dir / "artifact.json").string();
      // Result metrics: prefer the artifact itself (always present for a
      // done job) over the event log (whose terminal record can be lost to
      // a crash between the artifact write and the event append).
      try {
        const support::Json artifact = support::Json::parse(
            support::readFile((dir / "artifact.json").string()));
        job.doneInfo.evaluations =
            static_cast<std::uint64_t>(artifact.at("evaluations").asInt());
        job.doneInfo.hypervolume = artifact.at("hypervolume").asNumber();
        job.doneInfo.frontSize = artifact.at("versions").size();
        if (artifact.has("session"))
          job.doneInfo.resumes = static_cast<int>(
              artifact.at("session").at("resumes").asInt());
      } catch (const support::CheckError&) {
        // Torn artifact (a store written before artifacts were replaced
        // atomically): treat as not done — drop the file and requeue below.
        fs::remove(dir / "artifact.json");
        job.state = JobState::Queued;
      }
    } else {
      job.state = JobState::Queued;
    }

    if (job.state == JobState::Queued) {
      // Re-runnable. Use the session journal when it is actually loadable;
      // a journal killed before its header flushed, or carrying a finish
      // record with no artifact (killed between finish and artifact
      // write), cannot seed a resume — drop it and re-run from scratch,
      // which reproduces the identical artifact deterministically.
      const std::string sess = sessionDir(job.id);
      if (session::sessionExists(sess)) {
        bool usable = false;
        try {
          usable = !session::loadSession(sess).finished;
        } catch (const support::CheckError&) {
          usable = false;
        }
        if (!usable) fs::remove_all(sess);
        job.hasSession = usable;
      }
    }
    out.push_back(std::move(job));
  }

  std::lock_guard lock(mutex_);
  nextId_ = std::max(nextId_, maxId + 1);
  return out;
}

void JobStore::writeDaemonInfo(int port, unsigned workers) {
  const support::Json info = support::JsonObject{
      {"port", port},
      {"pid", static_cast<std::int64_t>(::getpid())},
      {"workers", static_cast<std::int64_t>(workers)},
      {"started_unix", nowUnix()},
  };
  writeJson(stateDir_ + "/daemon.json", info);
}

} // namespace motune::serve
