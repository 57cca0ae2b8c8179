// The tuning daemon (src/serve/): protocol framing (partial reads,
// pipelining, malformed and oversized frames), the durable job store's
// crash classification, admission control under load, cancel semantics,
// scheduling priority, concurrent-submit determinism (same seeds produce
// bitwise-same artifacts regardless of worker count and dequeue order),
// and the headline guarantee — a daemon restarted on the state dir of a
// killed one resumes every in-flight job and finishes with artifacts
// identical to an uninterrupted run.
#include "autotune/artifact.h"
#include "autotune/autotuner.h"
#include "observe/report.h"
#include "observe/trace.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/job.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/store.h"
#include "serve/stream.h"
#include "session/session.h"
#include "support/check.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

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

/// Every evaluation sleeps, so scheduler tests can observe running/queued
/// states; removed again so the other tests stay fast. Jobs read the spec
/// when their AutoTuner starts, i.e. when a worker dequeues them.
struct SlowEvals {
  explicit SlowEvals(const char* spec) { ::setenv("MOTUNE_FAULT_SPEC", spec, 1); }
  ~SlowEvals() { ::unsetenv("MOTUNE_FAULT_SPEC"); }
};

serve::JobSpec fastSpec(std::uint64_t seed) {
  serve::JobSpec spec;
  spec.kernel = "mm";
  spec.n = 64;
  spec.algorithm = "random";
  spec.budget = 50;
  spec.seed = seed;
  return spec;
}

serve::JobSpec gde3Spec(std::uint64_t seed) {
  serve::JobSpec spec;
  spec.kernel = "mm";
  spec.n = 64;
  spec.algorithm = "rsgde3";
  spec.seed = seed;
  return spec;
}

serve::DaemonOptions daemonOptions(const std::string& stateDir,
                                   unsigned workers,
                                   std::size_t queueCapacity = 64) {
  serve::DaemonOptions options;
  options.stateDir = stateDir;
  options.scheduler.workers = workers;
  options.scheduler.queueCapacity = queueCapacity;
  return options;
}

/// Artifact comparison modulo provenance: the session block carries the
/// journal path (state-dir specific) and the resume count, which are
/// expected to differ between an interrupted and an uninterrupted run of
/// the same spec. Everything else must match byte for byte.
std::string canonicalArtifact(autotune::TunedArtifact artifact) {
  artifact.session.reset();
  return autotune::serializeArtifact(artifact);
}

} // namespace

// ---------------------------------------------------------------------------
// Protocol framing.

TEST(Protocol, EncodeDecodeRoundTrip) {
  const support::Json msg = support::JsonObject{
      {"verb", "submit"}, {"n", 64}, {"nested", support::JsonArray{1, 2, 3}}};
  const std::string frame = serve::encodeFrame(msg);
  serve::FrameReader reader;
  reader.feed(frame.data(), frame.size());
  const auto decoded = reader.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dump(-1), msg.dump(-1));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Protocol, PartialReadsReassemble) {
  const support::Json msg =
      support::JsonObject{{"verb", "status"}, {"id", "j000042"}};
  const std::string frame = serve::encodeFrame(msg);
  serve::FrameReader reader;
  // One byte at a time: no prefix of the frame may yield a message.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.feed(frame.data() + i, 1);
    EXPECT_FALSE(reader.next().has_value()) << "premature frame at byte " << i;
  }
  reader.feed(frame.data() + frame.size() - 1, 1);
  const auto decoded = reader.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->at("id").asString(), "j000042");
}

TEST(Protocol, PipelinedFramesInOneChunk) {
  const std::string chunk =
      serve::encodeFrame(support::JsonObject{{"seq", 1}}) +
      serve::encodeFrame(support::JsonObject{{"seq", 2}});
  serve::FrameReader reader;
  reader.feed(chunk.data(), chunk.size());
  const auto first = reader.next();
  const auto second = reader.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->at("seq").asInt(), 1);
  EXPECT_EQ(second->at("seq").asInt(), 2);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Protocol, OversizedFrameIsRejected) {
  // Header advertising one byte past the limit; the reader must reject on
  // the header alone, before any payload arrives (no buffering 4 MiB of
  // attacker-controlled length).
  const std::uint32_t size = serve::kMaxFrameBytes + 1;
  const unsigned char header[4] = {
      static_cast<unsigned char>(size >> 24),
      static_cast<unsigned char>(size >> 16),
      static_cast<unsigned char>(size >> 8),
      static_cast<unsigned char>(size)};
  serve::FrameReader reader;
  EXPECT_THROW(
      {
        reader.feed(reinterpret_cast<const char*>(header), 4);
        reader.next();
      },
      serve::ProtocolError);
}

TEST(Protocol, MalformedPayloadIsRejected) {
  const std::string payload = "{not json";
  std::string frame;
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<char>(size >> 24));
  frame.push_back(static_cast<char>(size >> 16));
  frame.push_back(static_cast<char>(size >> 8));
  frame.push_back(static_cast<char>(size));
  frame += payload;
  serve::FrameReader reader;
  reader.feed(frame.data(), frame.size());
  EXPECT_THROW(reader.next(), serve::ProtocolError);
}

// ---------------------------------------------------------------------------
// Job model.

TEST(JobModel, SpecAndInfoRoundTrip) {
  serve::JobSpec spec;
  spec.kernel = "jacobi-2d";
  spec.machine = "barcelona";
  spec.n = 1234;
  spec.algorithm = "gde3";
  spec.seed = 0xdeadbeefcafeULL; // exceeds double precision if mis-serialized
  spec.objectives = {tuning::Objective::Time, tuning::Objective::Energy};
  spec.budget = (1ULL << 53) + 1;
  const serve::JobSpec back = serve::specFromJson(serve::specToJson(spec));
  EXPECT_EQ(back.kernel, spec.kernel);
  EXPECT_EQ(back.machine, spec.machine);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.algorithm, spec.algorithm);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.objectives, spec.objectives);
  EXPECT_EQ(back.budget, spec.budget);

  serve::JobInfo info;
  info.id = "j000007";
  info.state = serve::JobState::Failed;
  info.spec = spec;
  info.error = "boom";
  info.evaluations = (1ULL << 53) + 3;
  const serve::JobInfo infoBack = serve::infoFromJson(serve::infoToJson(info));
  EXPECT_EQ(infoBack.id, info.id);
  EXPECT_EQ(infoBack.state, serve::JobState::Failed);
  EXPECT_EQ(infoBack.error, "boom");
  EXPECT_EQ(infoBack.evaluations, info.evaluations);
}

TEST(JobModel, SpecGenerationsEvaluateOnTheEngineThread) {
  // A spec job's tune time must not follow the machine's load, so its
  // per-generation batches stay off the pool; random search keeps it.
  const autotune::TunerOptions options =
      serve::tunerOptionsFromSpec(fastSpec(1), "", 4, 1);
  EXPECT_FALSE(options.gde3.parallelEvaluation);
  EXPECT_FALSE(options.nsga2.parallelEvaluation);
  EXPECT_EQ(options.evaluationWorkers, 4u);
}

TEST(JobModel, ValidateRejectsBadSpecs) {
  serve::JobSpec spec = fastSpec(1);
  spec.kernel = "no-such-kernel";
  EXPECT_THROW(serve::validateSpec(spec), support::CheckError);
  spec = fastSpec(1);
  spec.machine = "cray-1";
  EXPECT_THROW(serve::validateSpec(spec), support::CheckError);
  spec = fastSpec(1);
  spec.algorithm = "simulated-annealing";
  EXPECT_THROW(serve::validateSpec(spec), support::CheckError);
  // Names are exact: a spec's machine is hashed as written, so "Westmere"
  // would miss the cache entry of "westmere". Brute force needs a grid no
  // spec option supplies, so its name is refused like any unknown one.
  spec = fastSpec(1);
  spec.machine = "Westmere";
  EXPECT_THROW(serve::validateSpec(spec), support::CheckError);
  spec = fastSpec(1);
  spec.algorithm = "brute-force";
  try {
    serve::validateSpec(spec);
    ADD_FAILURE() << "brute-force accepted";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unknown algorithm: brute-force (available: rsgde3, gde3, "
                  "nsga2, random)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(serve::validateSpec(fastSpec(1)));
}

namespace {

/// Runs the `motune` CLI with `args`; returns its exit status and its
/// merged stdout + stderr.
std::pair<int, std::string> runCli(const std::string& args) {
  FILE* pipe =
      ::popen((std::string(MOTUNE_CLI) + " " + args + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    out.append(buf, n);
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

/// A listening socket on an ephemeral loopback port that nothing ever
/// accepts on, so a test can check whether a client tried to connect.
struct Listener {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  int port = 0;
  Listener() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(fd, 8), 0);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
  }
  ~Listener() { ::close(fd); }
  bool connectionPending() const {
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, 0) > 0;
  }
};

} // namespace

TEST(SpecOptions, TuneAndSubmitShareOneTable) {
  // Every option row round-trips flag text -> JobSpec -> JSON -> JobSpec
  // and shows up in both commands' help. A new row needs a sample here.
  const std::map<std::string, std::string> samples = {
      {"kernel", "dsyrk"},          {"machine", "barcelona"},
      {"n", "1400"},                {"objectives", "time,energy"},
      {"algorithm", "gde3"},        {"seed", "18446744073709551615"},
      {"budget", "50"},             {"seed-analytic", "1"},
      {"islands", "4"},             {"surrogate-keep", "0.25"},
  };
  ASSERT_EQ(samples.size(), serve::specOptions().size());
  const std::string tuneHelp = runCli("tune --help").second;
  const std::string submitHelp = runCli("submit --help").second;
  for (const serve::SpecOption& option : serve::specOptions()) {
    SCOPED_TRACE(option.flag);
    ASSERT_EQ(samples.count(option.flag), 1u);
    const std::string& text = samples.at(option.flag);
    serve::JobSpec spec;
    serve::parseSpecFlag(spec, option, text);
    EXPECT_EQ(serve::specFlagText(spec, option), text);
    const support::Json json = serve::specToJson(spec);
    EXPECT_TRUE(json.has(option.key)) << "a non-default value is emitted";
    const serve::JobSpec back =
        serve::specFromJson(support::Json::parse(json.dump(-1)));
    EXPECT_EQ(serve::specToJson(back).dump(-1), json.dump(-1));
    EXPECT_EQ(serve::specFlagText(back, option), text);
    const std::string flag = "--" + std::string(option.flag) + " ";
    EXPECT_NE(tuneHelp.find(flag), std::string::npos);
    EXPECT_NE(submitHelp.find(flag), std::string::npos);
  }

  // Both front doors refuse the same bad input, naming the flag, and
  // submit refuses it before connecting to the daemon.
  const Listener listener;
  const std::string submit = "submit --port " + std::to_string(listener.port);
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--algo nsga2", "--algo"},
      {"--seed -1", "--seed"},
      {"--seed abc", "--seed"},
      {"--n 1400x", "--n"},
  };
  for (const auto& [args, flag] : bad) {
    for (const std::string& command : {std::string("tune"), submit}) {
      SCOPED_TRACE(command + " " + args);
      const auto [status, out] = runCli(command + " " + args);
      EXPECT_EQ(status, 1);
      EXPECT_NE(out.find(flag), std::string::npos) << out;
    }
  }
  const auto [status, out] = runCli(submit + " --checkpoint " +
                                    freshDir("submit-checkpoint"));
  EXPECT_EQ(status, 1);
  EXPECT_NE(out.find("unknown option --checkpoint"), std::string::npos) << out;
  EXPECT_FALSE(listener.connectionPending());

  // One validation pass: `tune --islands 0` and a daemon submit of
  // islands 0 fail with the same text.
  const auto [tuneStatus, tuneOut] = runCli("tune --islands 0");
  EXPECT_EQ(tuneStatus, 1);
  serve::Daemon daemon(daemonOptions(freshDir("spec-islands0"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  serve::JobSpec islands0;
  islands0.islands = 0;
  const serve::SubmitOutcome outcome = client.submit(islands0);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.error.find("islands must be >= 1"), std::string::npos);
  EXPECT_EQ(tuneOut, "error: " + outcome.error + "\n");
  daemon.stop();
}

// ---------------------------------------------------------------------------
// Durable store: crash classification.

TEST(JobStore, RecoverClassifiesJobDirs) {
  const std::string dir = freshDir("store-classify");
  serve::JobStore store(dir);
  const std::string done = store.persistNewJob(fastSpec(1), 0, 1.0);
  const std::string failed = store.persistNewJob(fastSpec(2), 0, 2.0);
  const std::string cancelled = store.persistNewJob(fastSpec(3), 0, 3.0);
  const std::string queued = store.persistNewJob(fastSpec(4), 5, 4.0);

  // Done: a real (tiny but valid) artifact.
  {
    std::ofstream out(store.artifactPath(done));
    out << support::Json(support::JsonObject{
               {"format", "motune-artifact-v1"},
               {"kernel", "mm"},
               {"evaluations", 50},
               {"hypervolume", 0.5},
               {"versions", support::JsonArray{}},
           })
               .dump(2);
  }
  store.markFailed(failed, "search exploded");
  store.markCancelled(cancelled);

  // A crash between mkdir and the job.json rename: never acknowledged,
  // must not resurface as a job.
  fs::create_directories(fs::path(dir) / "jobs" / "j000099");

  serve::JobStore reopened(dir);
  const std::vector<serve::RecoveredJob> jobs = reopened.recover();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].id, done);
  EXPECT_EQ(jobs[0].state, serve::JobState::Done);
  EXPECT_EQ(jobs[0].doneInfo.evaluations, 50u);
  EXPECT_EQ(jobs[1].state, serve::JobState::Failed);
  EXPECT_EQ(jobs[1].error, "search exploded");
  EXPECT_EQ(jobs[2].state, serve::JobState::Cancelled);
  EXPECT_EQ(jobs[3].state, serve::JobState::Queued);
  EXPECT_EQ(jobs[3].priority, 5);

  // The id allocator continues past everything on disk.
  EXPECT_EQ(reopened.persistNewJob(fastSpec(9), 0, 9.0), "j000005");
}

TEST(JobStore, TornArtifactIsDroppedAndRequeued) {
  const std::string dir = freshDir("store-torn");
  serve::JobStore store(dir);
  const std::string id = store.persistNewJob(fastSpec(1), 0, 1.0);
  {
    std::ofstream out(store.artifactPath(id));
    out << "{\"format\": \"motune-art"; // killed mid-write
  }
  serve::JobStore reopened(dir);
  const auto jobs = reopened.recover();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, serve::JobState::Queued);
  EXPECT_FALSE(fs::exists(store.artifactPath(id)));
}

// ---------------------------------------------------------------------------
// Daemon protocol behavior over a live socket.

TEST(Daemon, VerbsAndErrors) {
  serve::Daemon daemon(daemonOptions(freshDir("daemon-verbs"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  EXPECT_NO_THROW(client.ping());

  // Unknown verb and unknown ids are responses, not dropped connections.
  const support::Json bogus =
      client.request(support::JsonObject{{"verb", "bogus"}});
  EXPECT_FALSE(bogus.at("ok").asBool());
  EXPECT_THROW(client.status("j999999"), support::CheckError);
  EXPECT_THROW(client.cancel("j999999"), support::CheckError);

  // An invalid spec is rejected at admission, with the validation message.
  serve::JobSpec bad = fastSpec(1);
  bad.algorithm = "bogus";
  const serve::SubmitOutcome outcome = client.submit(bad);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.error.find("unknown algorithm"), std::string::npos);

  // result on a job that is not done reports its state instead.
  const serve::SubmitOutcome ok = client.submit(fastSpec(1));
  ASSERT_TRUE(ok.accepted);
  client.await(ok.id, 60.0);
  EXPECT_NO_THROW(client.result(ok.id));
  daemon.stop();
}

TEST(Daemon, MalformedFrameDropsOnlyThatConnection) {
  serve::Daemon daemon(daemonOptions(freshDir("daemon-malformed"), 1));
  daemon.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(daemon.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // Oversized length prefix: the daemon must drop this connection.
  const unsigned char evil[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, evil, 4, 0), 4);
  char buf[8];
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0); // peer closed
  ::close(fd);

  // The daemon itself survives and serves new connections.
  serve::Client client("127.0.0.1", daemon.port());
  EXPECT_NO_THROW(client.ping());
  daemon.stop();
}

TEST(Daemon, ClosedConnectionsReleaseTheirFdAndThread) {
  const auto entries = [](const char* dir) {
    return std::distance(fs::directory_iterator(dir),
                         fs::directory_iterator());
  };
  serve::Daemon daemon(daemonOptions(freshDir("daemon-conn-leak"), 1));
  daemon.start();
  const auto fds = entries("/proc/self/fd");
  const auto tasks = entries("/proc/self/task");
  for (int i = 0; i < 2000; ++i) {
    serve::Client client("127.0.0.1", daemon.port());
    client.ping();
  }
  // Connection threads notice the hang-up asynchronously.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((entries("/proc/self/fd") > fds + 8 ||
          entries("/proc/self/task") > tasks + 8) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_NEAR(entries("/proc/self/fd"), fds, 8);
  EXPECT_NEAR(entries("/proc/self/task"), tasks, 8);
  daemon.stop();
}

// ---------------------------------------------------------------------------
// Scheduling: admission control, cancel, priority.

TEST(Scheduler, QueueFullShedsLoadWithRetryAfter) {
  SlowEvals slow("delay@*:0.002");
  serve::Daemon daemon(
      daemonOptions(freshDir("sched-admission"), 1, /*queueCapacity=*/2));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());

  // One running + two queued fills the queue; the next submit is shed.
  std::vector<std::string> accepted;
  serve::SubmitOutcome rejected;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const serve::SubmitOutcome outcome = client.submit(fastSpec(seed));
    if (!outcome.accepted) {
      rejected = outcome;
      break;
    }
    accepted.push_back(outcome.id);
  }
  ASSERT_FALSE(rejected.error.empty()) << "queue never filled";
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);
  EXPECT_GT(rejected.retryAfterSeconds, 0.0);
  EXPECT_LE(accepted.size(), 3u); // 1 running + queueCapacity

  // Shedding is backpressure, not loss: what was acked still completes.
  ASSERT_TRUE(daemon.scheduler().drain(120.0));
  for (const std::string& id : accepted)
    EXPECT_EQ(client.status(id).state, serve::JobState::Done) << id;
  const support::Json stats = client.stats();
  EXPECT_GE(std::stoull(stats.at("admission_rejects").asString()), 1u);
  daemon.stop();
}

TEST(Scheduler, CancelQueuedJobIsImmediateAndDurable) {
  SlowEvals slow("delay@*:0.002");
  const std::string dir = freshDir("sched-cancel");
  serve::Daemon daemon(daemonOptions(dir, 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());

  // The gde3 job occupies the single worker; the fast job stays queued.
  const serve::SubmitOutcome running = client.submit(gde3Spec(1));
  const serve::SubmitOutcome queued = client.submit(fastSpec(2));
  ASSERT_TRUE(running.accepted);
  ASSERT_TRUE(queued.accepted);

  EXPECT_EQ(client.cancel(queued.id), "cancelled");
  EXPECT_EQ(client.status(queued.id).state, serve::JobState::Cancelled);
  EXPECT_TRUE(
      fs::exists(fs::path(dir) / "jobs" / queued.id / "cancelled"));
  client.await(running.id, 120.0); // the worker was never disturbed
  EXPECT_EQ(client.status(running.id).state, serve::JobState::Done);
  daemon.stop();
}

TEST(Scheduler, CancelRunningJobStopsCooperatively) {
  SlowEvals slow("delay@*:0.002");
  const std::string dir = freshDir("sched-cancel-running");
  serve::Daemon daemon(daemonOptions(dir, 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());

  const serve::SubmitOutcome job = client.submit(gde3Spec(1));
  ASSERT_TRUE(job.accepted);
  // Wait for the worker to pick it up, then cancel mid-search.
  for (int i = 0; i < 2000; ++i) {
    if (client.status(job.id).state == serve::JobState::Running) break;
    ::usleep(2000);
  }
  ASSERT_EQ(client.status(job.id).state, serve::JobState::Running);
  EXPECT_EQ(client.cancel(job.id), "cancelling");

  const serve::JobInfo info = client.await(job.id, 60.0);
  EXPECT_EQ(info.state, serve::JobState::Cancelled);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "jobs" / job.id / "artifact.json"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "jobs" / job.id / "cancelled"));
  EXPECT_THROW(client.cancel(job.id), support::CheckError); // already terminal
  daemon.stop();
}

TEST(Scheduler, HigherPriorityDequeuesFirst) {
  SlowEvals slow("delay@*:0.002");
  const std::string dir = freshDir("sched-priority");
  serve::Daemon daemon(daemonOptions(dir, 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());

  const serve::SubmitOutcome blocker = client.submit(fastSpec(1));
  const serve::SubmitOutcome low = client.submit(fastSpec(2), 0);
  const serve::SubmitOutcome high = client.submit(fastSpec(3), 5);
  ASSERT_TRUE(blocker.accepted && low.accepted && high.accepted);
  ASSERT_TRUE(daemon.scheduler().drain(120.0));

  // The high-priority job must have started before the low-priority one
  // submitted ahead of it; the per-job event logs carry the start stamps.
  auto startedAt = [&](const std::string& id) {
    std::ifstream in((fs::path(dir) / "jobs" / id / "events.jsonl").string());
    std::string line;
    while (std::getline(in, line)) {
      const support::Json event = support::Json::parse(line);
      if (event.at("event").asString() == "started")
        return event.at("t_unix").asNumber();
    }
    ADD_FAILURE() << "no started event for " << id;
    return 0.0;
  };
  EXPECT_LT(startedAt(high.id), startedAt(low.id));
  daemon.stop();
}

// ---------------------------------------------------------------------------
// Determinism: same seeds, bitwise-same artifacts, any scheduling order.

TEST(Determinism, ConcurrentSubmitsMatchSerialBitwise) {
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};

  serve::Daemon parallelDaemon(
      daemonOptions(freshDir("det-parallel"), /*workers=*/4));
  serve::Daemon serialDaemon(
      daemonOptions(freshDir("det-serial"), /*workers=*/1));
  parallelDaemon.start();
  serialDaemon.start();
  serve::Client parallelClient("127.0.0.1", parallelDaemon.port());
  serve::Client serialClient("127.0.0.1", serialDaemon.port());

  std::vector<std::string> parallelIds, serialIds;
  for (std::uint64_t seed : seeds) {
    parallelIds.push_back(parallelClient.submit(gde3Spec(seed)).id);
    serialIds.push_back(serialClient.submit(gde3Spec(seed)).id);
  }
  ASSERT_TRUE(parallelDaemon.scheduler().drain(300.0));
  ASSERT_TRUE(serialDaemon.scheduler().drain(300.0));

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const serve::JobInfo p = parallelClient.status(parallelIds[i]);
    const serve::JobInfo s = serialClient.status(serialIds[i]);
    ASSERT_EQ(p.state, serve::JobState::Done) << "seed " << seeds[i];
    ASSERT_EQ(s.state, serve::JobState::Done) << "seed " << seeds[i];
    EXPECT_EQ(canonicalArtifact(autotune::loadArtifact(p.artifactPath)),
              canonicalArtifact(autotune::loadArtifact(s.artifactPath)))
        << "seed " << seeds[i]
        << ": artifact depends on worker count / dequeue order";
  }
  parallelDaemon.stop();
  serialDaemon.stop();
}

// ---------------------------------------------------------------------------
// Crash-restart resume.

TEST(Resume, RestartFinishesInterruptedJobBitIdentically) {
  // Golden: the same spec run uninterrupted (no daemon involved).
  const serve::JobSpec spec = gde3Spec(42);
  std::string golden;
  {
    tuning::KernelTuningProblem problem = serve::problemFromSpec(spec);
    autotune::AutoTuner tuner(serve::tunerOptionsFromSpec(
        spec, freshDir("resume-golden") + "/session", 1, 1));
    golden = canonicalArtifact(autotune::makeArtifact(tuner.tune(problem),
                                                      problem));
  }

  // Simulate a daemon killed mid-job: persist the job, then run its search
  // with a stop request that fires after the first generation — the
  // journal is left checkpointed but unfinished, exactly as a SIGKILL
  // between checkpoints leaves it (no artifact, no terminal marker).
  const std::string dir = freshDir("resume-state");
  std::string id;
  {
    serve::JobStore store(dir);
    id = store.persistNewJob(spec, 0, 1.0);
    tuning::KernelTuningProblem problem = serve::problemFromSpec(spec);
    autotune::TunerOptions options =
        serve::tunerOptionsFromSpec(spec, store.sessionDir(id), 1, 1);
    options.stopRequested = [] { return true; };
    autotune::AutoTuner tuner(std::move(options));
    (void)tuner.tune(problem);
    ASSERT_TRUE(session::sessionExists(store.sessionDir(id)));
  }

  // Restart: the daemon recovers the job, resumes its session and
  // completes it with the identical artifact.
  serve::Daemon daemon(daemonOptions(dir, 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  const serve::JobInfo info = client.await(id, 120.0);
  EXPECT_EQ(info.state, serve::JobState::Done);
  EXPECT_GE(info.resumes, 1);
  EXPECT_EQ(canonicalArtifact(autotune::loadArtifact(info.artifactPath)),
            golden);
  daemon.stop();
}

TEST(Resume, RecoveredDoneJobsServeResultsWithoutRerun) {
  const std::string dir = freshDir("resume-done");
  std::string id;
  {
    serve::Daemon daemon(daemonOptions(dir, 1));
    daemon.start();
    serve::Client client("127.0.0.1", daemon.port());
    id = client.submit(fastSpec(7)).id;
    client.await(id, 60.0);
    daemon.stop();
  }
  serve::Daemon daemon(daemonOptions(dir, 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  const serve::JobInfo info = client.status(id);
  EXPECT_EQ(info.state, serve::JobState::Done);
  EXPECT_GT(info.evaluations, 0u);
  EXPECT_NO_THROW(client.result(id));
  daemon.stop();
}

// ---------------------------------------------------------------------------
// Exact-spec result cache: resubmitting a finished spec returns the
// existing artifact without scheduling anything.

TEST(SpecCache, ResubmitReturnsCachedJobWithoutRerun) {
  serve::Daemon daemon(daemonOptions(freshDir("cache-resubmit"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());

  const serve::SubmitOutcome first = client.submit(fastSpec(7));
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.cached);
  const serve::JobInfo done = client.await(first.id, 60.0);
  ASSERT_EQ(done.state, serve::JobState::Done);

  // Identical spec: same id back, no new job, marked as a cache hit.
  const serve::SubmitOutcome again = client.submit(fastSpec(7));
  EXPECT_TRUE(again.accepted);
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(client.list().size(), 1u);
  EXPECT_NO_THROW(client.result(again.id));

  // A different spec (seed differs) is a miss and runs for real.
  const serve::SubmitOutcome other = client.submit(fastSpec(8));
  EXPECT_TRUE(other.accepted);
  EXPECT_FALSE(other.cached);
  EXPECT_NE(other.id, first.id);
  client.await(other.id, 60.0);
  daemon.stop();
}

TEST(SpecCache, NoCacheOptOutForcesAFreshRun) {
  serve::Daemon daemon(daemonOptions(freshDir("cache-opt-out"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());

  const serve::SubmitOutcome first = client.submit(fastSpec(7));
  ASSERT_TRUE(first.accepted);
  client.await(first.id, 60.0);

  const serve::SubmitOutcome fresh =
      client.submit(fastSpec(7), /*priority=*/0, /*noCache=*/true);
  EXPECT_TRUE(fresh.accepted);
  EXPECT_FALSE(fresh.cached);
  EXPECT_NE(fresh.id, first.id);
  const serve::JobInfo done = client.await(fresh.id, 60.0);
  EXPECT_EQ(done.state, serve::JobState::Done);
  // Determinism makes the fresh run's artifact identical anyway.
  EXPECT_EQ(canonicalArtifact(autotune::loadArtifact(done.artifactPath)),
            canonicalArtifact(
                autotune::loadArtifact(client.status(first.id).artifactPath)));
  daemon.stop();
}

TEST(SpecCache, RestartRebuildsTheIndexFromDisk) {
  const std::string dir = freshDir("cache-restart");
  std::string id;
  {
    serve::Daemon daemon(daemonOptions(dir, 1));
    daemon.start();
    serve::Client client("127.0.0.1", daemon.port());
    id = client.submit(fastSpec(7)).id;
    client.await(id, 60.0);
    daemon.stop();
  }
  serve::Daemon daemon(daemonOptions(dir, 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  const serve::SubmitOutcome again = client.submit(fastSpec(7));
  EXPECT_TRUE(again.accepted);
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.id, id);
  daemon.stop();
}

TEST(SpecCache, WarmStartedSpecsNeverUseTheCache) {
  // A surrogate_keep < 1 job's artifact depends on the warm-start corpus
  // — the compatible jobs finished in this store when it first ran — not
  // just on the spec, so such specs are excluded from the result cache
  // entirely: a byte-identical resubmission runs for real, and neither
  // submission moves the serve.cache.* counters (the metrics registry is
  // process-global, so compare deltas).
  serve::Daemon daemon(daemonOptions(freshDir("cache-surrogate"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());

  serve::JobSpec spec = gde3Spec(7);
  spec.surrogateKeep = 0.5;
  ASSERT_FALSE(serve::cacheableSpec(spec));
  EXPECT_TRUE(serve::cacheableSpec(gde3Spec(7)));

  const std::string lookupsBefore =
      client.stats().at("cache_lookups").asString();
  const serve::SubmitOutcome first = client.submit(spec);
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.cached);
  ASSERT_EQ(client.await(first.id, 120.0).state, serve::JobState::Done);

  const serve::SubmitOutcome again = client.submit(spec);
  EXPECT_TRUE(again.accepted);
  EXPECT_FALSE(again.cached);
  EXPECT_NE(again.id, first.id);
  EXPECT_EQ(client.stats().at("cache_lookups").asString(), lookupsBefore);
  ASSERT_EQ(client.await(again.id, 120.0).state, serve::JobState::Done);
  daemon.stop();
}

TEST(SpecCache, HashIsStableUnderDefaultedFields) {
  // The hash covers the canonical spec JSON: equal specs collide, any
  // semantic difference — including the surrogate keep fraction — does
  // not.
  EXPECT_EQ(serve::specHash(fastSpec(7)), serve::specHash(fastSpec(7)));
  EXPECT_NE(serve::specHash(fastSpec(7)), serve::specHash(fastSpec(8)));
  serve::JobSpec tuned = fastSpec(7);
  tuned.surrogateKeep = 0.5;
  EXPECT_NE(serve::specHash(tuned), serve::specHash(fastSpec(7)));
  const std::string hash = serve::specHash(fastSpec(7));
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(SpecCache, HashesAndOldJobJsonStayReadable) {
  // specHash keys the result cache, which start() rebuilds from the
  // job.json files of finished jobs, and job.json outlives daemon
  // upgrades. These hashes were computed by a daemon that predates the
  // spec option table; a change to the canonical spec dump must be made
  // on purpose.
  EXPECT_EQ(serve::specHash(serve::JobSpec{}), "180b049c229bdb15");
  serve::JobSpec islands;
  islands.kernel = "dsyrk";
  islands.machine = "barcelona";
  islands.seed = 7;
  islands.islands = 4;
  EXPECT_EQ(serve::specHash(islands), "0d85ef33c45f2671");
  serve::JobSpec features;
  features.kernel = "jacobi-2d";
  features.seedAnalytic = true;
  features.surrogateKeep = 0.5;
  features.objectives = {tuning::Objective::Time, tuning::Objective::Energy};
  EXPECT_EQ(serve::specHash(features), "55021d0a57f0d292");

  // job.json from a daemon without surrogate_keep, islands or
  // seed_analytic: the missing keys take their defaults.
  const serve::JobSpec old = serve::specFromJson(support::Json::parse(
      R"({"algorithm":"gde3","budget":"1000","kernel":"mm",)"
      R"("machine":"westmere","n":64,"objectives":["time","resources"],)"
      R"("seed":"3"})"));
  EXPECT_EQ(old.algorithm, "gde3");
  EXPECT_EQ(old.n, 64);
  EXPECT_EQ(old.seed, 3u);
  EXPECT_EQ(old.surrogateKeep, 1.0);
  EXPECT_EQ(old.islands, 1);
  EXPECT_FALSE(old.seedAnalytic);
  EXPECT_NO_THROW(serve::validateSpec(old));

  // Unknown keys and values of the wrong shape are refused, by key.
  try {
    serve::specFromJson(support::Json::parse(R"({"isles":4})"));
    ADD_FAILURE() << "unknown key accepted";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown spec key: isles"),
              std::string::npos);
  }
  EXPECT_THROW(serve::specFromJson(support::Json::parse(R"({"n":12.5})")),
               support::CheckError);
  EXPECT_THROW(serve::specFromJson(support::Json::parse(R"({"seed":"-1"})")),
               support::CheckError);
  // Each key takes only the JSON kind its value encodes to.
  for (const char* wrongKind :
       {R"({"objectives":"time,energy"})", R"({"n":"64"})",
        R"({"seed_analytic":1})", R"({"kernel":5})", R"({"seed":3})",
        R"({"islands":"4"})", R"({"surrogate_keep":"0.5"})"}) {
    SCOPED_TRACE(wrongKind);
    EXPECT_THROW(serve::specFromJson(support::Json::parse(wrongKind)),
                 support::CheckError);
  }
}

// ---------------------------------------------------------------------------
// Live streaming: the subscribe verb and its buffering contract.

namespace {

// The in-process daemon's end of loopback connection `fd` is the socket
// whose peer is fd's local address; it appears once the accept loop has
// taken the connection. Pins that socket's send buffer to the minimum.
void pinDaemonSendBuffer(int fd) {
  sockaddr_in local{};
  socklen_t length = sizeof local;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &length),
            0);
  const int tiny = 1;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
      const int other = std::atoi(entry.path().filename().c_str());
      sockaddr_in peer{};
      length = sizeof peer;
      if (other == fd ||
          ::getpeername(other, reinterpret_cast<sockaddr*>(&peer),
                        &length) != 0 ||
          length != sizeof peer || peer.sin_family != AF_INET ||
          peer.sin_port != local.sin_port ||
          peer.sin_addr.s_addr != local.sin_addr.s_addr)
        continue;
      EXPECT_EQ(::setsockopt(other, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny),
                0);
      return;
    }
    ::usleep(2000);
  }
  FAIL() << "the daemon never accepted the connection";
}

// tinyBuffers pins both kernel buffers of the connection — this end's
// receive buffer and the daemon end's send buffer — to the minimum, so a
// peer that stops reading backs the daemon's writes up after a few KB
// instead of after the megabytes loopback autotuning allows.
int rawConnect(int port, bool tinyBuffers = false) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (tinyBuffers) {
    const int tiny = 1; // set before connect: it sizes the advertised window
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny), 0);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  if (tinyBuffers) pinDaemonSendBuffer(fd);
  return fd;
}

} // namespace

TEST(Stream, SubscribeDeliversProgressTraceAndEnd) {
  serve::Daemon daemon(daemonOptions(freshDir("stream-subscribe"), 1));
  daemon.start();
  serve::Client submitter("127.0.0.1", daemon.port());
  // The one worker runs another job first, so the watched job is still
  // queued when the subscription starts: frames are live only, and a job
  // of a few milliseconds could otherwise finish before it.
  ASSERT_TRUE(submitter.submit(gde3Spec(2)).accepted);
  const serve::SubmitOutcome job = submitter.submit(gde3Spec(1));
  ASSERT_TRUE(job.accepted);

  serve::Client watcher("127.0.0.1", daemon.port());
  std::size_t progressFrames = 0, traceFrames = 0;
  int lastGen = 0;
  double lastHv = 0.0;
  const serve::StreamEnd end =
      watcher.subscribe(job.id, [&](const support::Json& frame) {
        ASSERT_TRUE(frame.has("stream"));
        ASSERT_TRUE(frame.has("job"));
        EXPECT_EQ(frame.at("job").asString(), job.id);
        const std::string stream = frame.at("stream").asString();
        if (stream == "progress") {
          ++progressFrames;
          const int gen = static_cast<int>(frame.at("generation").asInt());
          EXPECT_GT(gen, lastGen); // generations arrive in order
          lastGen = gen;
          lastHv = frame.at("hypervolume").asNumber();
          EXPECT_GE(frame.at("front_size").asInt(), 1);
        } else if (stream == "trace") {
          ++traceFrames;
          EXPECT_TRUE(frame.at("record").has("name"));
        }
      });

  EXPECT_EQ(end.state, "done");
  EXPECT_GT(progressFrames, 0u) << "no per-generation progress frames";
  EXPECT_GT(traceFrames, 0u) << "no trace records streamed";
  EXPECT_GT(lastHv, 0.0);

  // The finished job's hypervolume (recomputed over the final front) can
  // only improve on what the last streamed generation reported.
  const serve::JobInfo info = submitter.status(job.id);
  EXPECT_EQ(info.state, serve::JobState::Done);
  EXPECT_GE(info.hypervolume, lastHv - 1e-9);

  // The connection is request/response again after the end frame.
  EXPECT_NO_THROW(watcher.ping());
  daemon.stop();
}

TEST(Stream, SubscribeUnknownJobIsAnErrorNotAStream) {
  serve::Daemon daemon(daemonOptions(freshDir("stream-unknown"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  EXPECT_THROW(client.subscribe("j999999", nullptr), support::CheckError);
  EXPECT_NO_THROW(client.ping()); // connection survives the error
  daemon.stop();
}

TEST(Stream, SubscribeFinishedJobEndsImmediately) {
  serve::Daemon daemon(daemonOptions(freshDir("stream-finished"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  const serve::SubmitOutcome job = client.submit(fastSpec(1));
  ASSERT_TRUE(job.accepted);
  client.await(job.id, 60.0);

  std::size_t frames = 0;
  const serve::StreamEnd end = client.subscribe(
      job.id, [&](const support::Json&) { ++frames; });
  EXPECT_EQ(end.state, "done");
  EXPECT_EQ(end.dropped, 0u);
  EXPECT_EQ(frames, 0u) << "a finished job must not replay frames";
  daemon.stop();
}

TEST(Stream, BoundedBufferDropsBestEffortNeverControl) {
  serve::StreamHub hub(/*bufferFrames=*/2);
  auto sub = hub.subscribe("j000001");
  for (int i = 0; i < 10; ++i)
    hub.publishBestEffort("j000001",
                          support::Json(support::JsonObject{{"i", i}}));
  // Control frames enqueue even with the buffer full.
  hub.publishControl("j000001", support::Json(support::JsonObject{
                                    {"stream", "control"}}));
  EXPECT_EQ(sub->dropped(), 8u);

  std::size_t drained = 0;
  bool sawControl = false;
  while (auto frame = sub->next(0.0)) {
    ++drained;
    if (frame->has("stream")) sawControl = true;
  }
  EXPECT_EQ(drained, 3u); // 2 best-effort + 1 control
  EXPECT_TRUE(sawControl);
  EXPECT_FALSE(sub->finished());

  hub.publishEnd("j000001", support::Json(support::JsonObject{
                                {"stream", "control"}}));
  EXPECT_TRUE(sub->next(0.0).has_value()); // the terminal control frame
  EXPECT_TRUE(sub->finished());
  EXPECT_EQ(hub.subscriberCount(), 0u);

  // Publishing to a job with no subscribers is a no-op, not an error.
  hub.publishBestEffort("j000001",
                        support::Json(support::JsonObject{{"late", true}}));
}

TEST(Stream, DropAccountingIsExactPerSubscriber) {
  // Two subscribers to the same job, one drained promptly and one never
  // read: each must carry its own exact drop arithmetic — not a shared or
  // approximate figure.
  serve::StreamHub hub(/*bufferFrames=*/3);
  auto prompt = hub.subscribe("j000002");
  auto stalled = hub.subscribe("j000002");

  for (int i = 0; i < 3; ++i)
    hub.publishBestEffort("j000002",
                          support::Json(support::JsonObject{{"i", i}}));
  // Drain the prompt subscriber; the stalled one sits on a full buffer.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(prompt->next(0.0).has_value());
  for (int i = 3; i < 8; ++i)
    hub.publishBestEffort("j000002",
                          support::Json(support::JsonObject{{"i", i}}));
  EXPECT_EQ(prompt->dropped(), 2u);  // 3 drained + 3 buffered, 2 over
  EXPECT_EQ(stalled->dropped(), 5u); // 3 buffered, 5 over
  hub.publishEnd("j000002",
                 support::Json(support::JsonObject{{"stream", "end"}}));
  EXPECT_EQ(prompt->dropped(), 2u); // the end frame never drops
  EXPECT_EQ(stalled->dropped(), 5u);
}

TEST(Stream, ControlFramesSurviveAFullBufferAndDropsStayExact) {
  // A deliberately unread subscriber with a 2-frame buffer: every control
  // frame must still arrive, in order, while the drop counter tracks the
  // exact number of discarded best-effort frames through the end frame.
  serve::StreamHub hub(/*bufferFrames=*/2);
  auto sub = hub.subscribe("j000003");

  for (int i = 0; i < 6; ++i) // 2 buffered, 4 dropped
    hub.publishBestEffort("j000003",
                          support::Json(support::JsonObject{{"i", i}}));
  for (int c = 0; c < 3; ++c) // beyond capacity, but control: all enqueue
    hub.publishControl("j000003",
                       support::Json(support::JsonObject{{"control", c}}));
  for (int i = 6; i < 10; ++i) // buffer over capacity: 4 more dropped
    hub.publishBestEffort("j000003",
                          support::Json(support::JsonObject{{"i", i}}));
  hub.publishEnd("j000003", support::Json(support::JsonObject{
                                {"stream", "end"}}));
  EXPECT_EQ(sub->dropped(), 8u);

  // Drained frames: the 2 surviving best-effort, all 3 controls in publish
  // order, then the end frame.
  std::vector<std::string> kinds;
  std::vector<int> controls;
  while (auto frame = sub->next(0.0)) {
    if (frame->has("control")) {
      kinds.push_back("control");
      controls.push_back(static_cast<int>(frame->at("control").asInt()));
    } else if (frame->has("stream")) {
      kinds.push_back("end");
    } else {
      kinds.push_back("best-effort");
    }
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"best-effort", "best-effort",
                                             "control", "control", "control",
                                             "end"}));
  EXPECT_EQ(controls, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(sub->finished());

  // The stream is over: late publishes are no-ops and the exact count
  // reported with the end frame can never move again.
  hub.publishBestEffort("j000003",
                        support::Json(support::JsonObject{{"late", 1}}));
  hub.publishControl("j000003",
                     support::Json(support::JsonObject{{"late", 2}}));
  EXPECT_EQ(sub->dropped(), 8u);
}

TEST(Stream, SlowSubscriberNeverBlocksTheScheduler) {
  // A subscriber that stops reading must not stall job completion: frames
  // past its buffer are dropped (best-effort) while control frames and the
  // end frame still arrive once it drains.
  serve::DaemonOptions options = daemonOptions(freshDir("stream-slow"), 2);
  options.streamBufferFrames = 4;
  serve::Daemon daemon(options);
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());

  std::vector<std::string> ids;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const serve::SubmitOutcome job = client.submit(gde3Spec(seed));
    ASSERT_TRUE(job.accepted);
    ids.push_back(job.id);
  }

  // Subscribe to the last queued job and then read NOTHING while the whole
  // burst drains. With the socket buffers at their minimum the kernel
  // cannot absorb the job's stream (tens of KB) on the subscriber's
  // behalf, so the daemon's writes block and its 4-frame buffer overflows
  // however promptly the connection thread forwards.
  const int fd = rawConnect(daemon.port(), /*tinyBuffers=*/true);
  serve::sendFrame(fd, support::JsonObject{{"verb", "subscribe"},
                                           {"id", ids.back()}});
  ASSERT_TRUE(daemon.scheduler().drain(300.0))
      << "a non-reading subscriber stalled the scheduler";

  // Now drain the stream: ack, then frames, then the end frame.
  serve::FrameReader reader;
  std::optional<support::Json> ack = serve::recvFrame(fd, reader);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->at("ok").asBool());
  std::uint64_t dropped = 0;
  for (;;) {
    std::optional<support::Json> frame = serve::recvFrame(fd, reader);
    ASSERT_TRUE(frame.has_value()) << "stream ended without an end frame";
    if (frame->has("stream") && frame->at("stream").asString() == "end") {
      EXPECT_EQ(frame->at("state").asString(), "done");
      dropped = std::stoull(frame->at("dropped").asString());
      break;
    }
  }
  EXPECT_GT(dropped, 0u) << "tiny buffer + unread stream must drop frames";
  ::close(fd);

  for (const std::string& id : ids)
    EXPECT_EQ(client.status(id).state, serve::JobState::Done) << id;
  daemon.stop();
}

TEST(Stream, MidStreamDisconnectCleansUpSubscriber) {
  SlowEvals slow("delay@*:0.002");
  serve::Daemon daemon(daemonOptions(freshDir("stream-disconnect"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  const serve::SubmitOutcome job = client.submit(gde3Spec(1));
  ASSERT_TRUE(job.accepted);

  // Subscribe, read the ack and one frame, then vanish.
  const int fd = rawConnect(daemon.port());
  serve::sendFrame(fd, support::JsonObject{{"verb", "subscribe"},
                                           {"id", job.id}});
  serve::FrameReader reader;
  ASSERT_TRUE(serve::recvFrame(fd, reader).has_value()); // ack
  ::close(fd);

  // The daemon notices within its idle tick and unsubscribes: the
  // subscriber gauge returns to zero while the job is still running.
  bool cleaned = false;
  for (int i = 0; i < 500 && !cleaned; ++i) {
    const std::string text = client.statsPrometheus();
    cleaned = text.find("motune_serve_stream_subscribers 0") !=
              std::string::npos;
    if (!cleaned) ::usleep(20000);
  }
  EXPECT_TRUE(cleaned) << "disconnected subscriber was not reaped";

  // The job is unaffected.
  EXPECT_EQ(client.await(job.id, 120.0).state, serve::JobState::Done);
  daemon.stop();
}

TEST(Stream, ShutdownWithLiveSubscribersUnblocksThem) {
  SlowEvals slow("delay@*:0.002");
  serve::Daemon daemon(daemonOptions(freshDir("stream-shutdown"), 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  // One running job (the worker holds it) and one that stays queued.
  const serve::SubmitOutcome running = client.submit(gde3Spec(1));
  const serve::SubmitOutcome queued = client.submit(gde3Spec(2));
  ASSERT_TRUE(running.accepted && queued.accepted);

  // A subscriber on the queued job blocks until the daemon stops: the job
  // will never run (stop() only finishes the running one).
  std::atomic<bool> returned{false};
  std::thread watcher([&] {
    try {
      serve::Client sub("127.0.0.1", daemon.port());
      (void)sub.subscribe(queued.id, nullptr);
    } catch (const std::exception&) {
      // Torn down mid-stream: also a clean unblock.
    }
    returned.store(true);
  });

  ::usleep(100000); // let the subscription register
  daemon.stop();    // must close the stream, not hang on the watcher
  watcher.join();
  EXPECT_TRUE(returned.load());
}

// ---------------------------------------------------------------------------
// Per-job traces: stamping, id disjointness, append across restarts.

namespace {

/// Parses a job's trace.jsonl into records.
std::vector<support::Json> traceLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "no trace at " << path;
  std::vector<support::Json> out;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(support::Json::parse(line));
  return out;
}

/// Persists a job and runs its search the way the scheduler runs it (per-
/// job tracer, job/run stamp, append-mode sink) with a stop request that
/// fires after the first generation, like a SIGKILL between checkpoints:
/// the journal is left resumable, there is no artifact. Returns the id.
std::string interruptedTracedJob(const std::string& dir,
                                 const serve::JobSpec& spec) {
  serve::JobStore store(dir);
  const std::string id = store.persistNewJob(spec, 0, 1.0);
  EXPECT_EQ(store.traceRunCount(id), 0);
  observe::Tracer tracer;
  tracer.seedIds(1ull << 32 | 1);
  tracer.setStamp({{"job", support::Json(id)}, {"run", support::Json(0)}});
  tracer.addSink(std::make_shared<observe::JsonLinesSink>(
      store.tracePath(id), observe::JsonLinesSink::Mode::Append));
  observe::ScopedTracer scope(&tracer);
  tuning::KernelTuningProblem problem = serve::problemFromSpec(spec);
  autotune::TunerOptions options =
      serve::tunerOptionsFromSpec(spec, store.sessionDir(id), 1, 1);
  options.stopRequested = [] { return true; };
  autotune::AutoTuner tuner(std::move(options));
  (void)tuner.tune(problem);
  tracer.clearSinks();
  EXPECT_TRUE(session::sessionExists(store.sessionDir(id)));
  EXPECT_EQ(store.traceRunCount(id), 1);
  return id;
}

} // namespace

TEST(Trace, PerJobTracesAreStampedAndSpanIdsDisjoint) {
  const std::string dir = freshDir("trace-stamp");
  serve::Daemon daemon(daemonOptions(dir, 2));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  const serve::SubmitOutcome a = client.submit(gde3Spec(1));
  const serve::SubmitOutcome b = client.submit(gde3Spec(2));
  ASSERT_TRUE(a.accepted && b.accepted);
  ASSERT_TRUE(daemon.scheduler().drain(300.0));
  daemon.stop();

  std::set<std::uint64_t> idsA, idsB;
  for (const std::string& id : {a.id, b.id}) {
    serve::JobStore store(dir);
    const auto records = traceLines(store.tracePath(id));
    ASSERT_FALSE(records.empty()) << id;
    for (const support::Json& r : records) {
      // Every record carries the job stamp.
      ASSERT_TRUE(r.has("attrs")) << r.dump(-1);
      ASSERT_TRUE(r.at("attrs").has("job")) << r.dump(-1);
      EXPECT_EQ(r.at("attrs").at("job").asString(), id);
      EXPECT_EQ(static_cast<int>(r.at("attrs").at("run").asInt()), 0);
      if (r.has("id")) {
        const auto spanId = static_cast<std::uint64_t>(r.at("id").asInt());
        if (spanId != 0) (id == a.id ? idsA : idsB).insert(spanId);
      }
    }
  }
  ASSERT_FALSE(idsA.empty());
  ASSERT_FALSE(idsB.empty());
  for (std::uint64_t id : idsA)
    EXPECT_EQ(idsB.count(id), 0u) << "span id " << id
                                  << " appears in both jobs' traces";
}

TEST(Trace, AppendAcrossRestartYieldsFullConvergenceCurve) {
  const serve::JobSpec spec = gde3Spec(42);
  const std::string dir = freshDir("trace-append");
  const std::string id = interruptedTracedJob(dir, spec);

  // Restart: the daemon resumes the job and appends run 1 to the trace.
  serve::Daemon daemon(daemonOptions(dir, 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  EXPECT_EQ(client.await(id, 120.0).state, serve::JobState::Done);
  daemon.stop();

  serve::JobStore store(dir);
  EXPECT_EQ(store.traceRunCount(id), 2) << "resume must append, not truncate";

  // The stitched trace renders one contiguous convergence curve: the
  // report layer sorts generations across runs and keeps the resumed
  // run's version of any generation recorded twice.
  const auto records = observe::parseTraceFile(store.tracePath(id));
  const observe::Report report = observe::buildReport(records, {});
  ASSERT_GT(report.convergence.size(), 1u);
  for (std::size_t i = 0; i < report.convergence.size(); ++i)
    EXPECT_EQ(report.convergence[i].gen, static_cast<int>(i) + 1)
        << "convergence curve has gaps or duplicates";
  // Both runs contributed generations.
  bool sawRun0 = false, sawRun1 = false;
  for (const support::Json& r : traceLines(store.tracePath(id))) {
    if (!r.has("attrs") || !r.at("attrs").has("run")) continue;
    const int run = static_cast<int>(r.at("attrs").at("run").asInt());
    if (run == 0) sawRun0 = true;
    if (run == 1) sawRun1 = true;
  }
  EXPECT_TRUE(sawRun0);
  EXPECT_TRUE(sawRun1);
}

TEST(Trace, TornTraceTailIsSealedOnAppend) {
  const std::string dir = freshDir("trace-torn");
  const std::string path = dir + "/trace.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"name\":\"ok\",\"t\":0,\"type\":\"event\"}\n"
        << "{\"name\":\"torn"; // no trailing newline
  }
  {
    observe::JsonLinesSink sink(path, observe::JsonLinesSink::Mode::Append);
    observe::Tracer tracer;
    tracer.addSink(std::make_shared<observe::JsonLinesSink>(
        path, observe::JsonLinesSink::Mode::Append));
    tracer.event("after.crash");
    tracer.clearSinks();
  }
  std::ifstream in(path);
  std::string line;
  std::size_t parsed = 0, torn = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      (void)support::Json::parse(line);
      ++parsed;
    } catch (const support::CheckError&) {
      ++torn;
    }
  }
  EXPECT_GE(parsed, 2u); // the intact line + the post-crash records
  EXPECT_EQ(torn, 0u);   // the torn line is cut off, not kept
  EXPECT_NO_THROW(observe::parseTraceFile(path));
}

TEST(Trace, TornJobTraceReportsAfterDaemonRestart) {
  const std::string dir = freshDir("trace-torn-restart");
  const std::string id = interruptedTracedJob(dir, gde3Spec(42));
  const std::string trace = serve::JobStore(dir).tracePath(id);
  {
    // The kill tore the trace mid-record.
    std::ofstream out(trace, std::ios::binary | std::ios::app);
    out << "{\"attrs\":{\"job\":\"" << id << "\",\"run\":0},\"name\":\"gde";
  }

  serve::Daemon daemon(daemonOptions(dir, 1));
  daemon.start();
  serve::Client client("127.0.0.1", daemon.port());
  EXPECT_EQ(client.await(id, 120.0).state, serve::JobState::Done);
  daemon.stop();

  EXPECT_EQ(serve::JobStore(dir).traceRunCount(id), 2);
  const auto [status, output] = runCli("report --trace " + trace);
  EXPECT_EQ(status, 0) << output;
  const std::string checkTrace = std::string("python3 ") + MOTUNE_SOURCE_DIR +
                                 "/tools/check_trace.py --serve " + dir +
                                 "/jobs > /dev/null";
  EXPECT_EQ(std::system(checkTrace.c_str()), 0) << checkTrace;
}
