// Serve-path load benchmark with a committed baseline gate.
//
// Boots an in-process tuning daemon (src/serve/) on an ephemeral port,
// pushes a burst of small tuning jobs through the real socket protocol,
// and reports what the CI serve gate cares about: submit round-trip
// throughput, end-to-end job throughput, and the p50/p99 job latency
// (admission -> artifact, as the scheduler's histograms see it). The burst's
// jobs are tiny on purpose — the benchmark measures the daemon (framing,
// scheduling, store I/O, contention), not the search. A last phase times
// the ack of paced submits into the idle daemon, each starting a job of
// realistic size.
//
// Gate semantics differ by unit: "*/s" and "ratio" entries are floors
// (current >= floor * (1 - tolerance)), "seconds" entries are ceilings
// (current <= ceiling * (1 + tolerance)) — latency regressions and
// throughput regressions both fail.
//
//   bench_serve [--jobs 200] [--workers 4] [--min-time 0]
//               [--out BENCH_serve.json]
//               [--baseline bench/baselines/serve_baseline.json]
//               [--tolerance 0.50] [--metrics FILE]
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/job.h"
#include "observe/metrics.h"
#include "support/check.h"
#include "support/files.h"
#include "support/json.h"
#include "support/table.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace motune;
namespace fs = std::filesystem;

namespace {

struct Result {
  std::string name;
  double value = 0.0;
  std::string unit;
};

support::Json toJson(const std::vector<Result>& results) {
  support::JsonArray benchmarks;
  for (const auto& r : results)
    benchmarks.push_back(support::Json(support::JsonObject{
        {"name", support::Json(r.name)},
        {"value", support::Json(r.value)},
        {"unit", support::Json(r.unit)}}));
  return support::Json(support::JsonObject{
      {"schema", support::Json(1)},
      {"benchmarks", support::Json(std::move(benchmarks))}});
}

/// Floors for rates/ratios, ceilings for seconds (see file comment).
int compare(const std::vector<Result>& current, const support::Json& baseline,
            double tolerance) {
  std::map<std::string, Result> currentByName;
  for (const auto& r : current) currentByName[r.name] = r;

  support::TextTable table("serve load vs. baseline (tolerance " +
                           support::fmtPercent(tolerance) + ")");
  table.setHeader({"benchmark", "current", "baseline", "status"});
  int failures = 0;
  const support::Json& entries = baseline.at("benchmarks");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string name = entries[i].at("name").asString();
    const double bound = entries[i].at("value").asNumber();
    const auto it = currentByName.find(name);
    if (it == currentByName.end()) {
      table.addRow({name, "-", support::fmt(bound, 3), "MISSING"});
      ++failures;
      continue;
    }
    const bool isCeiling = it->second.unit == "seconds";
    const bool ok = isCeiling
                        ? it->second.value <= bound * (1.0 + tolerance)
                        : it->second.value >= bound * (1.0 - tolerance);
    if (!ok) ++failures;
    table.addRow({name, support::fmt(it->second.value, 4),
                  support::fmt(bound, 4), ok ? "ok" : "REGRESSION"});
  }
  std::cout << table.render();
  return failures;
}

serve::JobSpec tinyJob(std::uint64_t seed) {
  serve::JobSpec spec;
  spec.kernel = "mm";
  spec.n = 64;
  spec.algorithm = "random";
  spec.budget = 20;
  spec.seed = seed;
  return spec;
}

} // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    MOTUNE_CHECK_MSG(key.rfind("--", 0) == 0, "unknown argument: " + key);
    options[key.substr(2)] = argv[i + 1];
  }
  const std::size_t jobs =
      options.count("jobs") ? std::stoull(options.at("jobs")) : 200;
  const unsigned workers = options.count("workers")
                               ? static_cast<unsigned>(
                                     std::stoul(options.at("workers")))
                               : 4;
  const double tolerance =
      options.count("tolerance") ? std::stod(options.at("tolerance")) : 0.50;

  const fs::path stateDir =
      fs::temp_directory_path() /
      ("motune-bench-serve-" + std::to_string(::getpid()));
  fs::remove_all(stateDir);

  serve::DaemonOptions daemonOptions;
  daemonOptions.stateDir = stateDir.string();
  daemonOptions.scheduler.workers = workers;
  daemonOptions.scheduler.queueCapacity = jobs + 8; // the burst must fit
  serve::Daemon daemon(daemonOptions);
  daemon.start();

  std::cout << "=== serve load: " << jobs << " jobs, " << workers
            << " workers ===\n";
  using clock = std::chrono::steady_clock;

  // Submit burst: round-trip latency of the submit verb, one connection,
  // one request at a time (the client library's synchronous pattern).
  serve::Client client("127.0.0.1", daemon.port());
  std::vector<std::string> ids;
  ids.reserve(jobs);
  const auto submitStart = clock::now();
  for (std::size_t i = 0; i < jobs; ++i) {
    const serve::SubmitOutcome outcome = client.submit(tinyJob(i + 1));
    MOTUNE_CHECK_MSG(outcome.accepted, "submit shed at " + std::to_string(i) +
                                           ": " + outcome.error);
    ids.push_back(outcome.id);
  }
  const double submitSeconds =
      std::chrono::duration<double>(clock::now() - submitStart).count();

  // One live subscriber rides along for the rest of the burst: the gate
  // measures job latency with the streaming plane active, pinning the
  // contract that a subscriber never slows the scheduler. It watches the
  // last acked job, so it stays subscribed for most of the drain.
  std::uint64_t subscriberFrames = 0;
  std::thread subscriber([&daemon, watchId = ids.back(),
                          &subscriberFrames] {
    serve::Client sub("127.0.0.1", daemon.port());
    const serve::StreamEnd end = sub.subscribe(
        watchId, [&subscriberFrames](const support::Json&) {
          ++subscriberFrames;
        });
    MOTUNE_CHECK_MSG(end.state == "done",
                     "subscribed job ended " + end.state);
  });

  // Drain: end-to-end completion of the whole burst.
  MOTUNE_CHECK_MSG(daemon.scheduler().drain(600.0),
                   "burst did not drain in 600s");
  subscriber.join();
  const double wallSeconds =
      std::chrono::duration<double>(clock::now() - submitStart).count();

  // Zero lost, zero duplicated: every acked id is done exactly once.
  std::size_t done = 0;
  for (const serve::JobInfo& info : client.list())
    if (info.state == serve::JobState::Done) ++done;
  MOTUNE_CHECK_MSG(done == jobs, "lost results: " + std::to_string(done) +
                                     "/" + std::to_string(jobs) + " done");
  std::cout << "  live subscriber saw " << subscriberFrames
            << " stream frames\n";

  // Warm resubmit: every spec already finished, so resubmitting the same
  // burst must hit the exact-spec result cache — each ack names the
  // original job, nothing is scheduled. Measures cache-lookup round-trip
  // throughput (a pure protocol + index path, no job execution).
  const auto resubmitStart = clock::now();
  for (std::size_t i = 0; i < jobs; ++i) {
    const serve::SubmitOutcome outcome = client.submit(tinyJob(i + 1));
    MOTUNE_CHECK_MSG(outcome.accepted && outcome.cached &&
                         outcome.id == ids[i],
                     "warm resubmit " + std::to_string(i) +
                         " missed the spec cache (got " + outcome.id + ")");
  }
  const double resubmitSeconds =
      std::chrono::duration<double>(clock::now() - resubmitStart).count();

  const support::Json stats = client.stats();
  const double p50 = stats.at("total_seconds").at("p50").asNumber();
  const double p99 = stats.at("total_seconds").at("p99").asNumber();

  // Idle ack: submits paced so that each one finds the daemon idle and
  // starts a job of realistic size (default RS-GDE3 on mm at the paper's
  // n). The ack must not wait for the job it starts: a worker that takes
  // the CPU before the connection thread has sent the reply holds the ack
  // for a scheduler tick or more. Median round trip, in seconds.
  std::vector<double> idleRtts;
  for (std::uint64_t i = 0; i < 30; ++i) {
    MOTUNE_CHECK_MSG(daemon.scheduler().drain(60.0), "idle phase stalled");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    serve::JobSpec spec; // the defaults: RS-GDE3 on mm/westmere
    spec.seed = 1000 + i;
    const auto sent = clock::now();
    const serve::SubmitOutcome outcome = client.submit(spec);
    idleRtts.push_back(
        std::chrono::duration<double>(clock::now() - sent).count());
    MOTUNE_CHECK_MSG(outcome.accepted && !outcome.cached,
                     "idle submit " + std::to_string(i) + " did not start a "
                     "job: " + outcome.error);
  }
  MOTUNE_CHECK_MSG(daemon.scheduler().drain(60.0), "idle phase stalled");
  std::sort(idleRtts.begin(), idleRtts.end());
  const double idleRtt = idleRtts[idleRtts.size() / 2];

  std::vector<Result> results;
  const auto add = [&](std::string name, double value, std::string unit) {
    std::cout << "  " << name << ": " << support::fmt(value, 4) << " " << unit
              << "\n";
    results.push_back({std::move(name), value, std::move(unit)});
  };
  add("serve.submit.throughput",
      submitSeconds > 0 ? static_cast<double>(jobs) / submitSeconds : 0.0,
      "submits/s");
  add("serve.jobs.throughput",
      wallSeconds > 0 ? static_cast<double>(jobs) / wallSeconds : 0.0,
      "jobs/s");
  add("serve.job.p50_latency", p50, "seconds");
  add("serve.job.p99_latency", p99, "seconds");
  add("serve.cache.resubmit_throughput",
      resubmitSeconds > 0 ? static_cast<double>(jobs) / resubmitSeconds : 0.0,
      "submits/s");
  add("serve.submit.idle_rtt", idleRtt, "seconds");

  daemon.stop();
  fs::remove_all(stateDir);

  auto& metrics = observe::MetricsRegistry::global();
  for (const auto& r : results)
    metrics.gauge("bench.serve." + r.name).set(r.value);

  const support::Json doc = toJson(results);
  if (options.count("out")) {
    std::ofstream out(options.at("out"));
    MOTUNE_CHECK_MSG(out.good(), "cannot write " + options.at("out"));
    out << doc.dump(2) << "\n";
    std::cout << "results written to " << options.at("out") << "\n";
  }
  if (options.count("metrics")) {
    std::ofstream out(options.at("metrics"));
    MOTUNE_CHECK_MSG(out.good(), "cannot write " + options.at("metrics"));
    out << metrics.toJson().dump(2) << "\n";
  }

  if (!options.count("baseline")) {
    std::cout << doc.dump(2) << "\n";
    return 0;
  }
  const int failures = compare(
      results, support::Json::parse(support::readFile(options.at("baseline"))),
      tolerance);
  if (failures > 0) {
    std::cerr << failures << " serve gate(s) failed\n";
    return 1;
  }
  std::cout << "all serve gates passed\n";
  return 0;
}
