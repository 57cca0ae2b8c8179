// Adaptive-selection benchmark with a committed baseline gate.
//
// Two families of numbers, one binary:
//
//  1. Scenario quality (machine-independent, deterministic). Every
//     built-in traffic scenario is replayed through AdaptivePolicy and its
//     convergence ratio — the hindsight-best static bill divided by the
//     adaptive bill — is emitted as `scenario.NAME.ratio`. These are pure
//     functions of (spec, seed), identical on every machine, so the
//     committed floors are tight: a policy change that degrades adaptation
//     shows up as an exact, reproducible drop.
//
//  2. Replay throughput (machine-dependent). `replay.throughput` measures
//     invocations pushed through the full generator + policy + accounting
//     loop per second; its floor is conservative, like bench_hotpath's.
//
// With --baseline the process fails when any value drops more than the
// tolerance below its committed floor.
//
//   bench_adaptive [--out BENCH_adaptive.json]
//                  [--baseline bench/baselines/adaptive_baseline.json]
//                  [--tolerance 0.05] [--min-time 0.3] [--metrics FILE]
#include "observe/metrics.h"
#include "runtime/adaptive.h"
#include "runtime/traffic.h"
#include "support/check.h"
#include "support/files.h"
#include "support/json.h"
#include "support/table.h"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

using namespace motune;

namespace {

struct Result {
  std::string name;
  double value = 0.0;
  std::string unit;
};

runtime::AdaptiveOptions tunedOptions(std::uint64_t seed) {
  runtime::AdaptiveOptions options;
  options.seed = seed;
  options.window = 16;
  options.epsilon = 0.03;
  options.minDwell = 50;
  options.switchMargin = 0.05;
  return options;
}

/// One deterministic replay of a built-in scenario (the adaptive_test
/// gate's configuration: 6 arms, 16 threads, seed 1).
runtime::ReplayOutcome runScenario(const std::string& name) {
  constexpr std::uint64_t kSeed = 1;
  const runtime::TrafficSpec spec = runtime::builtinScenario(name, kSeed);
  const mv::VersionTable table = runtime::syntheticTable(6, kSeed, 16);
  runtime::AdaptivePolicy policy(tunedOptions(kSeed));
  return runtime::replayTraffic(spec, table, policy);
}

/// Invocations per second through the full replay loop (generator decode,
/// select, per-arm cost accounting, onMeasured). Machine-dependent.
double replayThroughput(double minSeconds) {
  using clock = std::chrono::steady_clock;
  const runtime::TrafficSpec spec = runtime::builtinScenario("mix", 1);
  const mv::VersionTable table = runtime::syntheticTable(6, 1, 16);
  {
    runtime::AdaptivePolicy warm(tunedOptions(1)); // warm-up pass
    runtime::replayTraffic(spec, table, warm);
  }
  double invocations = 0.0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    runtime::AdaptivePolicy policy(tunedOptions(1));
    const runtime::ReplayOutcome outcome =
        runtime::replayTraffic(spec, table, policy);
    invocations += static_cast<double>(outcome.invocations);
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < minSeconds);
  return invocations / elapsed;
}

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

/// Gate: every baseline entry must exist in `current` with
/// value >= floor * (1 - tolerance).
int compare(const std::vector<Result>& current, const support::Json& baseline,
            double tolerance) {
  std::map<std::string, double> currentByName;
  for (const auto& r : current) currentByName[r.name] = r.value;

  support::TextTable table("adaptive selection vs. baseline floor "
                           "(tolerance " + support::fmtPercent(tolerance) +
                           ")");
  table.setHeader({"benchmark", "current", "floor", "status"});
  int failures = 0;
  const support::Json& entries = baseline.at("benchmarks");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string name = entries[i].at("name").asString();
    const double floor = entries[i].at("value").asNumber();
    const auto it = currentByName.find(name);
    if (it == currentByName.end()) {
      table.addRow({name, "-", support::fmt(floor, 3), "MISSING"});
      ++failures;
      continue;
    }
    const bool ok = it->second >= floor * (1.0 - tolerance);
    if (!ok) ++failures;
    table.addRow({name, support::fmt(it->second, 3), support::fmt(floor, 3),
                  ok ? "ok" : "REGRESSION"});
  }
  std::cout << table.render();
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    MOTUNE_CHECK_MSG(key.rfind("--", 0) == 0, "unknown argument: " + key);
    options[key.substr(2)] = argv[i + 1];
  }
  const double tolerance =
      options.count("tolerance") ? std::stod(options.at("tolerance")) : 0.05;
  const double minTime =
      options.count("min-time") ? std::stod(options.at("min-time")) : 0.3;

  std::cout << "=== adaptive selection benchmarks ===\n";
  std::vector<Result> results;
  const auto add = [&](std::string name, double value, std::string unit) {
    std::cout << "  " << name << ": " << support::fmt(value, 3) << " " << unit
              << "\n";
    results.push_back({std::move(name), value, std::move(unit)});
  };

  for (const std::string& scenario : runtime::builtinScenarioNames()) {
    const runtime::ReplayOutcome outcome = runScenario(scenario);
    add("scenario." + scenario + ".ratio", outcome.convergenceRatio(),
        "ratio");
    // Oracle ratio: the per-invocation lower bound. Also deterministic.
    add("scenario." + scenario + ".oracle_ratio",
        outcome.adaptiveCost > 0.0
            ? outcome.oracleCost / outcome.adaptiveCost
            : 0.0,
        "ratio");
  }
  add("replay.throughput", replayThroughput(minTime), "invocations/s");

  auto& metrics = observe::MetricsRegistry::global();
  for (const auto& r : results)
    metrics.gauge("bench.adaptive." + r.name).set(r.value);

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
  const support::Json baselineDoc =
      support::Json::parse(support::readFile(options.at("baseline")));
  const int failures = compare(results, baselineDoc, tolerance);
  if (failures > 0) {
    std::cerr << failures << " adaptive gate(s) failed\n";
    return 1;
  }
  std::cout << "all adaptive gates passed\n";
  return 0;
}
