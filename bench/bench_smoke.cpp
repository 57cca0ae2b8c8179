// CI smoke gate: runs the full RS-GDE3 pipeline on two kernels, emits the
// tuning-quality metrics (final hypervolume, evaluation count, front size —
// the columns of paper Table VI) as machine-readable JSON, and optionally
// diffs them against a checked-in baseline with a tolerance. A hypervolume
// regression > tolerance or an evaluation-budget blowup fails the process,
// turning Table VI into a regression gate.
//
//   bench_smoke [--out metrics.json]
//               [--baseline bench/baselines/smoke_baseline.json]
//               [--tolerance 0.05]
#include "bench/common.h"

#include "observe/metrics.h"
#include "support/check.h"
#include "support/files.h"
#include "support/json.h"

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

using namespace motune;

namespace {

struct Entry {
  std::string kernel;
  std::string machine;
  std::uint64_t seed = 1;
  double hypervolume = 0.0;
  std::uint64_t evaluations = 0;       ///< E incl. thread-sweep refinement
  std::uint64_t uniqueEvaluations = 0; ///< search-phase unique evaluations
  std::uint64_t memoHits = 0;
  std::size_t frontSize = 0;

  support::Json toJson() const {
    return support::Json(support::JsonObject{
        {"kernel", support::Json(kernel)},
        {"machine", support::Json(machine)},
        {"seed", support::Json(seed)},
        {"hypervolume", support::Json(hypervolume)},
        {"evaluations", support::Json(evaluations)},
        {"unique_evaluations", support::Json(uniqueEvaluations)},
        {"memo_hits", support::Json(memoHits)},
        {"front_size", support::Json(frontSize)}});
  }

  static Entry fromJson(const support::Json& json) {
    Entry e;
    e.kernel = json.at("kernel").asString();
    e.machine = json.at("machine").asString();
    e.seed = static_cast<std::uint64_t>(json.at("seed").asInt());
    e.hypervolume = json.at("hypervolume").asNumber();
    e.evaluations = static_cast<std::uint64_t>(json.at("evaluations").asInt());
    if (json.has("unique_evaluations"))
      e.uniqueEvaluations =
          static_cast<std::uint64_t>(json.at("unique_evaluations").asInt());
    if (json.has("memo_hits"))
      e.memoHits = static_cast<std::uint64_t>(json.at("memo_hits").asInt());
    e.frontSize = static_cast<std::size_t>(json.at("front_size").asInt());
    return e;
  }
};

Entry runEntry(const std::string& kernelName, std::uint64_t seed) {
  auto& metrics = observe::MetricsRegistry::global();
  metrics.reset();

  tuning::KernelTuningProblem problem(kernels::kernelByName(kernelName),
                                      machine::westmere());
  autotune::TunerOptions options;
  options.gde3.seed = seed;
  autotune::AutoTuner tuner(options);
  const autotune::TuningResult result = tuner.tune(problem);

  Entry e;
  e.kernel = kernelName;
  e.machine = problem.machine().name;
  e.seed = seed;
  e.hypervolume = result.hypervolume;
  e.evaluations = result.evaluations;
  e.uniqueEvaluations = metrics.counter("tuning.evaluations.unique").value();
  e.memoHits = metrics.counter("tuning.evaluations.memo_hits").value();
  e.frontSize = result.front.size();
  return e;
}

/// Gates `current` against `baseline`. The hypervolume may regress by at
/// most `tolerance` (relative); the evaluation budget may grow by at most
/// 50% (search stochasticity headroom — a blowup signals a convergence
/// regression, not noise).
int compare(const std::vector<Entry>& current,
            const std::vector<Entry>& baseline, double tolerance) {
  std::map<std::string, const Entry*> byKey;
  for (const auto& b : baseline) byKey[b.kernel + "/" + b.machine] = &b;

  support::TextTable table("metrics vs. baseline (tolerance " +
                           support::fmtPercent(tolerance) + ")");
  table.setHeader({"kernel", "V(S)", "base V(S)", "E", "base E", "|S|",
                   "status"});
  int failures = 0;
  for (const auto& c : current) {
    const auto it = byKey.find(c.kernel + "/" + c.machine);
    if (it == byKey.end()) {
      table.addRow({c.kernel, support::fmt(c.hypervolume, 4), "-",
                    std::to_string(c.evaluations), "-",
                    std::to_string(c.frontSize), "NO BASELINE"});
      ++failures;
      continue;
    }
    const Entry& b = *it->second;
    std::string status = "ok";
    if (c.hypervolume < b.hypervolume * (1.0 - tolerance)) {
      status = "HV REGRESSION";
      ++failures;
    } else if (static_cast<double>(c.evaluations) >
               static_cast<double>(b.evaluations) * 1.5) {
      status = "EVAL BLOWUP";
      ++failures;
    }
    table.addRow({c.kernel, support::fmt(c.hypervolume, 4),
                  support::fmt(b.hypervolume, 4),
                  std::to_string(c.evaluations),
                  std::to_string(b.evaluations), std::to_string(c.frontSize),
                  status});
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

  std::cout << "=== metrics smoke: RS-GDE3 tuning-quality gate ===\n";
  std::vector<Entry> entries;
  for (const std::string kernel : {"mm", "jacobi-2d"})
    entries.push_back(runEntry(kernel, /*seed=*/1));

  support::JsonArray jsonEntries;
  for (const auto& e : entries) jsonEntries.push_back(e.toJson());
  const support::Json doc(support::JsonObject{
      {"schema", support::Json(1)},
      {"entries", support::Json(std::move(jsonEntries))}});

  if (options.count("out")) {
    std::ofstream out(options.at("out"));
    MOTUNE_CHECK_MSG(out.good(), "cannot write " + options.at("out"));
    out << doc.dump(2) << "\n";
    std::cout << "metrics written to " << options.at("out") << "\n";
  }

  if (!options.count("baseline")) {
    std::cout << doc.dump(2) << "\n";
    return 0;
  }

  const support::Json baselineDoc =
      support::Json::parse(support::readFile(options.at("baseline")));
  std::vector<Entry> baseline;
  for (std::size_t i = 0; i < baselineDoc.at("entries").size(); ++i)
    baseline.push_back(Entry::fromJson(baselineDoc.at("entries")[i]));

  const int failures = compare(entries, baseline, tolerance);
  if (failures > 0) {
    std::cerr << failures << " metric gate(s) failed\n";
    return 1;
  }
  std::cout << "all metric gates passed\n";
  return 0;
}
