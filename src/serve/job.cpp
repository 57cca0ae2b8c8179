#include "serve/job.h"

#include "kernels/kernel.h"
#include "machine/machine.h"
#include "session/session.h"
#include "support/check.h"
#include "support/number.h"
#include "tuning/island.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <type_traits>

namespace motune::serve {

namespace {

using Objectives = std::vector<tuning::Objective>;

// Per field type: value -> JSON, JSON -> flag text, flag text -> value.
// JSON decodes through flag text, so a flag and its key parse alike.
support::Json toJson(const std::string& v) { return v; }
support::Json toJson(std::uint64_t v) { return std::to_string(v); }
support::Json toJson(const Objectives& v) {
  support::JsonArray names;
  for (tuning::Objective o : v) names.emplace_back(tuning::objectiveName(o));
  return names;
}
template <class T> support::Json toJson(T v) { return v; }

std::optional<std::string> jsonText(const support::Json& j) {
  using Kind = support::Json::Kind;
  if (j.kind() == Kind::Bool) return j.asBool() ? "1" : "0";
  if (j.kind() == Kind::Number) return j.dump(-1);
  if (j.kind() == Kind::String) return j.asString();
  if (j.kind() != Kind::Array) return std::nullopt;
  std::string list;
  for (const support::Json& item : j.asArray()) {
    if (item.kind() != Kind::String) return std::nullopt;
    list += (list.empty() ? "" : ",") + item.asString();
  }
  return list;
}

bool fromText(const std::string& text, std::string& out) {
  out = text;
  return true;
}
bool fromText(const std::string& text, bool& out) {
  out = text == "1";
  return text == "0" || text == "1";
}
bool fromText(const std::string& text, Objectives& out) {
  out.clear();
  std::stringstream items(text);
  std::string item;
  while (std::getline(items, item, ','))
    out.push_back(tuning::objectiveFromName(item));
  return !out.empty();
}
template <class T> bool fromText(const std::string& text, T& out) {
  const std::optional<T> v = support::parseNumber<T>(text);
  if (v) out = *v;
  return v.has_value();
}

bool setFromText(JobSpec& spec, const SpecOption& option,
                 const std::string& text) {
  return std::visit([&](auto member) { return fromText(text, spec.*member); },
                    option.field);
}

/// "must be ..." text of a numeric option's range.
std::string rangeText(const SpecOption& o) {
  const auto num = [](double x) { return support::Json(x).dump(-1); };
  if (std::isinf(o.max)) return (o.minExclusive ? "> " : ">= ") + num(o.min);
  return (o.minExclusive ? "in (" : "in [") + num(o.min) + ", " + num(o.max) +
         "]";
}

} // namespace

const std::vector<SpecOption>& specOptions() {
  static const std::vector<SpecOption> options = {
      {.flag = "kernel", .key = "kernel", .value = "NAME",
       .help = "built-in kernel to tune", .field = &JobSpec::kernel,
       .checkName = [](const std::string& s) { kernels::kernelByName(s); }},
      {.flag = "machine", .key = "machine", .value = "NAME",
       .help = "machine model: westmere or barcelona",
       .field = &JobSpec::machine,
       .checkName = [](const std::string& s) { machine::machineByName(s); }},
      {.flag = "n", .key = "n", .value = "N",
       .help = "problem size; 0 = the kernel's paper size",
       .field = &JobSpec::n, .min = 0},
      {.flag = "objectives", .key = "objectives", .value = "LIST",
       .help = "comma list of time, resources and energy",
       .field = &JobSpec::objectives},
      {.flag = "algorithm", .key = "algorithm", .value = "NAME",
       .help = "search algorithm: rsgde3, gde3, nsga2 or random",
       .group = "search", .field = &JobSpec::algorithm,
       .checkName =
           [](const std::string& s) { autotune::algorithmFromName(s); }},
      {.flag = "seed", .key = "seed", .value = "S",
       .help = "RNG seed for the search", .group = "search",
       .field = &JobSpec::seed},
      {.flag = "budget", .key = "budget", .value = "N",
       .help = "evaluation budget for algorithm random", .group = "search",
       .field = &JobSpec::budget, .min = 1},
      {.flag = "seed-analytic", .key = "seed_analytic", .value = "0|1",
       .help = "seed the initial population with cache-capacity-derived "
               "configurations from the performance model (rsgde3/gde3)",
       .group = "search", .field = &JobSpec::seedAnalytic,
       .alwaysEmitted = false},
      {.flag = "islands", .key = "islands", .value = "N",
       .help = "island-model search: N independent islands exchanging "
               "top-ranked migrants on a ring; 1 = off (rsgde3/gde3)",
       .group = "search", .field = &JobSpec::islands, .min = 1,
       .alwaysEmitted = false},
      {.flag = "surrogate-keep", .key = "surrogate_keep", .value = "X",
       .help = "fraction of each generation sent to full evaluation; the "
               "rest is culled by the online surrogate; 1 = no surrogate "
               "(rsgde3/gde3)",
       .group = "surrogate", .field = &JobSpec::surrogateKeep, .min = 0,
       .minExclusive = true, .max = 1},
  };
  return options;
}

void parseSpecFlag(JobSpec& spec, const SpecOption& option,
                   const std::string& text) {
  MOTUNE_CHECK_MSG(setFromText(spec, option, text),
                   "--" + std::string(option.flag) + ": invalid value '" +
                       text + "'");
}

std::string specFlagText(const JobSpec& spec, const SpecOption& option) {
  return std::visit(
      [&](auto member) { return *jsonText(toJson(spec.*member)); },
      option.field);
}

support::Json specToJson(const JobSpec& spec) {
  const JobSpec defaults;
  support::JsonObject obj;
  for (const SpecOption& option : specOptions())
    std::visit(
        [&](auto member) {
          if (option.alwaysEmitted || spec.*member != defaults.*member)
            obj.emplace(option.key, toJson(spec.*member));
        },
        option.field);
  return obj;
}

JobSpec specFromJson(const support::Json& json) {
  JobSpec spec;
  for (const auto& [key, value] : json.asObject()) {
    const auto& options = specOptions();
    const auto option =
        std::find_if(options.begin(), options.end(),
                     [&](const SpecOption& o) { return key == o.key; });
    MOTUNE_CHECK_MSG(option != options.end(), "unknown spec key: " + key);
    // The value must have the JSON kind its member encodes to, so "n":"64"
    // or "objectives":"time" is refused rather than read as flag text.
    const bool kindMatches = std::visit(
        [&](auto member) { return value.kind() == toJson(spec.*member).kind(); },
        option->field);
    const std::optional<std::string> text = jsonText(value);
    MOTUNE_CHECK_MSG(kindMatches && text && setFromText(spec, *option, *text),
                     "spec key " + key + ": invalid value " + value.dump(-1));
  }
  return spec;
}

std::string specHash(const JobSpec& spec) {
  const std::string canonical = specToJson(spec).dump(-1);
  std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a 64 offset basis
  for (unsigned char c : canonical) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool cacheableSpec(const JobSpec& spec) { return spec.surrogateKeep >= 1.0; }

void validateSpec(const JobSpec& spec) {
  for (const SpecOption& option : specOptions())
    std::visit(
        [&](auto member) {
          const auto& v = spec.*member;
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            if (option.checkName != nullptr) option.checkName(v);
          } else if constexpr (std::is_arithmetic_v<T>) {
            const auto x = static_cast<double>(v);
            MOTUNE_CHECK_MSG(
                (option.minExclusive ? x > option.min : x >= option.min) &&
                    x <= option.max,
                std::string(option.flag) + " must be " + rangeText(option));
          }
        },
        option.field);
  autotune::validateOptions(tunerOptionsFromSpec(spec, "", 1, 1));
}

tuning::KernelTuningProblem problemFromSpec(const JobSpec& spec) {
  return tuning::KernelTuningProblem(kernels::kernelByName(spec.kernel),
                                     machine::machineByName(spec.machine),
                                     spec.n, {}, spec.objectives);
}

autotune::TunerOptions tunerOptionsFromSpec(
    const JobSpec& spec, const std::string& sessionDir, unsigned jobThreads,
    int checkpointEvery, const std::vector<std::string>& warmStartDirs) {
  autotune::TunerOptions options;
  options.algorithm = autotune::algorithmFromName(spec.algorithm);
  options.gde3.seed = spec.seed;
  options.nsga2.seed = spec.seed;
  options.randomBudget = spec.budget;
  options.evaluationWorkers = jobThreads == 0 ? 1 : jobThreads;
  // Spec jobs tune the analytic cost model: one generation is ~30
  // evaluations of ~25 us. The engine's own thread evaluates them. Fanned
  // out to the pool, a generation waits for its slowest pool thread, so
  // the tune's wall time follows whatever else holds the machine's cores
  // (on 4 vCPUs one busy process slowed a pooled tune by ~20%, a serial
  // one by under 1%). Random search still fills the pool with its budget.
  options.gde3.parallelEvaluation = false;
  options.nsga2.parallelEvaluation = false;
  options.seedAnalytic = spec.seedAnalytic;
  options.islands = spec.islands;
  options.surrogateKeep = spec.surrogateKeep;
  if (spec.surrogateKeep < 1.0) options.warmStartDirs = warmStartDirs;
  const bool checkpointable =
      options.algorithm == autotune::Algorithm::RSGDE3 ||
      options.algorithm == autotune::Algorithm::PlainGDE3;
  if (checkpointable && !sessionDir.empty()) {
    options.session.directory = sessionDir;
    options.session.checkpointEvery = checkpointEvery;
    // Island jobs journal under per-island subdirectories, so restart
    // detection probes island 0's journal instead of the root one.
    options.session.resume =
        spec.islands > 1
            ? session::sessionExists(tuning::islandDirectory(sessionDir, 0))
            : session::sessionExists(sessionDir);
  }
  return options;
}

const char* jobStateName(JobState state) {
  switch (state) {
  case JobState::Queued: return "queued";
  case JobState::Running: return "running";
  case JobState::Done: return "done";
  case JobState::Failed: return "failed";
  case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

JobState jobStateFromName(const std::string& name) {
  if (name == "queued") return JobState::Queued;
  if (name == "running") return JobState::Running;
  if (name == "done") return JobState::Done;
  if (name == "failed") return JobState::Failed;
  if (name == "cancelled") return JobState::Cancelled;
  MOTUNE_CHECK_MSG(false, "unknown job state: " + name);
  return JobState::Queued;
}

support::Json infoToJson(const JobInfo& info) {
  return support::JsonObject{
      {"id", info.id},
      {"state", jobStateName(info.state)},
      {"priority", info.priority},
      {"spec", specToJson(info.spec)},
      {"submitted_unix", info.submittedUnix},
      {"queue_seconds", info.queueSeconds},
      {"run_seconds", info.runSeconds},
      {"resumes", info.resumes},
      {"evaluations", std::to_string(info.evaluations)},
      {"hypervolume", info.hypervolume},
      {"front_size", info.frontSize},
      {"error", info.error},
      {"artifact", info.artifactPath},
  };
}

JobInfo infoFromJson(const support::Json& json) {
  JobInfo info;
  info.id = json.at("id").asString();
  info.state = jobStateFromName(json.at("state").asString());
  info.priority = static_cast<int>(json.at("priority").asInt());
  info.spec = specFromJson(json.at("spec"));
  info.submittedUnix = json.at("submitted_unix").asNumber();
  info.queueSeconds = json.at("queue_seconds").asNumber();
  info.runSeconds = json.at("run_seconds").asNumber();
  info.resumes = static_cast<int>(json.at("resumes").asInt());
  info.evaluations = std::stoull(json.at("evaluations").asString());
  info.hypervolume = json.at("hypervolume").asNumber();
  info.frontSize = static_cast<std::size_t>(json.at("front_size").asInt());
  info.error = json.at("error").asString();
  info.artifactPath = json.at("artifact").asString();
  return info;
}

} // namespace motune::serve
