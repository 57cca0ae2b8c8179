// Job model of the tuning daemon: what a client submits (JobSpec), what
// the scheduler tracks (JobState/JobInfo), and the translation from a spec
// to the tuning stack (problem + tuner options).
//
// A JobSpec is the search-option vocabulary of both `motune tune` and the
// daemon's submit verb, declared once in specOptions(), so a spec can be
// replayed locally with `motune tune` for debugging. Specs are serialized
// into the job directory (job.json) at admission time — before the submit
// is acknowledged — which is what makes an acked job durable across a
// daemon crash.
#pragma once

#include "autotune/autotuner.h"
#include "support/json.h"
#include "tuning/kernel_problem.h"

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

namespace motune::serve {

/// One tuning request; the member initializers are the option defaults.
struct JobSpec {
  std::string kernel = "mm";        ///< built-in kernel name
  std::string machine = "westmere"; ///< machine model name
  std::int64_t n = 0;               ///< problem size; 0 = the paper size
  std::string algorithm = "rsgde3"; ///< rsgde3 | gde3 | nsga2 | random
  std::uint64_t seed = 1;
  std::vector<tuning::Objective> objectives = {tuning::Objective::Time,
                                               tuning::Objective::Resources};
  std::uint64_t budget = 1000; ///< evaluation budget for algorithm=random
  /// Surrogate keep fraction (GDE3 family only; see tune --surrogate-keep).
  /// Below 1 the daemon also warm-starts the surrogate from the journals of
  /// finished compatible jobs in its own store; the chosen journal list is
  /// persisted per job so a crash-resume trains on the identical corpus.
  double surrogateKeep = 1.0;
  /// Island-model search. The worker runs the islands in-process under the
  /// job's session directory, so a daemon restart resumes every island
  /// from its own journal; deterministic per spec, so result-cacheable.
  int islands = 1;
  bool seedAnalytic = false; ///< analytic seeding; deterministic per spec
};

/// One JobSpec option. The member's type selects the encodings: flag text
/// (bools 0|1, objectives comma-separated) and JSON (u64 as a string,
/// since JSON numbers are doubles; objectives as an array of names).
struct SpecOption {
  using Field = std::variant<std::string JobSpec::*, std::int64_t JobSpec::*,
                             std::uint64_t JobSpec::*, int JobSpec::*,
                             double JobSpec::*, bool JobSpec::*,
                             std::vector<tuning::Objective> JobSpec::*>;

  const char* flag;  ///< `--FLAG` of tune and submit; messages use the name
  const char* key;   ///< JSON key (job.json, the submit verb)
  const char* value; ///< help placeholder
  const char* help;  ///< help text; the default is appended when printed
  const char* group = ""; ///< help group; "" = the leading options
  Field field;
  /// Numeric options: valid in [min, max], or (min, max] if minExclusive.
  double min = -std::numeric_limits<double>::infinity();
  bool minExclusive = false;
  double max = std::numeric_limits<double>::infinity();
  /// Name options: throws on a name outside the option's list.
  void (*checkName)(const std::string& name) = nullptr;
  /// False: emitted into JSON only when not the default, so options added
  /// after the result cache existed leave specHash stable for specs that
  /// never set them.
  bool alwaysEmitted = true;
};

/// Every JobSpec option, in help order.
const std::vector<SpecOption>& specOptions();

/// Sets `option` from its flag text; throws naming `--FLAG` unless the
/// whole text parses as the option's type (ranges are validateSpec's).
void parseSpecFlag(JobSpec& spec, const SpecOption& option,
                   const std::string& text);

/// The option's value in `spec`, as flag text (help prints the default).
std::string specFlagText(const JobSpec& spec, const SpecOption& option);

/// JSON over specOptions(). Decoding refuses unknown keys and unparsable
/// values; an absent key keeps its default (older job.json files).
support::Json specToJson(const JobSpec& spec);
JobSpec specFromJson(const support::Json& json);

/// Content hash of a canonicalized spec (FNV-1a 64 over the compact JSON
/// dump), as 16 lowercase hex digits. Equal specs always hash equal;
/// 64 bits is not proof of identity, so the scheduler re-compares the
/// canonical JSON on every cache hit before serving it (the serve result
/// cache, `jobs/by-spec/<hash>`).
std::string specHash(const JobSpec& spec);

/// True when a finished job's artifact is a pure function of the spec, so
/// the result cache may answer a byte-identical resubmission with it.
/// False for surrogate_keep < 1: the daemon warm-starts those jobs from
/// whatever compatible jobs had finished in its store when the job first
/// ran, so the same spec submitted later (or to another daemon) can
/// legitimately produce a different artifact — such jobs neither hit nor
/// populate the cache.
bool cacheableSpec(const JobSpec& spec);

/// The one validation pass, run by `motune tune` and at daemon admission:
/// each option's range or names, then autotune::validateOptions over
/// tunerOptionsFromSpec. MOTUNE_CHECK-fails naming the option.
void validateSpec(const JobSpec& spec);

/// Builds the tuning problem a spec describes.
tuning::KernelTuningProblem problemFromSpec(const JobSpec& spec);

/// Tuner options for a spec, plus the serve policy (sessions under
/// `sessionDir` for checkpointable algorithms, `jobThreads` evaluation
/// workers for random search, GDE3/NSGA-II generations evaluated on the
/// engine's thread, warm-start journals when surrogate_keep < 1). Session
/// resume is enabled when a journal already exists (daemon restart). Each call
/// builds a fresh options value: one AutoTuner — and therefore one
/// CountingEvaluator, owned by the job's search thread — per job, never
/// shared (see the ownership contract in tuning/evaluator.h).
autotune::TunerOptions tunerOptionsFromSpec(
    const JobSpec& spec, const std::string& sessionDir, unsigned jobThreads,
    int checkpointEvery,
    const std::vector<std::string>& warmStartDirs = {});

/// Lifecycle of a job inside the scheduler.
enum class JobState {
  Queued,    ///< admitted, waiting for a worker
  Running,   ///< a worker is tuning it
  Done,      ///< artifact written
  Failed,    ///< the search threw; error recorded
  Cancelled, ///< cancelled while queued or running
};

const char* jobStateName(JobState state);
JobState jobStateFromName(const std::string& name);

/// Status snapshot of one job (the `status`/`list` wire payload).
struct JobInfo {
  std::string id;
  JobState state = JobState::Queued;
  int priority = 0;
  JobSpec spec;
  double submittedUnix = 0.0;  ///< wall clock, seconds
  double queueSeconds = 0.0;   ///< admission -> start (or now)
  double runSeconds = 0.0;     ///< start -> finish (or now)
  int resumes = 0;             ///< times the job resumed from its journal
  std::uint64_t evaluations = 0; ///< set when Done
  double hypervolume = 0.0;      ///< set when Done
  std::size_t frontSize = 0;     ///< set when Done
  std::string error;             ///< set when Failed
  std::string artifactPath;      ///< set when Done
};

support::Json infoToJson(const JobInfo& info);
JobInfo infoFromJson(const support::Json& json);

} // namespace motune::serve
