// End-to-end benchmark: the wall time users wait on for `motune tune` jobs
// and `motune serve` jobs on the paper's kernels, plus a traced mode that
// splits each job's wall into the library's layers.
//
// One invocation runs one workload (README.md says why each exists):
//   tune-plain       closed loop, default RS-GDE3, no session
//   tune-checkpoint  the same jobs, each journaling to a fresh session dir
//   tune-features    surrogate culling, analytic seeding and 4 islands
//   serve-mixed      open loop against an in-process daemon
//
// The job set of a workload is fixed by --seconds (a nominal job rate per
// workload, never a measured one) and the order and arrival schedule by
// --seed, so two runs with equal arguments get identical inputs. Every
// job's evaluation count, hypervolume and Pareto front are checked against
// the golden file. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics, or with `--trace 1` the per-layer metrics:
// traced runs re-compose AutoTuner::tune from its public calls with spans
// around each, run every other tune job untraced as well (overhead,
// identity check), and replay every fourth job's data through the lower
// layers' public functions in untimed probes. README.md defines every
// metric.
//
//   bench_e2e --workload NAME --seed S --seconds T --golden FILE
//             --workdir DIR [--trace 0|1] [--spans FILE]
//   bench_e2e --write-golden FILE --workdir DIR
#include "autotune/artifact.h"
#include "autotune/autotuner.h"
#include "core/hypervolume.h"
#include "core/pareto.h"
#include "core/roughset.h"
#include "core/rsgde3.h"
#include "observe/metrics.h"
#include "perfmodel/costmodel.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/job.h"
#include "serve/store.h"
#include "session/journal.h"
#include "session/session.h"
#include "support/check.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/stats.h"
#include "tuning/seed.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace motune;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/// Evaluation workers of every in-process tune job (= the 4-core
/// reference box's nproc).
constexpr unsigned kPoolWorkers = 4;
/// Daemon shape of serve-mixed: 2 workers x 2 evaluation threads.
constexpr unsigned kServeWorkers = 2;
constexpr unsigned kServeJobThreads = 2;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 7;
/// Traced runs replay every kProbeEvery-th job's data in untimed probes
/// (an island job's archive sort alone takes about 0.5 s), and
/// kProbeConfigs of its configurations through instantiate/analyze/predict.
constexpr std::size_t kProbeEvery = 4;
constexpr std::size_t kProbeConfigs = 64;
/// Session journals probed per serve run (each is ~10 MB to parse).
constexpr std::size_t kServeSessionProbes = 6;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- jobs -----------------------------------------------------------------

enum class Feature { Plain, Surrogate, Seeded, Islands };

const char* featureName(Feature f) {
  switch (f) {
  case Feature::Plain: return "plain";
  case Feature::Surrogate: return "surrogate";
  case Feature::Seeded: return "seeded";
  case Feature::Islands: return "islands";
  }
  return "?";
}

struct Job {
  serve::JobSpec spec;
  Feature feature = Feature::Plain;
  /// serve-mixed only: an exact repeat of the warm-up spec, which finished
  /// during set-up, so the daemon must answer it from its result cache.
  bool repeat = false;
};

const std::array<const char*, 5> kKernels{"mm", "dsyrk", "jacobi-2d",
                                          "3d-stencil", "n-body"};
const std::array<const char*, 2> kMachines{"westmere", "barcelona"};
constexpr std::size_t kCells = kKernels.size() * kMachines.size();

Job makeJob(std::size_t cell, std::uint64_t seed, Feature feature) {
  Job job;
  job.spec.kernel = kKernels[cell / kMachines.size()];
  job.spec.machine = kMachines[cell % kMachines.size()];
  job.spec.seed = seed;
  job.feature = feature;
  switch (feature) {
  case Feature::Plain: break;
  case Feature::Surrogate: job.spec.surrogateKeep = 0.5; break;
  case Feature::Seeded: job.spec.seedAnalytic = true; break;
  case Feature::Islands: job.spec.islands = 4; break;
  }
  return job;
}

Job warmupJob() { return makeJob(0, 0, Feature::Plain); }

/// The i-th plain job: every kernel x machine cell, search seeds 1..5.
Job plainJob(std::size_t i) {
  return makeJob(i % kCells, 1 + (i / kCells) % 5, Feature::Plain);
}

/// The i-th feature job: cells x search seeds 1..6, the seed index mod 3
/// picking surrogate culling (keep 0.5), analytic seeding or 4 islands.
Job featureJob(std::size_t i) {
  const std::size_t seedIndex = (i / kCells) % 6;
  static constexpr std::array<Feature, 3> kByIndex{
      Feature::Surrogate, Feature::Seeded, Feature::Islands};
  return makeJob(i % kCells, 1 + seedIndex, kByIndex[seedIndex % 3]);
}

/// serve-mixed: of every 10 submits, 7 plain, 1 seeded, 1 with 4 islands
/// and 1 exact repeat. Surrogate specs are left out: their warm-start
/// corpus depends on which jobs finished first.
Job serveJob(std::size_t i) {
  const std::size_t round = i / 10;
  switch (i % 10) {
  case 7: return featureJob(kCells * (1 + 3 * (round % 2)) + round % kCells);
  case 8: return featureJob(kCells * (2 + 3 * (round % 2)) + round % kCells);
  case 9: {
    Job job = warmupJob();
    job.repeat = true;
    return job;
  }
  default: return plainJob(7 * round + i % 10);
  }
}

std::string jobKey(const Job& job) {
  return job.spec.kernel + "/" + job.spec.machine + "/s" +
         std::to_string(job.spec.seed) + "/" + featureName(job.feature);
}

void shuffle(std::vector<Job>& jobs, support::Rng& rng) {
  for (std::size_t i = jobs.size(); i > 1; --i)
    std::swap(jobs[i - 1], jobs[static_cast<std::size_t>(rng.uniformInt(
                               0, static_cast<std::int64_t>(i) - 1))]);
}

// --- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  /// Jobs per --seconds: the nominal closed-loop rate for tune workloads,
  /// the open-loop arrival rate for serve-mixed.
  double jobsPerSecond;
  bool checkpoint;
  bool serve;
  Job (*job)(std::size_t);
};

const std::array<Workload, 4> kWorkloads{{
    {"tune-plain", 4.0, false, false, plainJob},
    {"tune-checkpoint", 1.25, true, false, plainJob},
    {"tune-features", 5.0, false, false, featureJob},
    {"serve-mixed", 1.0, true, true, serveJob},
}};

const Workload& workloadByName(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  MOTUNE_CHECK_MSG(false, "unknown workload: " + name);
  return kWorkloads[0];
}

std::size_t jobCount(const Workload& w, double runSeconds) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(runSeconds * w.jobsPerSecond)));
}

// --- outcomes and the golden file ----------------------------------------

/// What must not change for a job: Table VI's E and V(S) and the front.
struct Outcome {
  std::uint64_t evaluations = 0;
  double hypervolume = 0.0;
  std::size_t frontSize = 0;
  std::uint64_t frontHash = 0; ///< FNV-1a over configs and %.17g objectives

  bool operator==(const Outcome&) const = default;
};

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

Outcome outcomeOf(const autotune::TunedArtifact& artifact) {
  std::string text;
  for (const mv::VersionMeta& m : artifact.front) {
    for (std::int64_t v : m.configuration) text += std::to_string(v) + ",";
    text += exact(m.timeSeconds) + "," + exact(m.resources) + "," +
            exact(m.joules) + ";";
  }
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return {artifact.evaluations, artifact.hypervolume, artifact.front.size(),
          h};
}

std::string describe(const Outcome& o) {
  return "E=" + std::to_string(o.evaluations) + " HV=" + exact(o.hypervolume) +
         " |S|=" + std::to_string(o.frontSize) + " front=" + hex(o.frontHash);
}

/// Collects correctness failures; any one makes the run incorrect.
class Verdict {
public:
  void fail(const std::string& what) {
    std::cerr << "MISMATCH: " << what << "\n";
    ++failures_;
  }
  void expectEqual(const std::string& what, const Outcome& want,
                   const Outcome& got) {
    if (!(want == got))
      fail(what + ": expected " + describe(want) + ", got " + describe(got));
  }
  bool ok() const { return failures_ == 0; }

private:
  int failures_ = 0;
};

std::vector<Job> goldenJobs() {
  std::vector<Job> jobs{warmupJob()};
  for (std::size_t i = 0; i < 5 * kCells; ++i) jobs.push_back(plainJob(i));
  for (std::size_t i = 0; i < 6 * kCells; ++i) jobs.push_back(featureJob(i));
  return jobs;
}

class Golden {
public:
  explicit Golden(const std::string& path) {
    std::ifstream in(path);
    MOTUNE_CHECK_MSG(in.good(), "cannot open golden file " + path);
    std::ostringstream text;
    text << in.rdbuf();
    const support::Json doc = support::Json::parse(text.str());
    for (const support::Json& j : doc.at("jobs").asArray()) {
      Outcome o;
      o.evaluations = static_cast<std::uint64_t>(j.at("evaluations").asInt());
      o.hypervolume = std::stod(j.at("hypervolume").asString());
      o.frontSize = static_cast<std::size_t>(j.at("front_size").asInt());
      o.frontHash = std::stoull(j.at("front_hash").asString(), nullptr, 16);
      byKey_[j.at("key").asString()] = o;
    }
  }

  void check(const Job& job, const Outcome& got, const std::string& what,
             Verdict& verdict) const {
    const auto it = byKey_.find(jobKey(job));
    if (it == byKey_.end())
      verdict.fail(what + " " + jobKey(job) + ": not in the golden file");
    else
      verdict.expectEqual(what + " " + jobKey(job), it->second, got);
  }

private:
  std::map<std::string, Outcome> byKey_;
};

// --- spans ----------------------------------------------------------------

/// In-memory span log of the traced run (name, start, end, parent, job),
/// written as JSONL at exit. Spans are opened and closed on the bench
/// thread; generation marks arrive from search threads.
class Trace {
public:
  Trace() : origin_(Clock::now()) {}

  int open(const char* name, int parent, int job) {
    spans_.push_back({name, Clock::now(), {}, parent, job});
    return static_cast<int>(spans_.size() - 1);
  }
  double close(int span) {
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.end = Clock::now();
    return seconds(s.end - s.start);
  }

  /// TunerOptions::onProgress target: one mark per finished generation.
  void markGeneration() {
    std::lock_guard lock(marksMutex_);
    marks_.push_back(Clock::now());
  }
  std::vector<Clock::time_point> takeMarks() {
    std::lock_guard lock(marksMutex_);
    return std::exchange(marks_, {});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    MOTUNE_CHECK_MSG(out.good(), "cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << support::Json(support::JsonObject{
                 {"id", static_cast<std::int64_t>(i)},
                 {"name", s.name},
                 {"start_s", seconds(s.start - origin_)},
                 {"end_s", seconds(s.end - origin_)},
                 {"parent", s.parent},
                 {"job", s.job}})
                 .dump(-1)
          << "\n";
    }
  }

private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent;
    int job;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::mutex marksMutex_;
  std::vector<Clock::time_point> marks_;
};

/// ObjectiveFunction decorator: counts calls, sums busy time and the union
/// of in-flight intervals, and keeps every evaluated configuration for the
/// replay probes. It sits below the engine's memo, so it sees unique
/// evaluations only.
class TimedObjective final : public tuning::ObjectiveFunction {
public:
  explicit TimedObjective(tuning::ObjectiveFunction& inner) : inner_(inner) {}

  std::size_t numObjectives() const override { return inner_.numObjectives(); }
  const std::vector<tuning::ParamSpec>& space() const override {
    return inner_.space();
  }

  tuning::Objectives evaluate(const tuning::Config& config) override {
    const Clock::time_point start = Clock::now();
    {
      std::lock_guard lock(mutex_);
      if (inFlight_++ == 0) wallStart_ = start;
    }
    tuning::Objectives out;
    try {
      out = inner_.evaluate(config);
    } catch (...) {
      finish(start, nullptr, {});
      throw;
    }
    finish(start, &config, out);
    return out;
  }

  struct Record {
    tuning::Config config;
    tuning::Objectives objectives;
  };
  std::uint64_t calls() const { return records_.size(); }
  double busySeconds() const { return busy_; }
  double wallSeconds() const { return wall_; }
  const std::vector<Record>& records() const { return records_; }

private:
  void finish(Clock::time_point start, const tuning::Config* config,
              const tuning::Objectives& out) {
    const Clock::time_point end = Clock::now();
    std::lock_guard lock(mutex_);
    busy_ += seconds(end - start);
    if (--inFlight_ == 0) wall_ += seconds(end - wallStart_);
    if (config != nullptr) records_.push_back({*config, out});
  }

  tuning::ObjectiveFunction& inner_;
  std::mutex mutex_;
  int inFlight_ = 0;
  Clock::time_point wallStart_;
  double busy_ = 0.0;
  double wall_ = 0.0;
  std::vector<Record> records_;
};

// --- per-layer accumulators -----------------------------------------------

/// Sums over the traced jobs of one run; turned into per-layer metrics at
/// the end. Per-job quantities are divided by the matching job count.
struct Layers {
  int jobs = 0;
  double jobWall = 0.0;
  double pairedTracedWall = 0.0, untracedWall = 0.0; ///< overhead pairs
  double problem = 0.0, poolStart = 0.0, search = 0.0, sweep = 0.0,
         package = 0.0;
  double sweepEvals = 0.0, evaluations = 0.0, hypervolume = 0.0;
  double evalCalls = 0.0, evalBusy = 0.0, evalWall = 0.0;
  double generations = 0.0;
  std::vector<double> genMs;
  // Replay probes (every kProbeEvery-th traced job).
  int probedJobs = 0;
  double archive = 0.0, frontUs = 0.0, ndsUs = 0.0, hvUs = 0.0,
         roughUs = 0.0;
  double probeConfigs = 0.0, instantiateUs = 0.0, analyzeUs = 0.0,
         predictUs = 0.0;
  std::map<Feature, int> featureJobs;
  std::map<Feature, double> featureWall;
  double seedSeconds = 0.0;
  // Registry counter deltas.
  double unique = 0.0, memoHits = 0.0, predictions = 0.0, culled = 0.0,
         migrantsIn = 0.0, staleReads = 0.0;
  // Session journals.
  int sessions = 0, checkpointRecords = 0;
  double journalBytes = 0.0, evalRecords = 0.0, checkpointBytes = 0.0;
  double appendSeconds = 0.0, encodeSeconds = 0.0, loadSeconds = 0.0;
  double diskBytes = 0.0;
  int diskJobs = 0;
  // Daemon path.
  std::vector<double> rttMs, queueS, runS, lagMs;
  double backlog = 0.0, cacheHits = 0.0, submits = 0.0, storeBytes = 0.0;
};

/// The tuning.* counters read around each traced job.
struct Counters {
  double unique, memoHits, predictions, culled, migrantsIn, staleReads;

  static Counters read() {
    auto& m = observe::MetricsRegistry::global();
    const auto v = [&m](const char* name) {
      return static_cast<double>(m.counter(name).value());
    };
    return {v("tuning.evaluations.unique"), v("tuning.evaluations.memo_hits"),
            v("tuning.surrogate.predictions"), v("tuning.surrogate.culled"),
            v("tuning.island.migrants_in"), v("tuning.island.stale_reads")};
  }
  void addDeltaTo(const Counters& before, Layers& l) const {
    l.unique += unique - before.unique;
    l.memoHits += memoHits - before.memoHits;
    l.predictions += predictions - before.predictions;
    l.culled += culled - before.culled;
    l.migrantsIn += migrantsIn - before.migrantsIn;
    l.staleReads += staleReads - before.staleReads;
  }
};

double directoryBytes(const fs::path& dir) {
  double total = 0.0;
  if (!fs::exists(dir)) return total;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file())
      total += static_cast<double>(entry.file_size());
  return total;
}

// --- machine speed --------------------------------------------------------

/// Median SpeedProbe sample on the reference box (4-vCPU Xeon VM).
constexpr double kReferenceProbeSeconds = 0.0100;

/// Fixed single-threaded CPU work (a sort and ordered-map updates, about
/// 10 ms), timed between jobs while no job runs. On shared hosts the
/// machine's speed drifts by up to 20% over seconds, which no affordable
/// run length averages out, so end-to-end times are reported at the
/// reference speed: measured x kReferenceProbeSeconds / median(samples).
class SpeedProbe {
public:
  void sample() {
    const Clock::time_point start = Clock::now();
    std::vector<double> xs(80000);
    std::uint64_t s = 88172645463325252ull;
    const auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    for (double& x : xs) x = static_cast<double>(next() % 1000003);
    std::sort(xs.begin(), xs.end());
    std::map<std::uint64_t, double> m;
    for (int i = 0; i < 20000; ++i) m[next() % 100000] += xs[s % xs.size()];
    MOTUNE_CHECK(!m.empty());
    samples_.push_back(secondsSince(start));
  }

  double medianSeconds() const {
    return samples_.empty() ? kReferenceProbeSeconds
                            : support::median(samples_);
  }
  /// Multiplier turning this run's wall times into reference-speed times.
  double scale() const { return kReferenceProbeSeconds / medianSeconds(); }
  std::size_t samples() const { return samples_.size(); }

private:
  std::vector<double> samples_;
};

// --- tune jobs ------------------------------------------------------------

struct TuneRun {
  Outcome outcome;
  double wall = 0.0;
};

/// Tuner options of an in-process job, as `motune tune` builds them from
/// the same flags. Island jobs evaluate each island's generation on the
/// island's own thread (identical results; the 4 islands still fill the 4
/// cores): with 4 island threads sharing one pool, the use-after-scope race
/// in runtime::parallelForBlocked (ROADMAP.md, concurrency item) crashed or
/// deadlocked about one 20 s tune-features run in four.
autotune::TunerOptions tunerOptions(const Job& job,
                                    const std::string& session) {
  autotune::TunerOptions options =
      serve::tunerOptionsFromSpec(job.spec, session, kPoolWorkers, 1);
  if (job.feature == Feature::Islands) options.gde3.parallelEvaluation = false;
  return options;
}

/// One job as `motune tune` runs it: problem construction, AutoTuner::tune
/// and the artifact build.
TuneRun runTuneJob(const Job& job, const std::string& session) {
  const Clock::time_point start = Clock::now();
  tuning::KernelTuningProblem problem = serve::problemFromSpec(job.spec);
  autotune::AutoTuner tuner(tunerOptions(job, session));
  const autotune::TuningResult result = tuner.tune(problem);
  const autotune::TunedArtifact artifact =
      autotune::makeArtifact(result, problem);
  MOTUNE_CHECK(!autotune::serializeArtifact(artifact).empty());
  const double wall = secondsSince(start);
  return {outcomeOf(artifact), wall};
}

/// The scoring and metadata tail of AutoTuner::tune for the default
/// (time, resources) objectives every bench spec uses.
autotune::TuningResult scoreFront(tuning::KernelTuningProblem& problem,
                                  opt::OptResult raw) {
  autotune::TuningResult out;
  out.raw = std::move(raw);
  out.evaluations = out.raw.evaluations;
  const perf::Prediction baseline = problem.untiledSerialPrediction();
  out.timeRef = baseline.seconds;
  out.resourceRef = 2.0 * baseline.seconds;
  out.hypervolume = opt::HypervolumeMetric({out.timeRef, out.resourceRef})
                        .ofFront(out.raw.front);
  const std::size_t tileDims = problem.skeleton().tileDepth();
  for (const opt::Individual& ind : out.raw.front) {
    const perf::Prediction pred = problem.predictFull(ind.config);
    mv::VersionMeta meta;
    meta.configuration = ind.config;
    meta.tileSizes.assign(ind.config.begin(),
                          ind.config.begin() +
                              static_cast<std::ptrdiff_t>(tileDims));
    meta.threads = static_cast<int>(ind.config.back());
    meta.timeSeconds = pred.seconds;
    meta.resources = pred.resources;
    meta.joules = pred.joules;
    out.front.push_back(std::move(meta));
  }
  std::sort(out.front.begin(), out.front.end(),
            [](const mv::VersionMeta& a, const mv::VersionMeta& b) {
              return a.timeSeconds < b.timeSeconds;
            });
  return out;
}

/// Replays a job's unique configurations through a fresh problem's public
/// layers (variant instantiation, nest analysis, cost prediction). The
/// prediction must reproduce the objectives the search recorded.
void probeEvaluation(const Job& job,
                     const std::vector<TimedObjective::Record>& records,
                     Layers& l, Verdict& verdict) {
  if (records.empty()) return;
  const tuning::KernelTuningProblem problem = serve::problemFromSpec(job.spec);
  const perf::CostModel model(problem.machine());
  const std::size_t stride =
      std::max<std::size_t>(1, records.size() / kProbeConfigs);
  for (std::size_t i = 0; i < records.size(); i += stride) {
    const TimedObjective::Record& r = records[i];
    const Clock::time_point t0 = Clock::now();
    const ir::Program program = problem.instantiate(r.config);
    const Clock::time_point t1 = Clock::now();
    const perf::NestAnalysis analysis = perf::analyzeNest(program);
    const Clock::time_point t2 = Clock::now();
    const perf::Prediction p =
        model.predictAnalyzed(analysis, static_cast<int>(r.config.back()));
    const Clock::time_point t3 = Clock::now();
    l.instantiateUs += seconds(t1 - t0) * 1e6;
    l.analyzeUs += seconds(t2 - t1) * 1e6;
    l.predictUs += seconds(t3 - t2) * 1e6;
    l.probeConfigs += 1;
    if (p.seconds != r.objectives[0] || p.resources != r.objectives[1])
      verdict.fail(jobKey(job) + ": replayed prediction differs from the "
                                 "evaluated objectives");
  }
}

/// Replays a job's archive through the optimizer core's public functions.
void probeArchive(const std::vector<TimedObjective::Record>& records,
                  const std::vector<tuning::ParamSpec>& space, double timeRef,
                  Layers& l) {
  if (records.empty()) return;
  std::vector<opt::Individual> archive;
  archive.reserve(records.size());
  for (const TimedObjective::Record& r : records)
    archive.push_back({std::vector<double>(r.config.begin(), r.config.end()),
                       r.config, r.objectives});
  l.archive += static_cast<double>(archive.size());
  l.probedJobs += 1;

  Clock::time_point t = Clock::now();
  const std::vector<opt::Individual> front = opt::paretoFront(archive);
  l.frontUs += secondsSince(t) * 1e6;

  t = Clock::now();
  MOTUNE_CHECK(!opt::nonDominatedSort(archive).empty());
  std::vector<opt::Individual> survivors = archive;
  opt::truncateByRankAndCrowding(survivors, opt::GDE3Options{}.population);
  l.ndsUs += secondsSince(t) * 1e6;

  t = Clock::now();
  const double hv =
      opt::HypervolumeMetric({timeRef, 2.0 * timeRef}).ofFront(front);
  l.hvUs += secondsSince(t) * 1e6;
  MOTUNE_CHECK(hv >= 0.0);

  t = Clock::now();
  const tuning::Boundary reduced =
      opt::roughSetReduce(archive, tuning::Boundary::fromSpace(space));
  l.roughUs += secondsSince(t) * 1e6;
  MOTUNE_CHECK(reduced.dims() == space.size());
}

/// Journal shape plus replay of a plain job's session through the session
/// layer: load (the resume cost), re-append every record to a scratch
/// journal, and restore + re-serialize the last checkpoint, which must
/// reproduce the journaled state byte for byte.
void probeSession(const Job& job, const fs::path& dir,
                  const fs::path& scratch, Layers& l, Verdict& verdict) {
  if (!session::sessionExists(dir.string())) return;
  const std::string journal = session::journalPath(dir.string());
  l.journalBytes += static_cast<double>(fs::file_size(journal));
  ++l.sessions;

  Clock::time_point t = Clock::now();
  const session::ResumeState state = session::loadSession(dir.string());
  l.loadSeconds += secondsSince(t);

  const std::vector<support::Json> records = session::readJournal(journal);
  for (const support::Json& r : records) {
    const std::string& type = r.at("type").asString();
    if (type == "eval") l.evalRecords += 1;
    if (type == "checkpoint") {
      ++l.checkpointRecords;
      l.checkpointBytes += static_cast<double>(r.dump(-1).size());
    }
  }
  fs::remove(scratch);
  t = Clock::now();
  {
    session::JournalWriter writer(scratch.string(),
                                  session::JournalWriter::Mode::Truncate);
    for (const support::Json& r : records) writer.write(r);
  }
  l.appendSeconds += secondsSince(t);
  fs::remove(scratch);

  if (!state.checkpoint || job.feature != Feature::Plain) return;
  tuning::KernelTuningProblem problem = serve::problemFromSpec(job.spec);
  runtime::ThreadPool pool(1);
  opt::GDE3Options gde3;
  gde3.seed = job.spec.seed;
  opt::RSGDE3 engine(problem, pool, {gde3, true});
  t = Clock::now();
  engine.restore(*state.checkpoint);
  const std::string encoded = engine.serialize().dump(-1);
  l.encodeSeconds += secondsSince(t);
  if (encoded != state.checkpoint->dump(-1))
    verdict.fail(jobKey(job) + ": checkpoint restore + serialize is not the "
                               "identity");
}

/// The same job as runTuneJob, re-composed from the public calls
/// AutoTuner::tune makes, with a span around each and the objective behind
/// TimedObjective. Returns the traced wall and the identity outcome.
TuneRun runTracedJob(const Job& job, const std::string& session, int id,
                     bool probe, Trace& trace, Layers& l, Verdict& verdict) {
  const Counters before = Counters::read();
  const Clock::time_point start = Clock::now();
  const int root = trace.open("job", -1, id);

  int span = trace.open("tuning.KernelTuningProblem", root, id);
  tuning::KernelTuningProblem problem = serve::problemFromSpec(job.spec);
  l.problem += trace.close(span);

  autotune::TunerOptions options = tunerOptions(job, session);
  options.onProgress = [&trace](const opt::GenerationProgress&) {
    trace.markGeneration();
  };
  if (options.seedAnalytic) {
    span = trace.open("tuning.analyticSeeds", root, id);
    options.gde3.initialSeeds = tuning::analyticSeeds(problem);
    options.seedAnalytic = false;
    const double s = trace.close(span);
    l.problem += s;
    l.seedSeconds += s;
  }
  TimedObjective timed(problem);
  span = trace.open("runtime.ThreadPool", root, id);
  autotune::AutoTuner tuner(std::move(options));
  l.poolStart += trace.close(span);

  span = trace.open("autotune.optimize", root, id);
  const Clock::time_point searchStart = Clock::now();
  opt::OptResult raw = tuner.optimize(timed);
  const double search = trace.close(span);

  span = trace.open("autotune.threadSweepRefinement", root, id);
  l.sweepEvals +=
      static_cast<double>(autotune::threadSweepRefinement(problem, raw));
  l.sweep += trace.close(span);

  span = trace.open("autotune.package", root, id);
  const autotune::TuningResult result = scoreFront(problem, std::move(raw));
  const autotune::TunedArtifact artifact =
      autotune::makeArtifact(result, problem);
  MOTUNE_CHECK(!autotune::serializeArtifact(artifact).empty());
  l.package += trace.close(span);
  trace.close(root);
  const double wall = secondsSince(start);
  Counters::read().addDeltaTo(before, l);

  l.jobs += 1;
  l.jobWall += wall;
  l.search += search;
  l.featureJobs[job.feature] += 1;
  l.featureWall[job.feature] += wall;
  l.evaluations += static_cast<double>(result.evaluations);
  l.hypervolume += result.hypervolume;
  l.evalCalls += static_cast<double>(timed.calls());
  l.evalBusy += timed.busySeconds();
  l.evalWall += timed.wallSeconds();
  Clock::time_point previous = searchStart;
  for (Clock::time_point mark : trace.takeMarks()) {
    l.genMs.push_back(seconds(mark - previous) * 1e3);
    previous = mark;
    l.generations += 1;
  }

  if (probe) {
    probeEvaluation(job, timed.records(), l, verdict);
    probeArchive(timed.records(), problem.space(), result.timeRef, l);
  }
  return {outcomeOf(artifact), wall};
}

// --- metrics output -------------------------------------------------------

class Report {
public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }

  /// One row per metric, then the result object as the last line.
  void print(const std::string& workload, bool correct, std::size_t attempted,
             std::size_t failed) const {
    support::JsonObject metrics;
    for (const Row& r : rows_) {
      std::printf("%-16s %-34s %14.6g %s\n", workload.c_str(), r.name.c_str(),
                  r.value, r.unit.c_str());
      metrics.emplace(r.name, support::JsonObject{{"value", r.value},
                                                  {"unit", r.unit}});
    }
    const support::Json result(support::JsonObject{
        {"correct", correct},
        {"attempted", static_cast<std::uint64_t>(attempted)},
        {"failed", static_cast<std::uint64_t>(failed)},
        {"metrics", std::move(metrics)}});
    std::printf("%s\n", result.dump(-1).c_str());
    std::fflush(stdout);
  }

private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Harrell-Davis estimate of the q-quantile (q in [0, 1]): the order
/// statistics weighted by the Beta(q(n+1), (1-q)(n+1)) mass of their rank
/// interval. A run holds a few dozen jobs of very different lengths, and
/// the plain order statistic jumps across the gaps between them when one
/// job's time moves slightly; this weighted average does not.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  const double logBeta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  const auto density = [&](double x) {
    return x <= 0.0 || x >= 1.0 ? 0.0
                                : std::exp((a - 1.0) * std::log(x) +
                                           (b - 1.0) * std::log1p(-x) -
                                           logBeta);
  };
  constexpr int kSteps = 16; // Simpson's rule per rank interval
  const double h = 1.0 / n / kSteps;
  double total = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    double mass = density(lo) + density(lo + 1.0 / n);
    for (int k = 1; k < kSteps; ++k)
      mass += (k % 2 == 1 ? 4.0 : 2.0) * density(lo + k * h);
    mass *= h / 3.0;
    total += mass;
    weighted += mass * xs[i];
  }
  return weighted / total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Durations at the reference machine speed (see SpeedProbe), set-up by
/// the samples taken during set-up and jobs by those of the run; the
/// printed scales recover the raw wall times. `jobsPerSecond` comes scaled
/// by the caller: closed loops complete jobs at the machine's speed, an
/// open loop at its fixed offered rate.
void addEndToEnd(Report& r, const SpeedProbe& setupSpeed,
                 const std::vector<double>& setups, const SpeedProbe& speed,
                 const std::vector<double>& latencies, double jobsPerSecond) {
  const double k = speed.scale();
  std::printf("speed probe: set-up median %.4f ms, run median %.4f ms over "
              "%zu samples; setup_s is wall x %.4f, other durations wall x "
              "%.4f (%zu jobs)\n",
              setupSpeed.medianSeconds() * 1e3, speed.medianSeconds() * 1e3,
              speed.samples(), setupSpeed.scale(), k, latencies.size());
  r.add("setup_s", support::median(setups) * setupSpeed.scale(), "s");
  r.add("job_p50_s", quantile(latencies, 0.50) * k, "s");
  r.add("job_p80_s", quantile(latencies, 0.80) * k, "s");
  r.add("jobs_per_s", jobsPerSecond, "jobs/s");
  r.add("peak_rss_mb", peakRssMb(), "MB");
}

void addLayers(Report& r, const Layers& l, const SpeedProbe& speed,
               unsigned poolWorkers) {
  const double jobs = std::max(l.jobs, 1);
  const double probes = std::max(l.probeConfigs, 1.0);
  const auto perFeature = [&l](Feature f) {
    const auto it = l.featureJobs.find(f);
    return it == l.featureJobs.end() ? 1.0 : static_cast<double>(it->second);
  };
  const auto wallOf = [&l](Feature f) {
    const auto it = l.featureWall.find(f);
    return it == l.featureWall.end() ? 0.0 : it->second;
  };
  const double sessions = std::max(l.sessions, 1);

  r.add("autotune.search_s", l.search / jobs, "s");
  r.add("autotune.sweep_s", l.sweep / jobs, "s");
  r.add("autotune.sweep_evals", l.sweepEvals / jobs, "count");
  r.add("autotune.package_s", l.package / jobs, "s");
  r.add("core.self_s", (l.search - l.evalWall) / jobs, "s");
  r.add("core.self_share", ratio(l.search - l.evalWall, l.jobWall), "ratio");
  r.add("core.generations", l.generations / jobs, "count");
  r.add("core.gen_ms_p50", quantile(l.genMs, 0.50), "ms");
  r.add("core.gen_ms_p90", quantile(l.genMs, 0.90), "ms");
  const double probed = std::max(l.probedJobs, 1);
  r.add("core.archive_size", l.archive / probed, "count");
  r.add("core.front_rebuild_us", l.frontUs / probed, "us");
  r.add("core.nds_us", l.ndsUs / probed, "us");
  r.add("core.hv_us", l.hvUs / probed, "us");
  r.add("core.roughset_us", l.roughUs / probed, "us");
  r.add("core.hv_mean", l.hypervolume / jobs, "ratio");
  r.add("tuning.evals_per_job", l.evaluations / jobs, "count");
  r.add("tuning.eval_calls", l.evalCalls / jobs, "count");
  r.add("tuning.eval_busy_s", l.evalBusy / jobs, "s");
  r.add("tuning.eval_wall_s", l.evalWall / jobs, "s");
  r.add("tuning.eval_us", ratio(l.evalBusy, l.evalCalls) * 1e6, "us");
  r.add("tuning.memo_hit_ratio", ratio(l.memoHits, l.memoHits + l.unique),
        "ratio");
  r.add("tuning.seed_s", l.seedSeconds / perFeature(Feature::Seeded), "s");
  r.add("tuning.surrogate_culled_share", ratio(l.culled, l.predictions),
        "ratio");
  r.add("tuning.surrogate_predictions",
        l.predictions / perFeature(Feature::Surrogate), "count");
  r.add("tuning.island_migrants_in",
        l.migrantsIn / perFeature(Feature::Islands), "count");
  r.add("tuning.island_stale_reads", l.staleReads, "count");
  r.add("tuning.surrogate_job_s", wallOf(Feature::Surrogate), "s");
  r.add("tuning.seeded_job_s", wallOf(Feature::Seeded), "s");
  r.add("tuning.island_job_s", wallOf(Feature::Islands), "s");
  r.add("runtime.pool_util", ratio(l.evalBusy, l.evalWall * poolWorkers),
        "ratio");
  r.add("analyzer.instantiate_us", l.instantiateUs / probes, "us");
  r.add("perfmodel.analyze_us", l.analyzeUs / probes, "us");
  r.add("perfmodel.predict_us", l.predictUs / probes, "us");
  r.add("session.journal_mb", l.journalBytes / sessions / 1e6, "MB");
  r.add("session.eval_records", l.evalRecords / sessions, "count");
  r.add("session.checkpoint_records", l.checkpointRecords / sessions,
        "count");
  r.add("session.checkpoint_kb_mean",
        ratio(l.checkpointBytes, l.checkpointRecords) / 1e3, "KB");
  r.add("session.append_s", l.appendSeconds / sessions, "s");
  r.add("session.encode_ms", l.encodeSeconds / sessions * 1e3, "ms");
  r.add("session.load_s", l.loadSeconds / sessions, "s");
  r.add("session.disk_mb_per_job",
        ratio(l.diskBytes, l.diskJobs) / 1e6, "MB");
  r.add("serve.submit_rtt_ms_p50", quantile(l.rttMs, 0.50), "ms");
  r.add("serve.queue_s_p50", quantile(l.queueS, 0.50), "s");
  r.add("serve.queue_s_p80", quantile(l.queueS, 0.80), "s");
  r.add("serve.run_s_p50", quantile(l.runS, 0.50), "s");
  r.add("serve.run_s_p80", quantile(l.runS, 0.80), "s");
  r.add("serve.backlog_at_last_arrival", l.backlog, "count");
  r.add("serve.cache_hit_share", ratio(l.cacheHits, l.submits), "ratio");
  r.add("serve.store_mb", l.storeBytes / 1e6, "MB");
  r.add("bench.generator_lag_ms_p80", quantile(l.lagMs, 0.80), "ms");
  r.add("bench.speed_probe_ms", speed.medianSeconds() * 1e3, "ms");
  r.add("bench.trace_overhead_share",
        l.untracedWall > 0.0 ? l.pairedTracedWall / l.untracedWall - 1.0
                             : 0.0,
        "ratio");
  r.add("bench.unattributed_share",
        ratio(l.jobWall - l.problem - l.poolStart - l.search - l.sweep -
                  l.package,
              l.jobWall),
        "ratio");
}

// --- runs -----------------------------------------------------------------

struct RunArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spansPath;
  fs::path work; ///< private scratch directory of this run
};

struct RunResult {
  Report report;
  bool correct = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

std::vector<Job> jobsFor(const RunArgs& args, support::Rng& rng) {
  std::vector<Job> jobs;
  const std::size_t n = jobCount(*args.workload, args.seconds);
  for (std::size_t i = 0; i < n; ++i) jobs.push_back(args.workload->job(i));
  shuffle(jobs, rng);
  return jobs;
}

RunResult runTuneWorkload(const RunArgs& args, const Golden& golden) {
  const Workload& w = *args.workload;
  support::Rng rng(args.seed);
  const std::vector<Job> jobs = jobsFor(args, rng);
  Verdict verdict;
  const auto sessionDir = [&](const std::string& tag) {
    return w.checkpoint ? (args.work / ("session-" + tag)).string()
                        : std::string();
  };
  const auto finishSession = [&](const std::string& dir, Layers* l) {
    if (dir.empty()) return;
    if (l != nullptr) {
      l->diskBytes += directoryBytes(dir);
      l->diskJobs += 1;
    }
    fs::remove_all(dir);
  };

  SpeedProbe setupSpeed, speed;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string dir = sessionDir("warmup");
    const TuneRun warm = runTuneJob(warmupJob(), dir);
    setups.push_back(warm.wall);
    golden.check(warmupJob(), warm.outcome, "warm-up", verdict);
    finishSession(dir, nullptr);
    setupSpeed.sample();
  }

  RunResult out;
  out.attempted = jobs.size();
  Trace trace;
  Layers layers;
  std::vector<double> latencies;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    try {
      if (!args.trace) {
        const std::string dir = sessionDir(std::to_string(i));
        const TuneRun run = runTuneJob(job, dir);
        latencies.push_back(run.wall);
        golden.check(job, run.outcome, "job", verdict);
        finishSession(dir, nullptr);
        speed.sample();
        continue;
      }
      // Traced. Every other job also runs untraced, alternately before and
      // after its traced twin so warm-cache effects cancel in the overhead
      // share. The golden outcome is the untraced one, so the golden check
      // of a traced job is the traced-vs-untraced identity check.
      const std::string dir = sessionDir(std::to_string(i));
      const std::string twinDir = sessionDir(std::to_string(i) + "-u");
      const bool paired = i % 2 == 0;
      const bool probe = i % kProbeEvery == 0;
      TuneRun untraced;
      if (paired && i % 4 == 0) untraced = runTuneJob(job, twinDir);
      const TuneRun traced = runTracedJob(job, dir, static_cast<int>(i),
                                          probe, trace, layers, verdict);
      if (paired && i % 4 == 2) untraced = runTuneJob(job, twinDir);
      golden.check(job, traced.outcome, "traced job", verdict);
      if (paired) {
        layers.pairedTracedWall += traced.wall;
        layers.untracedWall += untraced.wall;
        verdict.expectEqual("traced vs untraced " + jobKey(job),
                            untraced.outcome, traced.outcome);
        finishSession(twinDir, nullptr);
      }
      if (probe && !dir.empty())
        probeSession(job, dir, args.work / "append-probe.jsonl", layers,
                     verdict);
      finishSession(dir, &layers);
      speed.sample();
    } catch (const std::exception& e) {
      std::cerr << "job " << jobKey(job) << " failed: " << e.what() << "\n";
      ++out.failed;
    }
  }

  if (args.trace) {
    addLayers(out.report, layers, speed, kPoolWorkers);
    if (!args.spansPath.empty()) trace.write(args.spansPath);
  } else {
    double busy = 0.0;
    for (double l : latencies) busy += l;
    addEndToEnd(out.report, setupSpeed, setups, speed, latencies,
                ratio(static_cast<double>(latencies.size()),
                      busy * speed.scale()));
  }
  out.correct = verdict.ok() && out.failed == 0;
  return out;
}

/// Seeded open-loop schedule: arrival i falls uniformly inside its own
/// 1/rate slot. Independent of completions like a Poisson schedule, but
/// without its bursts, which at 20 jobs per run would make latency depend
/// more on the seed than on the daemon.
std::vector<double> arrivalTimes(std::size_t n, double rate,
                                 support::Rng& rng) {
  std::vector<double> at;
  for (std::size_t i = 0; i < n; ++i)
    at.push_back((static_cast<double>(i) + rng.uniform()) / rate);
  return at;
}

Outcome serveOutcome(serve::Client& client, const std::string& id) {
  return outcomeOf(autotune::artifactFromJson(client.result(id)));
}

RunResult runServeWorkload(const RunArgs& args, const Golden& golden) {
  const Workload& w = *args.workload;
  support::Rng rng(args.seed);
  const std::vector<Job> jobs = jobsFor(args, rng);
  const std::vector<double> arrivals =
      arrivalTimes(jobs.size(), w.jobsPerSecond, rng);
  Verdict verdict;
  const fs::path state = args.work / "state";

  serve::DaemonOptions daemonOptions;
  daemonOptions.stateDir = state.string();
  daemonOptions.scheduler.workers = kServeWorkers;
  daemonOptions.scheduler.jobThreads = kServeJobThreads;
  daemonOptions.scheduler.checkpointEvery = 1;
  daemonOptions.scheduler.queueCapacity = jobs.size() + 8;

  // Set-up: daemon start on a fresh state dir, client connect, and the
  // warm-up job through the daemon. The last repetition stays up.
  SpeedProbe setupSpeed, speed;
  std::vector<double> setups;
  std::unique_ptr<serve::Daemon> daemon;
  std::unique_ptr<serve::Client> client;
  std::string warmId;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    client.reset();
    daemon.reset();
    fs::remove_all(state);
    const Clock::time_point start = Clock::now();
    daemon = std::make_unique<serve::Daemon>(daemonOptions);
    daemon->start();
    client = std::make_unique<serve::Client>("127.0.0.1", daemon->port());
    const serve::SubmitOutcome warm = client->submit(warmupJob().spec);
    MOTUNE_CHECK_MSG(warm.accepted, "warm-up submit refused: " + warm.error);
    const serve::JobInfo info = client->await(warm.id, 120.0, 0.001);
    setups.push_back(secondsSince(start));
    MOTUNE_CHECK_MSG(info.state == serve::JobState::Done,
                     "warm-up job ended " +
                         std::string(serve::jobStateName(info.state)));
    warmId = warm.id;
    golden.check(warmupJob(), serveOutcome(*client, warmId), "warm-up",
                 verdict);
    setupSpeed.sample();
  }

  // Open loop: each submit is due at its scheduled instant; lateness of
  // the generator counts toward the job's latency.
  struct Sent {
    double lateness = 0.0, rtt = 0.0;
    serve::SubmitOutcome outcome;
  };
  std::vector<Sent> sent(jobs.size());
  Trace trace;
  Layers layers;
  const Counters before = Counters::read();
  const Clock::time_point t0 = Clock::now();
  Clock::time_point lastProbe = t0;
  const auto idle = [&daemon] {
    return daemon->scheduler().activeJobs() == 0 &&
           daemon->scheduler().queueDepth() == 0;
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(arrivals[i]));
    // Speed samples only while the daemon has nothing to do, and never
    // close enough to a due submit to delay it.
    for (Clock::time_point now = Clock::now();
         now + std::chrono::milliseconds(40) < due; now = Clock::now()) {
      if (now - lastProbe > std::chrono::milliseconds(100) && idle()) {
        speed.sample();
        lastProbe = Clock::now();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    std::this_thread::sleep_until(due);
    const Clock::time_point send = Clock::now();
    const int span =
        args.trace ? trace.open("serve.Client::submit", -1, static_cast<int>(i))
                   : -1;
    sent[i].outcome =
        client->submit(jobs[i].spec, 0, /*noCache=*/!jobs[i].repeat);
    if (span >= 0) trace.close(span);
    sent[i].lateness = seconds(send - due);
    sent[i].rtt = secondsSince(send);
  }
  layers.backlog = static_cast<double>(daemon->scheduler().queueDepth() +
                                       daemon->scheduler().activeJobs());
  MOTUNE_CHECK_MSG(daemon->scheduler().drain(150.0),
                   "serve jobs did not drain within 150 s");
  Counters::read().addDeltaTo(before, layers);
  for (int k = 0; k < kSetupReps; ++k) speed.sample();

  std::map<std::string, serve::JobInfo> infos;
  for (serve::JobInfo& info : client->list()) infos[info.id] = info;

  RunResult out;
  out.attempted = jobs.size();
  std::vector<double> latencies;
  double lastCompletion = 0.0;
  std::vector<std::size_t> probeJobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Sent& s = sent[i];
    const Job& job = jobs[i];
    if (!s.outcome.accepted) {
      std::cerr << "submit " << jobKey(job) << " refused: " << s.outcome.error
                << "\n";
      ++out.failed;
      continue;
    }
    double latency = s.lateness + s.rtt;
    if (job.repeat) {
      if (!s.outcome.cached || s.outcome.id != warmId)
        verdict.fail("repeat of the warm-up spec missed the result cache");
      layers.cacheHits += s.outcome.cached ? 1 : 0;
    } else {
      const serve::JobInfo& info = infos[s.outcome.id];
      if (info.state != serve::JobState::Done) {
        std::cerr << "job " << jobKey(job) << " ended "
                  << serve::jobStateName(info.state) << ": " << info.error
                  << "\n";
        ++out.failed;
        continue;
      }
      latency += info.queueSeconds + info.runSeconds;
      layers.queueS.push_back(info.queueSeconds);
      layers.runS.push_back(info.runSeconds);
      layers.featureJobs[job.feature] += 1;
      layers.featureWall[job.feature] += info.runSeconds;
      layers.evaluations += static_cast<double>(info.evaluations);
      layers.hypervolume += info.hypervolume;
      layers.jobs += 1;
      if (job.feature == Feature::Plain) probeJobs.push_back(i);
    }
    golden.check(job, serveOutcome(*client, s.outcome.id), "serve job",
                 verdict);
    latencies.push_back(latency);
    lastCompletion = std::max(lastCompletion, arrivals[i] + latency);
    layers.rttMs.push_back(s.rtt * 1e3);
    layers.lagMs.push_back(s.lateness * 1e3);
    layers.submits += 1;
  }
  client.reset();
  daemon.reset();

  layers.storeBytes = directoryBytes(state);
  layers.diskBytes = layers.storeBytes;
  layers.diskJobs = static_cast<int>(jobs.size()) + 1;
  if (args.trace) {
    const serve::JobStore store(state.string());
    for (std::size_t k = 0;
         k < std::min(probeJobs.size(), kServeSessionProbes); ++k) {
      const std::size_t i = probeJobs[k];
      probeSession(jobs[i], store.sessionDir(sent[i].outcome.id),
                   args.work / "append-probe.jsonl", layers, verdict);
    }
    addLayers(out.report, layers, speed, kServeJobThreads);
    if (!args.spansPath.empty()) trace.write(args.spansPath);
  } else {
    addEndToEnd(out.report, setupSpeed, setups, speed, latencies,
                ratio(static_cast<double>(latencies.size()),
                      lastCompletion - arrivals.front()));
  }
  fs::remove_all(state);
  out.correct = verdict.ok() && out.failed == 0;
  return out;
}

/// Runs every golden job in-process and writes the golden file.
void writeGolden(const std::string& path) {
  support::JsonArray entries;
  for (const Job& job : goldenJobs()) {
    const Outcome o = runTuneJob(job, "").outcome;
    std::cout << jobKey(job) << " " << describe(o) << "\n";
    entries.push_back(support::JsonObject{
        {"key", jobKey(job)},
        {"kernel", job.spec.kernel},
        {"machine", job.spec.machine},
        {"seed", job.spec.seed},
        {"feature", featureName(job.feature)},
        {"evaluations", o.evaluations},
        {"hypervolume", exact(o.hypervolume)},
        {"front_size", static_cast<std::uint64_t>(o.frontSize)},
        {"front_hash", hex(o.frontHash)}});
  }
  std::ofstream out(path);
  MOTUNE_CHECK_MSG(out.good(), "cannot write " + path);
  out << support::Json(support::JsonObject{{"jobs", std::move(entries)}})
             .dump(1)
      << "\n";
}

} // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    MOTUNE_CHECK_MSG(key.rfind("--", 0) == 0 && i + 1 < argc,
                     "usage: bench_e2e --workload NAME --seed S --seconds T "
                     "--golden FILE --workdir DIR [--trace 0|1] "
                     "[--spans FILE] | --write-golden FILE --workdir DIR");
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto flag = [&flags](const std::string& name) {
    const auto it = flags.find(name);
    MOTUNE_CHECK_MSG(it != flags.end(), "missing --" + name);
    return it->second;
  };

  try {
    if (flags.count("write-golden")) {
      writeGolden(flags.at("write-golden"));
      return 0;
    }
    RunArgs args;
    args.workload = &workloadByName(flag("workload"));
    args.seed = std::stoull(flag("seed"));
    args.seconds = std::stod(flag("seconds"));
    MOTUNE_CHECK_MSG(args.seconds > 0.0 && args.seconds <= 120.0,
                     "--seconds must be in (0, 120]");
    args.trace = flags.count("trace") && flags.at("trace") == "1";
    if (flags.count("spans")) args.spansPath = flags.at("spans");
    args.work = fs::path(flag("workdir")) /
                (std::string(args.workload->name) + "-" +
                 std::to_string(::getpid()));
    fs::remove_all(args.work);
    fs::create_directories(args.work);
    const Golden golden(flag("golden"));

    RunResult result;
    try {
      result = args.workload->serve ? runServeWorkload(args, golden)
                                    : runTuneWorkload(args, golden);
    } catch (...) {
      fs::remove_all(args.work);
      throw;
    }
    fs::remove_all(args.work);
    result.report.print(args.workload->name, result.correct, result.attempted,
                        result.failed);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
