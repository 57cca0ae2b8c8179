// Public facade: the compiler driver of the paper's architecture (Fig. 3).
//
// Typical use (see examples/quickstart.cpp):
//
//   auto machine = machine::westmere();
//   tuning::KernelTuningProblem problem(kernels::kernelByName("mm"), machine);
//   autotune::AutoTuner tuner;                       // RS-GDE3 by default
//   autotune::TuningResult result = tuner.tune(problem);
//   mv::VersionTable table = autotune::buildVersionTable(result, problem);
//   runtime::Region region(table);
//   runtime::WeightedSumPolicy policy(0.7, 0.3);
//   region.invoke(policy);
#pragma once

#include "core/gde3.h"
#include "core/grid_search.h"
#include "core/nsga2.h"
#include "core/random_search.h"
#include "core/rsgde3.h"
#include "multiversion/version_table.h"
#include "session/session.h"
#include "tuning/fault.h"
#include "tuning/kernel_problem.h"

#include <optional>

namespace motune::autotune {

enum class Algorithm {
  RSGDE3,     ///< the paper's optimizer (default)
  PlainGDE3,  ///< GDE3 without rough-set reduction (ablation)
  NSGA2,      ///< NSGA-II comparator (ablation)
  Random,     ///< random-search baseline (paper §V.B.3)
  BruteForce, ///< restricted-grid exhaustive search (paper §V.B.1)
};

struct TunerOptions {
  Algorithm algorithm = Algorithm::RSGDE3;
  opt::GDE3Options gde3;          ///< used by RSGDE3 / PlainGDE3
  opt::NSGA2Options nsga2;        ///< used by NSGA2
  std::uint64_t randomBudget = 1000;
  std::optional<opt::GridSpec> grid; ///< required for BruteForce
  unsigned evaluationWorkers = 0;    ///< 0 = hardware concurrency
  /// Replay the final front at the kernel's miniature size and compare the
  /// analytical prediction against the cache simulator; the comparisons are
  /// emitted as `eval.validate` trace events (`motune report` renders
  /// them). Off by default: the simulation is trace-granular.
  bool validateFront = false;
  std::size_t validateMax = 8; ///< cap on simulated configurations
  /// Durable sessions (`motune tune --checkpoint DIR [--resume]`): journal
  /// every unique evaluation plus periodic engine checkpoints so a killed
  /// run resumes bit-identically. Only RS-GDE3 / plain GDE3 are
  /// checkpointable; other algorithms reject a non-empty directory.
  session::SessionOptions session;
  /// Fault tolerance for the evaluation path (retry, timeout, quarantine);
  /// inert unless `fault.enabled`.
  tuning::FaultPolicy fault;
  /// Optional degradation target when the primary evaluator is exhausted
  /// or quarantined (typically the analytical model behind a native
  /// evaluator). Must outlive the tuner. Ignored unless `fault.enabled`.
  tuning::ObjectiveFunction* faultFallback = nullptr;
  /// Cooperative cancellation, polled between generations (GDE3-family
  /// engines only — the other strategies run to completion). When it
  /// returns true the search stops after the current generation and
  /// returns its partial snapshot; the serve daemon uses this to cancel
  /// running jobs without tearing down worker threads.
  std::function<bool()> stopRequested;
  /// Live per-generation telemetry (GDE3-family engines only), forwarded
  /// from opt::RunHooks::onGeneration. Runs on the search thread between
  /// generations — must be cheap and never block (the daemon uses it to
  /// publish progress frames to subscribers).
  std::function<void(const opt::GenerationProgress&)> onProgress;
  /// Surrogate-assisted evaluation (GDE3-family engines only). When the
  /// keep fraction is below 1, each generation's trial offspring are scored
  /// by an online ridge surrogate (src/tuning/surrogate.h) and only the top
  /// ceil(keep * population) receive a full cost-model evaluation. The
  /// surrogate exists exactly when keep < 1 or warmStartDirs is non-empty;
  /// at keep == 1 it culls nothing, so results are byte-identical to a
  /// surrogate-free run.
  double surrogateKeep = 1.0;
  /// Session directories whose journaled eval records pre-train the
  /// surrogate before the search starts (cross-session warm start).
  /// Each directory must hold a journal; incompatible journals (different
  /// problem/space/objectives — see session::warmStartCompatible) are
  /// skipped and counted in tuning.surrogate.warmstart.skipped.
  std::vector<std::string> warmStartDirs;
  /// Analytic seeding (`motune tune --seed-analytic`, src/tuning/seed.h):
  /// tune() derives cache-capacity-constrained starting configurations
  /// from the performance model and injects them into the initial GDE3
  /// population (GDE3 family only; optimize() has no kernel model and
  /// ignores the flag). Deterministic — the seeds become part of the
  /// session header, so resumes validate them.
  bool seedAnalytic = false;
  /// Island-model distributed search (`motune tune --islands N`,
  /// src/tuning/island.h; GDE3 family only, mutually exclusive with
  /// surrogate culling). islands > 1 runs that many independent searches
  /// (in-process threads, or one worker process per island via
  /// islandIndex) exchanging migrants on a deterministic ring; the result
  /// is the merged Pareto front.
  int islands = 1;
  int migrateEvery = 5;          ///< generations between migration rounds
  std::size_t islandMigrants = 3; ///< emigrants per island per round
  /// Worker-process mode: run only this island (>= 0) against the shared
  /// session directory; a later `--islands N --resume` invocation merges
  /// the finished islands. Requires a session directory.
  int islandIndex = -1;
};

/// The algorithm's name in flags, job specs and session headers, and its
/// inverse over the names tune and submit accept (all but brute-force,
/// which needs a grid); the inverse throws, listing them, on any other.
const char* algorithmName(Algorithm algorithm);
Algorithm algorithmFromName(const std::string& name);

/// The cross-option rules (GDE3-family-only features, islands vs the
/// surrogate, brute force's grid), naming options as `motune tune` does.
/// AutoTuner's constructor and serve::validateSpec run it.
void validateOptions(const TunerOptions& options);

/// Where a tuning result came from when it ran under a session — recorded
/// in the artifact so a deployment can trace a front back to its journal.
struct SessionProvenance {
  std::string journal;               ///< path of the session journal
  std::uint64_t checkpoints = 0;     ///< checkpoint records, all runs
  int resumes = 0;                   ///< times the session was resumed
  std::uint64_t recordedEvaluations = 0; ///< journaled unique evaluations
};

/// Tuning outcome: the Pareto set with metadata plus the comparison metrics
/// of Table VI (|S|, E, V(S)).
struct TuningResult {
  opt::OptResult raw;
  std::vector<mv::VersionMeta> front; ///< sorted by predicted time
  std::uint64_t evaluations = 0;      ///< E
  double hypervolume = 0.0;           ///< V(S), normalized (see below)
  double timeRef = 0.0;               ///< normalization: untiled serial time
  double resourceRef = 0.0;           ///< normalization: 2x untiled serial
  std::optional<SessionProvenance> session; ///< set when a session ran
};

class AutoTuner {
public:
  explicit AutoTuner(TunerOptions options = {});

  /// Runs the configured search strategy on `problem` and packages the
  /// Pareto set for the multi-versioning backend.
  TuningResult tune(tuning::KernelTuningProblem& problem);

  /// Same, for an arbitrary objective function (no version metadata
  /// enrichment beyond the raw configs).
  opt::OptResult optimize(tuning::ObjectiveFunction& fn);

  const TunerOptions& options() const { return options_; }

private:
  /// Search dispatch with optional session journaling and fault wrapping.
  /// `problemTag` identifies the search in the session header; `provenance`
  /// (may be null) receives the session summary when one ran.
  opt::OptResult optimizeImpl(tuning::ObjectiveFunction& fn,
                              const std::string& problemTag,
                              std::optional<SessionProvenance>* provenance);

  TunerOptions options_;
  std::unique_ptr<runtime::ThreadPool> pool_;
};

/// Normalized V(S) for an arbitrary front under the same reference scheme
/// AutoTuner uses — lets benches score brute-force/random fronts
/// identically (comparability across optimizers, paper §V.B.3).
double scoreHypervolume(const std::vector<opt::Individual>& front,
                        double timeRef, double resourceRef);

/// Parallelism-aware refinement (an extension beyond the paper's search):
/// every distinct tile setting on the front is re-evaluated at every thread
/// count, and the front is rebuilt. On the Pareto front of (time,
/// threads x time) each useful thread count contributes one point (paper
/// §V.B.2), so good tile settings discovered at one count usually extend
/// the front at many others. The extra evaluations are added to
/// `result.evaluations`, keeping equal-budget comparisons fair. Returns the
/// number of evaluations performed.
std::uint64_t threadSweepRefinement(tuning::KernelTuningProblem& problem,
                                    opt::OptResult& result);

} // namespace motune::autotune
