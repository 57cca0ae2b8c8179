#include "autotune/autotuner.h"

#include "core/hypervolume.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "support/check.h"
#include "tuning/island.h"
#include "tuning/seed.h"
#include "tuning/surrogate.h"
#include "tuning/validation.h"

#include <algorithm>
#include <memory>

namespace motune::autotune {

const char* algorithmName(Algorithm algorithm) {
  switch (algorithm) {
  case Algorithm::RSGDE3: return "rsgde3";
  case Algorithm::PlainGDE3: return "gde3";
  case Algorithm::NSGA2: return "nsga2";
  case Algorithm::Random: return "random";
  case Algorithm::BruteForce: return "brute-force";
  }
  return "unknown";
}

Algorithm algorithmFromName(const std::string& name) {
  std::string known;
  for (Algorithm a : {Algorithm::RSGDE3, Algorithm::PlainGDE3, Algorithm::NSGA2,
                      Algorithm::Random}) {
    if (name == algorithmName(a)) return a;
    known += (known.empty() ? "" : ", ") + std::string(algorithmName(a));
  }
  MOTUNE_CHECK_MSG(false, "unknown algorithm: " + name + " (available: " +
                              known + ")");
  return Algorithm::RSGDE3;
}

void validateOptions(const TunerOptions& options) {
  const bool gde3 = options.algorithm == Algorithm::RSGDE3 ||
                    options.algorithm == Algorithm::PlainGDE3;
  const bool surrogate =
      options.surrogateKeep < 1.0 || !options.warmStartDirs.empty();
  const bool islands = options.islands > 1 || options.islandIndex >= 0;
  const auto gde3Only = [gde3](bool used, const std::string& what) {
    MOTUNE_CHECK_MSG(gde3 || !used, what + " requires algorithm rsgde3 or "
                                           "gde3 (a GDE3-family engine)");
  };
  gde3Only(surrogate, "surrogate-keep < 1 or warm-start");
  gde3Only(islands, "islands > 1 or island-index");
  gde3Only(!options.session.directory.empty(), "checkpoint or resume");
  gde3Only(options.seedAnalytic, "seed-analytic");
  MOTUNE_CHECK_MSG(!islands || !surrogate,
                   "islands > 1 is incompatible with surrogate-keep < 1 or "
                   "warm-start (the surrogate is not shared between islands)");
  MOTUNE_CHECK_MSG(options.algorithm != Algorithm::BruteForce ||
                       options.grid.has_value(),
                   "algorithm brute-force requires a tile grid");
}

namespace {

/// The algorithm-options blob in the session header: every knob that
/// changes the deterministic search trajectory (the seed is its own header
/// field). Resume compares this verbatim against the journal's copy.
/// `islandIndex` >= 0 stamps the island identity of a per-island session
/// (src/tuning/island.h) — worker and merge invocations rebuild the same
/// blob, which is what lets them resume each other's journals.
support::Json algorithmOptionsJson(const TunerOptions& options,
                                   int islandIndex = -1) {
  const opt::GDE3Options& g = options.gde3;
  support::JsonObject blob{
      {"population", g.population},
      {"cr", g.cr},
      {"f", g.f},
      {"max_generations", g.maxGenerations},
      {"no_improve_limit", g.noImproveLimit},
      {"improve_epsilon", g.improveEpsilon},
      {"immigrants_on_stagnation", g.immigrantsOnStagnation},
      {"reduction", options.algorithm == Algorithm::RSGDE3},
  };
  // Surrogate culling changes the search trajectory, so it (and the
  // warm-start corpus that shapes its early predictions) is part of the
  // search identity. At keep == 1 the trajectory is provably unchanged,
  // and omitting the fields keeps old journals resumable byte for byte.
  if (options.surrogateKeep < 1.0) {
    blob.emplace("surrogate_keep", options.surrogateKeep);
    support::JsonArray dirs;
    for (const std::string& d : options.warmStartDirs) dirs.emplace_back(d);
    blob.emplace("warm_start", std::move(dirs));
  }
  // Initial seeds redirect where the search starts, so they are part of
  // the identity too; omitted when empty for the same reason as above.
  if (!g.initialSeeds.empty()) {
    support::JsonArray seeds;
    for (const tuning::Config& c : g.initialSeeds) {
      support::JsonArray values;
      for (std::int64_t v : c) values.emplace_back(v);
      seeds.emplace_back(std::move(values));
    }
    blob.emplace("seeds", std::move(seeds));
  }
  if (options.islands > 1) {
    blob.emplace("island",
                 support::JsonObject{
                     {"islands", options.islands},
                     {"index", islandIndex},
                     {"migrate_every", options.migrateEvery},
                     {"migrants", options.islandMigrants},
                 });
  }
  return blob;
}

/// Builds (when enabled) the surrogate for one optimize call and pre-trains
/// it from any warm-start journals whose header passes the relaxed
/// warmStartCompatible fingerprint. Incompatible journals are skipped, not
/// fatal — a stale directory of unrelated sessions should not kill a run —
/// but a directory without a journal is an operator error.
std::unique_ptr<tuning::Surrogate>
makeSurrogate(const TunerOptions& options, tuning::ObjectiveFunction& fn,
              const std::string& problemTag) {
  if (options.surrogateKeep >= 1.0 && options.warmStartDirs.empty())
    return nullptr;
  auto surrogate = std::make_unique<tuning::Surrogate>(
      fn.space(), fn.numObjectives());

  session::SessionHeader current;
  current.problem = problemTag;
  current.objectives = fn.numObjectives();
  current.space = fn.space();
  auto& metrics = observe::MetricsRegistry::global();
  for (const std::string& dir : options.warmStartDirs) {
    MOTUNE_CHECK_MSG(session::sessionExists(dir),
                     "warm-start directory has no session journal: " + dir);
    const session::ResumeState state = session::loadSession(dir);
    if (!session::warmStartCompatible(state.header, current)) {
      metrics.counter("tuning.surrogate.warmstart.skipped").add();
      continue;
    }
    for (const session::EvalRecord& e : state.evaluations)
      surrogate->observe(e.config, e.objectives);
    metrics.counter("tuning.surrogate.warmstart.evaluations")
        .add(state.evaluations.size());
    metrics.counter("tuning.surrogate.warmstart.journals").add();
  }
  return surrogate;
}

} // namespace

AutoTuner::AutoTuner(TunerOptions options)
    : options_(std::move(options)),
      pool_(std::make_unique<runtime::ThreadPool>(
          options_.evaluationWorkers)) {
  validateOptions(options_);
}

opt::OptResult AutoTuner::optimize(tuning::ObjectiveFunction& fn) {
  return optimizeImpl(fn, "custom", nullptr);
}

opt::OptResult
AutoTuner::optimizeImpl(tuning::ObjectiveFunction& fn,
                        const std::string& problemTag,
                        std::optional<SessionProvenance>* provenance) {
  observe::Span span = observe::Tracer::global().span(
      "autotune.optimize",
      {{"algorithm", support::Json(algorithmName(options_.algorithm))}});

  // The evaluation path the search engine sees: objective function, then
  // (tests/CI only) the deterministic fault injector, then the fault
  // tolerance wrapper. The engine's own memoizing CountingEvaluator sits
  // on top, so retries and fallbacks happen per unique configuration.
  tuning::ObjectiveFunction* target = &fn;
  std::optional<tuning::FaultInjectingEvaluator> injector;
  if (std::optional<tuning::FaultSpec> spec = tuning::FaultSpec::fromEnv()) {
    injector.emplace(*target, std::move(*spec));
    target = &*injector;
  }
  std::optional<tuning::FaultTolerantEvaluator> tolerant;
  if (options_.fault.enabled) {
    tolerant.emplace(*target, options_.fault, options_.faultFallback);
    target = &*tolerant;
  }

  // Cancellation/progress hooks for hook-less (non-session) GDE3-family
  // runs.
  opt::RunHooks stopOnly;
  stopOnly.shouldStop = options_.stopRequested;
  stopOnly.onGeneration = options_.onProgress;
  const opt::RunHooks* stopHooks =
      options_.stopRequested || options_.onProgress ? &stopOnly : nullptr;

  // Surrogate pre-ranking: built per optimize call (it is trained on this
  // problem's evaluations) and handed to the engine by pointer, so it must
  // outlive the engine below.
  const std::unique_ptr<tuning::Surrogate> surrogate =
      makeSurrogate(options_, fn, problemTag);
  opt::GDE3Options gde3 = options_.gde3;
  if (surrogate) {
    gde3.surrogate = surrogate.get();
    gde3.surrogateKeep = options_.surrogateKeep;
  }

  if (options_.islands > 1 || options_.islandIndex >= 0) {
    tuning::IslandOptions io;
    io.islands = options_.islands;
    io.migrateEvery = options_.migrateEvery;
    io.migrants = options_.islandMigrants;
    io.islandIndex = options_.islandIndex;
    io.directory = options_.session.directory;
    io.checkpointEvery = options_.session.checkpointEvery;
    io.resume = options_.session.resume;
    io.reduction = options_.algorithm == Algorithm::RSGDE3;
    io.gde3 = gde3;
    io.seeds = gde3.initialSeeds;
    io.stopRequested = options_.stopRequested;
    io.onProgress = options_.onProgress;
    io.makeHeader = [this, &fn, &problemTag](int island,
                                             std::uint64_t islandSeed) {
      session::SessionHeader h;
      h.problem = problemTag;
      h.algorithm = algorithmName(options_.algorithm);
      h.seed = islandSeed;
      h.objectives = fn.numObjectives();
      h.space = fn.space();
      h.algorithmOptions = algorithmOptionsJson(options_, island);
      return h;
    };
    tuning::IslandRun run = tuning::runIslands(*target, *pool_, io);
    if (provenance != nullptr && !io.directory.empty()) {
      SessionProvenance p;
      p.journal = run.journal;
      p.checkpoints = run.checkpoints;
      p.resumes = run.resumes;
      p.recordedEvaluations = run.recordedEvaluations;
      *provenance = std::move(p);
    }
    return run.merged;
  }

  const bool useSession = !options_.session.directory.empty();
  if (!useSession) {
    switch (options_.algorithm) {
    case Algorithm::RSGDE3: {
      opt::RSGDE3 engine(*target, *pool_, {gde3, true});
      return engine.run(stopHooks);
    }
    case Algorithm::PlainGDE3: {
      opt::RSGDE3 engine(*target, *pool_, {gde3, false});
      return engine.run(stopHooks);
    }
    case Algorithm::NSGA2: {
      opt::NSGA2 engine(*target, *pool_, options_.nsga2);
      return engine.run();
    }
    case Algorithm::Random: {
      opt::RandomSearch engine(*target, *pool_,
                               {options_.randomBudget, options_.gde3.seed, true});
      return engine.run();
    }
    case Algorithm::BruteForce: {
      opt::GridSearch engine(*target, *pool_, *options_.grid);
      return engine.run();
    }
    }
    MOTUNE_CHECK_MSG(false, "unknown algorithm");
    return {};
  }

  // Sessions journal serialized engine state, which only the GDE3-family
  // engines expose (validateOptions enforces it).
  const bool reduction = options_.algorithm == Algorithm::RSGDE3;

  session::SessionHeader header;
  header.problem = problemTag;
  header.algorithm = algorithmName(options_.algorithm);
  header.seed = options_.gde3.seed;
  header.objectives = fn.numObjectives();
  header.space = fn.space();
  header.algorithmOptions = algorithmOptionsJson(options_);

  opt::RSGDE3 engine(*target, *pool_, {gde3, reduction});

  std::optional<session::ResumeState> resumed;
  std::unique_ptr<session::SessionWriter> writer;
  if (options_.session.resume) {
    resumed = session::loadSession(options_.session.directory);
    MOTUNE_CHECK_MSG(!resumed->finished,
                     "session in " + options_.session.directory +
                         " already ran to completion; nothing to resume");
    session::checkCompatible(resumed->header, header);
    // Pre-seed the memo: replayed generations between the last checkpoint
    // and the kill re-request the same configurations deterministically
    // and hit these entries, keeping the evaluation count E exact.
    for (const session::EvalRecord& e : resumed->evaluations)
      engine.engine().evaluator().preload(e.config, e.objectives);
    writer = std::make_unique<session::SessionWriter>(
        options_.session.directory, *resumed);
  } else {
    writer = std::make_unique<session::SessionWriter>(
        options_.session.directory, header);
  }
  engine.engine().evaluator().setListener(
      [&writer](std::span<const tuning::CountingEvaluator::Entry* const>
                    batch) { writer->recordEvaluations(batch); });

  opt::RunHooks hooks;
  hooks.checkpointEvery = options_.session.checkpointEvery;
  opt::EncodeMemo memo; // consecutive checkpoints share most of their text
  hooks.checkpoint = [&writer, &memo](const opt::RSGDE3& search,
                                      int generation) {
    writer->recordCheckpoint(
        generation, search.engine().evaluations(),
        [&](std::string& out) { search.encodeState(out, &memo); });
  };
  hooks.shouldStop = options_.stopRequested;
  hooks.onGeneration = options_.onProgress;
  if (resumed.has_value() && resumed->checkpoint.has_value())
    hooks.resumeState = &*resumed->checkpoint;

  opt::OptResult result = engine.run(&hooks);
  // A cancelled run gets no finish record: the journal stays resumable in
  // case the cancellation is operator error, and the serve layer marks the
  // job cancelled through its own store.
  if (!options_.stopRequested || !options_.stopRequested())
    writer->recordFinish(result.evaluations, result.front.size(),
                         result.hvHistory.empty() ? 0.0
                                                  : result.hvHistory.back());

  if (provenance != nullptr) {
    SessionProvenance p;
    p.journal = writer->path();
    p.checkpoints =
        (resumed ? resumed->checkpoints : 0) + writer->checkpointsWritten();
    p.resumes = resumed ? resumed->resumes + 1 : 0;
    p.recordedEvaluations =
        (resumed ? resumed->evaluations.size() : 0) +
        writer->evaluationsRecorded();
    *provenance = std::move(p);
  }
  return result;
}

double scoreHypervolume(const std::vector<opt::Individual>& front,
                        double timeRef, double resourceRef) {
  MOTUNE_CHECK(timeRef > 0.0 && resourceRef > 0.0);
  const opt::HypervolumeMetric metric({timeRef, resourceRef});
  return metric.ofFront(front);
}

std::uint64_t threadSweepRefinement(tuning::KernelTuningProblem& problem,
                                    opt::OptResult& result) {
  observe::Span span =
      observe::Tracer::global().span("autotune.thread_sweep");
  const auto& space = problem.space();
  const std::size_t tileDims = problem.skeleton().tileDepth();
  const auto maxThreads = space.back().hi;

  // Distinct tile settings on the current front, ascending.
  std::vector<tuning::Config> tiles;
  tiles.reserve(result.front.size());
  for (const auto& ind : result.front)
    tiles.emplace_back(ind.config.begin(),
                       ind.config.begin() +
                           static_cast<std::ptrdiff_t>(tileDims));
  std::sort(tiles.begin(), tiles.end());
  tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
  // The population's configs, sorted for lookup. A sweep config is new
  // unless the population has it: distinct tiles or thread counts never
  // collide with each other.
  std::vector<const tuning::Config*> evaluated;
  evaluated.reserve(result.population.size());
  for (const auto& ind : result.population) evaluated.push_back(&ind.config);
  const auto byConfig = [](const tuning::Config* a, const tuning::Config* b) {
    return *a < *b;
  };
  std::sort(evaluated.begin(), evaluated.end(), byConfig);

  // Each tile vector is lowered once for all of its new thread counts.
  // The candidates' objectives follow the front's in one flat table, so
  // the new front is ranked without building a dominated candidate.
  struct Candidate {
    std::size_t tile;
    std::int64_t threads;
  };
  std::vector<Candidate> candidates;
  std::vector<double> flat;
  const std::size_t m = result.front.empty()
                            ? 0
                            : result.front.front().objectives.size();
  for (const auto& ind : result.front)
    flat.insert(flat.end(), ind.objectives.begin(), ind.objectives.end());
  std::vector<std::int64_t> threads;
  tuning::Config config;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    threads.clear();
    config = tiles[t];
    config.push_back(0);
    for (std::int64_t p = 1; p <= maxThreads; ++p) {
      config.back() = p;
      if (!std::binary_search(evaluated.begin(), evaluated.end(), &config,
                              byConfig))
        threads.push_back(p);
    }
    const std::vector<tuning::Objectives> objectives =
        problem.evaluateThreadCounts(tiles[t], threads);
    for (std::size_t k = 0; k < threads.size(); ++k) {
      MOTUNE_CHECK(objectives[k].size() == m);
      flat.insert(flat.end(), objectives[k].begin(), objectives[k].end());
      candidates.push_back({t, threads[k]});
    }
  }
  const std::uint64_t extra = candidates.size();

  // The first front of front + candidates, ascending, without repeating a
  // config (the earliest copy stays): the old front's members, then the
  // non-dominated candidates in sweep order.
  std::vector<opt::Individual> front;
  if (m > 0) {
    opt::ParetoRanking ranking;
    ranking.rank(flat, m, 1);
    for (std::size_t i : ranking.front(0)) {
      opt::Individual ind;
      if (i < result.front.size()) {
        ind = std::move(result.front[i]);
      } else {
        const Candidate& c = candidates[i - result.front.size()];
        ind.config = tiles[c.tile];
        ind.config.push_back(c.threads);
        ind.genome.assign(ind.config.begin(), ind.config.end());
        ind.objectives.assign(flat.begin() + static_cast<std::ptrdiff_t>(i * m),
                              flat.begin() +
                                  static_cast<std::ptrdiff_t>(i * m + m));
      }
      if (std::none_of(front.begin(), front.end(),
                       [&](const opt::Individual& kept) {
                         return kept.config == ind.config;
                       }))
        front.push_back(std::move(ind));
    }
  }
  result.front = std::move(front);
  result.evaluations += extra;
  span.setAttr("tiles", support::Json(tiles.size()));
  span.setAttr("extra_evaluations", support::Json(extra));
  span.setAttr("front_size", support::Json(result.front.size()));
  observe::MetricsRegistry::global()
      .counter("tuning.sweep.evaluations")
      .add(extra);
  return extra;
}

TuningResult AutoTuner::tune(tuning::KernelTuningProblem& problem) {
  // The run-level span stitching the whole pipeline together: search,
  // thread-sweep refinement, scoring. Sub-spans (rsgde3.run,
  // gde3.generation, autotune.thread_sweep) nest beneath it.
  observe::Span span = observe::Tracer::global().span(
      "autotune.tune",
      {{"kernel", support::Json(problem.kernel().name)},
       {"machine", support::Json(problem.machine().name)},
       {"n", support::Json(problem.problemSize())},
       {"algorithm", support::Json(algorithmName(options_.algorithm))}});
  TuningResult out;
  // Session-header tag: every problem parameter that must match on resume.
  std::string problemTag = problem.kernel().name + "/" +
                           problem.machine().name + "/n" +
                           std::to_string(problem.problemSize());
  for (tuning::Objective obj : problem.objectives())
    problemTag += "/" + std::string(tuning::objectiveName(obj));
  // Analytic seeding: derived from the performance model before the search
  // starts, stashed into the engine options so both the engine and the
  // session header (algorithmOptionsJson) see the same seed list.
  if (options_.seedAnalytic) {
    options_.gde3.initialSeeds = tuning::analyticSeeds(problem);
    observe::MetricsRegistry::global()
        .counter("tuning.seed.analytic")
        .add(options_.gde3.initialSeeds.size());
  }
  out.raw = optimizeImpl(problem, problemTag, &out.session);
  // Worker-mode island invocations produce a provisional single-island
  // snapshot; the merge invocation refines and scores the real front.
  const bool islandWorker = options_.islandIndex >= 0;
  if (!islandWorker &&
      (options_.algorithm == Algorithm::RSGDE3 ||
       options_.algorithm == Algorithm::PlainGDE3 ||
       options_.algorithm == Algorithm::NSGA2))
    threadSweepRefinement(problem, out.raw);
  out.evaluations = out.raw.evaluations;

  // Normalization for V(S): the untiled serial region is the "worst
  // reasonable" baseline per objective (resource usage capped at twice the
  // serial cost — the efficiency >= 0.5 band; energy at twice the serial
  // energy). Fixed per (kernel, machine), so brute force, random search
  // and RS-GDE3 are scored on the same scale.
  const perf::Prediction baseline = problem.untiledSerialPrediction();
  out.timeRef = baseline.seconds;
  out.resourceRef = 2.0 * baseline.seconds;
  {
    tuning::Objectives worst;
    for (tuning::Objective obj : problem.objectives()) {
      switch (obj) {
      case tuning::Objective::Time: worst.push_back(out.timeRef); break;
      case tuning::Objective::Resources:
        worst.push_back(out.resourceRef);
        break;
      case tuning::Objective::Energy:
        worst.push_back(2.0 * baseline.joules);
        break;
      }
    }
    const opt::HypervolumeMetric metric(std::move(worst));
    out.hypervolume = metric.ofFront(out.raw.front);
  }

  // Version metadata is derived from the full cost breakdown, so it stays
  // complete whatever objective subset drove the search.
  const std::size_t tileDims = problem.skeleton().tileDepth();
  for (const opt::Individual& ind : out.raw.front) {
    const perf::Prediction pred = problem.predictFull(ind.config);
    mv::VersionMeta meta;
    meta.configuration = ind.config;
    meta.tileSizes.assign(ind.config.begin(),
                          ind.config.begin() + static_cast<std::ptrdiff_t>(tileDims));
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

  // One event per front member so a trace alone can rebuild the Pareto
  // table (report's "Final Pareto front" section).
  observe::Tracer& tracer = observe::Tracer::global();
  if (tracer.enabled()) {
    for (const mv::VersionMeta& meta : out.front) {
      std::string tiles;
      for (std::int64_t t : meta.tileSizes)
        tiles += (tiles.empty() ? "" : "x") + std::to_string(t);
      tracer.event("autotune.front_version",
                   {{"tiles", support::Json(tiles)},
                    {"threads", support::Json(meta.threads)},
                    {"time_s", support::Json(meta.timeSeconds)},
                    {"resources", support::Json(meta.resources)},
                    {"joules", support::Json(meta.joules)}});
    }
  }

  if (options_.validateFront) {
    std::vector<tuning::Config> configs;
    for (const opt::Individual& ind : out.raw.front)
      configs.push_back(ind.config);
    const auto samples = tuning::validateAgainstCachesim(
        problem.kernel(), problem.machine(), configs,
        {options_.validateMax, 0});
    auto& metrics = observe::MetricsRegistry::global();
    for (const tuning::ValidationSample& s : samples) {
      std::string configStr;
      for (std::int64_t v : s.config)
        configStr += (configStr.empty() ? "" : "x") + std::to_string(v);
      metrics.histogram("tuning.validation.dram_ratio").observe(s.dramRatio);
      if (tracer.enabled())
        tracer.event(
            "eval.validate",
            {{"config", support::Json(configStr)},
             {"n", support::Json(s.n)},
             {"model_dram_mb", support::Json(s.modelDramBytes / 1e6)},
             {"sim_dram_mb", support::Json(s.simDramBytes / 1e6)},
             {"dram_ratio", support::Json(s.dramRatio)},
             {"model_seconds", support::Json(s.modelSeconds)},
             {"sim_seconds", support::Json(s.simSeconds)}});
    }
    metrics.counter("tuning.validation.samples").add(samples.size());
  }

  span.setAttr("evaluations", support::Json(out.evaluations));
  span.setAttr("front_size", support::Json(out.front.size()));
  span.setAttr("hypervolume", support::Json(out.hypervolume));
  span.setAttr("generations", support::Json(out.raw.generations));
  auto& metrics = observe::MetricsRegistry::global();
  metrics.gauge("autotune.hypervolume").set(out.hypervolume);
  metrics.gauge("autotune.evaluations")
      .set(static_cast<double>(out.evaluations));
  metrics.gauge("autotune.front_size")
      .set(static_cast<double>(out.front.size()));
  return out;
}

} // namespace motune::autotune
