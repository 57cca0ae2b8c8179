#include "core/rsgde3.h"

#include "core/roughset.h"
#include "observe/trace.h"
#include "support/check.h"

namespace motune::opt {

namespace {

constexpr int kStateVersion = 2; ///< 1 carried the evaluation archive

GDE3Options innerOptions(const RSGDE3Options& options, int maxGenerations) {
  GDE3Options inner = options.gde3;
  inner.maxGenerations = maxGenerations;
  return inner;
}

} // namespace

RSGDE3::RSGDE3(tuning::ObjectiveFunction& fn, runtime::ThreadPool& pool,
               RSGDE3Options options)
    : options_(options),
      maxGenerations_(options.maxTotalGenerations > 0
                          ? options.maxTotalGenerations
                          : options.gde3.maxGenerations),
      full_(tuning::Boundary::fromSpace(fn.space())),
      engine_(fn, pool, innerOptions(options, maxGenerations_)) {}

/// Rebuilds the reduced boundary and reports the reduction to the trace.
void RSGDE3::reduceAndRecord() {
  roughSetReduce(engine_.population(), engine_.firstFront(), full_, reduced_);
  engine_.setBoundary(reduced_);
  observe::Tracer& tracer = observe::Tracer::global();
  if (!tracer.enabled()) return;
  const double volume = engine_.boundary().volume();
  const double fullVolume = full_.volume();
  tracer.event("roughset.reduce",
               {{"gen", support::Json(engine_.generationsDone())},
                {"boundary_volume", support::Json(volume)},
                {"volume_fraction",
                 support::Json(fullVolume > 0 ? volume / fullVolume : 0.0)}});
}

void RSGDE3::encodeState(std::string& out, EncodeMemo* memo) const {
  // Keys in the sorted order Json::dump(-1) writes.
  out += R"({"flat":)";
  support::numberTo(flat_, out);
  out += R"(,"format":"motune-rsgde3-state","gde3":)";
  engine_.encodeState(out, memo);
  out += R"(,"version":)";
  support::numberTo(kStateVersion, out);
  out += '}';
}

support::Json RSGDE3::serialize() const {
  std::string text;
  encodeState(text);
  return support::Json::parse(text);
}

void RSGDE3::restore(const support::Json& state) {
  MOTUNE_CHECK_MSG(state.has("format") && state.at("format").asString() ==
                                              "motune-rsgde3-state",
                   "not an RS-GDE3 checkpoint");
  const std::int64_t version = state.at("version").asInt();
  MOTUNE_CHECK_MSG(version == kStateVersion,
                   "cannot resume an RS-GDE3 checkpoint of version " +
                       std::to_string(version) +
                       "; start a fresh `--checkpoint` directory");
  flat_ = static_cast<int>(state.at("flat").asInt());
  engine_.restore(state.at("gde3"));
}

OptResult RSGDE3::run(const RunHooks* hooks) {
  observe::Span span = observe::Tracer::global().span(
      "rsgde3.run",
      {{"reduction", support::Json(options_.reductionEnabled)},
       {"max_generations", support::Json(maxGenerations_)},
       {"resumed", support::Json(hooks != nullptr &&
                                 hooks->resumeState != nullptr)}});
  begin(hooks);
  while (nextGeneration()) endGeneration();
  OptResult result = end();
  span.setAttr("generations", support::Json(result.generations));
  span.setAttr("evaluations", support::Json(result.evaluations));
  span.setAttr("front_size", support::Json(result.front.size()));
  return result;
}

void RSGDE3::begin(const RunHooks* hooks) {
  hooks_ = hooks;
  sinceCheckpoint_ = 0;
  if (hooks_ != nullptr && hooks_->resumeState != nullptr) {
    restore(*hooks_->resumeState);
    return;
  }
  flat_ = 0;
  engine_.initialize();
  if (options_.reductionEnabled) reduceAndRecord();
  // Generation-0 checkpoint: a kill during the very first generation
  // resumes without repeating the initial population's evaluations.
  if (hooks_ != nullptr && hooks_->checkpoint)
    hooks_->checkpoint(*this, 0);
}

// Loop of Fig. 4: one GDE3 generation, then rebuild the reduced search
// space from the new population; terminate when generations stop
// improving the solution set.
bool RSGDE3::nextGeneration() {
  if (flat_ >= options_.gde3.noImproveLimit ||
      engine_.generationsDone() >= maxGenerations_)
    return false;
  if (hooks_ != nullptr && hooks_->shouldStop && hooks_->shouldStop())
    return false;
  flat_ = engine_.step() ? 0 : flat_ + 1;
  if (hooks_ != nullptr && hooks_->onGeneration) {
    GenerationProgress progress;
    progress.generation = engine_.generationsDone();
    progress.hypervolume = engine_.bestHypervolume();
    progress.genHypervolume = engine_.lastHypervolume();
    progress.frontSize = engine_.lastFrontSize();
    progress.evaluations = engine_.evaluations();
    hooks_->onGeneration(progress);
  }
  return true;
}

void RSGDE3::endGeneration() {
  if (options_.reductionEnabled) reduceAndRecord();
  if (hooks_ == nullptr || !hooks_->checkpoint) return;
  const int every = hooks_->checkpointEvery > 0 ? hooks_->checkpointEvery : 1;
  if (++sinceCheckpoint_ >= every) {
    hooks_->checkpoint(*this, engine_.generationsDone());
    sinceCheckpoint_ = 0;
  }
}

OptResult RSGDE3::end() {
  if (hooks_ != nullptr && hooks_->checkpoint && sinceCheckpoint_ > 0)
    hooks_->checkpoint(*this, engine_.generationsDone());
  sinceCheckpoint_ = 0;
  return engine_.release();
}

} // namespace motune::opt
