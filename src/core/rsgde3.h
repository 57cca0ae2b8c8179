// RS-GDE3: the paper's novel multi-objective optimization algorithm
// (§III.B, Fig. 4) — GDE3 generations interleaved with rough-set search
// space reduction. Each iteration generates new configurations with GDE3
// inside the current boundary, then rebuilds the boundary from the new
// population ("we continuously update the reduced search space ... to
// gradually steer the search towards the area where the optimal Pareto set
// is located"). Terminates when results stop improving.
//
// The engine is checkpointable: encodeState() writes the complete search
// state as JSON text (delegating to GDE3::encodeState for population/front/
// RNG, plus the stagnation counter), and run() accepts RunHooks so a
// persistence layer (src/session/) can journal state between generations
// and resume a killed search bit-identically — without core depending on
// any file I/O.
#pragma once

#include "core/gde3.h"

#include <functional>

namespace motune::opt {

struct RSGDE3Options {
  GDE3Options gde3;
  bool reductionEnabled = true; ///< false = plain GDE3 (ablation switch)
  int maxTotalGenerations = 0; ///< hard generation cap; 0 = inherit
                               ///< gde3.maxGenerations
};

/// Per-generation progress snapshot handed to RunHooks::onGeneration —
/// the live-streaming payload (daemon subscribe verb, `motune top`).
struct GenerationProgress {
  int generation = 0;
  double hypervolume = 0.0;    ///< best population-front HV so far
  double genHypervolume = 0.0; ///< this generation's HV
  std::size_t frontSize = 0;   ///< front size after this generation
  std::uint64_t evaluations = 0;
};

class RSGDE3;

/// Checkpoint/resume callbacks for RSGDE3::run() and begin(). The caller
/// decides where the state lives: the checkpoint hook receives the engine
/// and has it encode its state wherever it writes (the session journal
/// encodes it straight into one JSONL record per checkpoint, through an
/// EncodeMemo the hook's owner keeps); a resume hands the parsed state
/// back.
struct RunHooks {
  /// Invoked after initialization and after every checkpointEvery-th
  /// generation (plus the final one); engine.encodeState() appends the
  /// state's JSON text.
  std::function<void(const RSGDE3& engine, int generation)> checkpoint;
  int checkpointEvery = 1;
  /// When set, run() restores this state instead of initializing — the
  /// engine continues exactly where the serialized search stopped.
  const support::Json* resumeState = nullptr;
  /// Cooperative stop: polled between generations. Returning true ends the
  /// run after the current generation (a final checkpoint is still
  /// written), so a serving layer can cancel an in-flight search without
  /// tearing down its thread. The snapshot returned is the usual partial
  /// result — callers that cancel typically discard it.
  std::function<bool()> shouldStop;
  /// Live telemetry: invoked after every completed generation with the
  /// current search trajectory. Must be cheap and non-blocking — it runs
  /// on the search thread between generations.
  std::function<void(const GenerationProgress&)> onGeneration;
};

class RSGDE3 {
public:
  RSGDE3(tuning::ObjectiveFunction& fn, runtime::ThreadPool& pool,
         RSGDE3Options options = {});

  /// begin(), every generation, then end(): the engine is spent after it.
  OptResult run(const RunHooks* hooks = nullptr);

  /// run() one generation at a time, for a caller that acts between a
  /// generation and its rough-set reduction, as the island model does at
  /// its migration rounds (src/tuning/island.h): begin(), then
  /// nextGeneration() and endGeneration() in turn until nextGeneration()
  /// returns false, then end(). Migrating before endGeneration() puts the
  /// migration before the generation's checkpoint, so a resumed island
  /// repeats an unpersisted migration exactly. `hooks` must outlive end().
  void begin(const RunHooks* hooks = nullptr);
  /// Runs one generation and its onGeneration hook; false, running
  /// nothing, once the stop rule or hooks->shouldStop ends the search.
  bool nextGeneration();
  /// The generation's rough-set reduction and checkpoint.
  void endGeneration();
  /// The final checkpoint, if one is due, and the result, moved out of
  /// the engine (GDE3::release): after end(), and so after run(), the
  /// engine is spent. Its population, front and hv history are empty, and
  /// encodeState() refuses it, until a restore().
  OptResult end();

  /// Complete search state: the inner GDE3 engine plus the non-improving
  /// generation counter the stop rule tracks. encodeState() appends its
  /// JSON text (as GDE3::encodeState does, through `memo` when given);
  /// serialize() parses that text.
  void encodeState(std::string& out, EncodeMemo* memo = nullptr) const;
  support::Json serialize() const;
  void restore(const support::Json& state);

  /// The inner GDE3 engine (evaluator access for memo pre-seeding and
  /// journaling; result snapshots).
  GDE3& engine() { return engine_; }
  const GDE3& engine() const { return engine_; }

private:
  void reduceAndRecord();

  RSGDE3Options options_;
  int maxGenerations_;
  tuning::Boundary full_;
  tuning::Boundary reduced_; ///< the last reduction (reused buffer)
  GDE3 engine_;
  int flat_ = 0; ///< consecutive non-improving generations
  const RunHooks* hooks_ = nullptr; ///< of the run begin() started
  int sinceCheckpoint_ = 0;         ///< generations since the last one
};

} // namespace motune::opt
