// GDE3 — Generalized Differential Evolution 3 (Kukkonen & Lampinen 2005),
// the approximation technique inside RS-GDE3 (paper §III.B.3).
//
// DE/rand/1/bin variation exactly as the paper's Algorithm 1, with
// CR = F = 0.5 and a population of 30 by default; trial vectors are
// projected into the current boundary via Boundary::closestTo (line 11).
// Selection: a trial replaces its parent if it dominates it, is discarded
// if dominated, and otherwise both survive — the over-full generation is
// truncated back to the population size by non-dominated sorting and
// crowding distance. Termination: no hypervolume improvement for three
// consecutive generations (paper §III.B.3).
#pragma once

#include "core/hypervolume.h"
#include "core/result.h"
#include "observe/metrics.h"
#include "runtime/thread_pool.h"
#include "support/json.h"
#include "support/rng.h"
#include "tuning/evaluator.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace motune::tuning {
class Surrogate;
} // namespace motune::tuning

namespace motune::opt {

/// JSON codec of one evaluated individual ({"g": genome, "c": config,
/// "o": objectives}) — the layout of the engine checkpoints' individuals,
/// reused by the island migrant wire format (docs/search.md).
support::Json individualToJson(const Individual& ind);
Individual individualFromJson(const support::Json& json);

struct GDE3Options {
  std::size_t population = 30;
  double cr = 0.5;
  double f = 0.5;
  int maxGenerations = 100;
  /// Stop after this many consecutive non-improving generations. The paper
  /// states three; with noise-free deterministic evaluations (this
  /// reproduction's machine model) search plateaus are never broken by
  /// measurement jitter, so a slightly larger default patience recovers
  /// the paper's evaluation budgets and front sizes (see DESIGN.md §5).
  int noImproveLimit = 6;
  double improveEpsilon = 1e-6; ///< relative HV gain counting as improvement
  /// Diversity injection: when a generation yields no improvement, this
  /// many dominated members are replaced by fresh random samples from the
  /// current (rough-set-reduced) boundary before the next generation. This
  /// keeps the small population (30) from stagnating in the vast tiling
  /// spaces; 0 disables it.
  std::size_t immigrantsOnStagnation = 5;
  std::uint64_t seed = 1;
  bool parallelEvaluation = true;
  /// Deterministic starting points injected into the initial population
  /// (analytic seeding, src/tuning/seed.h; island rotation,
  /// src/tuning/island.h). The first min(size, population) random members
  /// are overwritten with these configurations AFTER the uniform draws, so
  /// the RNG stream position after initialize() is identical with and
  /// without seeds — seeding redirects where the search starts, it never
  /// reshapes downstream randomness. Seeds beyond the population size are
  /// ignored.
  std::vector<tuning::Config> initialSeeds;
  /// Optional surrogate pre-ranking (src/tuning/surrogate.h). When set, the
  /// engine feeds every full evaluation into the surrogate and, once it is
  /// ready and surrogateKeep < 1, sends only the top ceil(keep * population)
  /// trial offspring per generation to the full evaluation — culled trials
  /// keep their parent. At surrogateKeep == 1 the surrogate only observes
  /// and scores (pure observability mode): the evaluation sequence, fronts
  /// and RNG stream are byte-identical to a surrogate-free run. Not owned;
  /// must outlive the engine. serialize() carries the surrogate's state and
  /// restore() puts it back, so a restored search culls exactly as the
  /// uninterrupted one would.
  tuning::Surrogate* surrogate = nullptr;
  double surrogateKeep = 1.0;
};

/// What one GDE3::encodeState() wrote, for the next encode handed the same
/// memo to reuse: the text of every member (population and front) with the
/// bits of its genome, config and objectives, and the hv_history text with
/// the values it encodes. A member is looked up by a word-mixing hash of
/// those bits, computed in place (no key is built), and its text is reused
/// only when every bit matches the entry's copy, so nothing can make it
/// stale: a restore(), a migrant, another engine's state or a hash
/// collision simply misses. After each encode it holds only the members
/// just written; the entries it drops are kept as spare storage for the
/// next misses, at most as many as two encodes' members. A generation
/// replaces few members and appends one hypervolume, so consecutive
/// checkpoints of one search mostly hit.
/// Owned by whoever writes the checkpoints, one per search; its fields are
/// GDE3's alone.
class EncodeMemo {
  friend class GDE3;
  /// Appends `ind`'s text, copied when the last encode wrote it.
  void memberTo(const Individual& ind, std::string& out);
  /// Appends the hv_history array, reusing the text of its known prefix.
  void hvHistoryTo(const std::vector<double>& history, std::string& out);
  /// Ends an encode: what it did not write becomes spare storage.
  void endEncode();

  struct Member {
    Individual bits; ///< what the text encodes, compared bit for bit
    std::string text;
    std::uint64_t epoch = 0; ///< the encode that last wrote the member
  };
  /// Keyed by the hash of the member's bits. Members that share a hash
  /// share the entry: the later one replaces the earlier.
  using Members = std::unordered_map<std::uint64_t, Member>;
  Members members_;
  std::vector<Members::node_type> spare_; ///< dropped entries, for reuse
  std::uint64_t epoch_ = 0; ///< of the encode in progress
  std::vector<double> hv_;
  std::string hvText_; ///< hv_ as encoded, without the brackets
};

/// Step-wise GDE3 engine. RS-GDE3 drives it one generation at a time,
/// updating the search boundary between generations; run() performs the
/// full loop with the default (static) boundary.
class GDE3 {
public:
  GDE3(tuning::ObjectiveFunction& fn, runtime::ThreadPool& pool,
       GDE3Options options = {});

  /// Samples and evaluates the initial random population over the full
  /// parameter space.
  void initialize();

  /// Replaces the variation boundary (rough-set reduction hook).
  void setBoundary(const tuning::Boundary& boundary);
  const tuning::Boundary& boundary() const { return boundary_; }

  /// Runs one generation; returns true if the front hypervolume improved.
  bool step();

  /// Full optimization loop: initialize + step until termination, then
  /// release(), so the engine is spent after it.
  OptResult run();

  /// Hands the result over. The front is the non-dominated subset of ALL
  /// evaluated configurations, kept incrementally (insertIntoFront),
  /// matching how the baseline strategies report their solution sets. The
  /// population, front and hv history are moved out, not copied, so the
  /// engine is spent afterwards (restore() makes it usable again).
  OptResult release();

  const std::vector<Individual>& population() const { return population_; }

  /// Indices of the population's non-dominated members, ascending (the
  /// rough-set input). Kept current across every change to the
  /// population: a truncation's ranking yields it as a prefix, and
  /// initialize(), restore(), immigrants, migrants and a generation that
  /// needed no truncation rank the population again.
  const std::vector<std::size_t>& firstFront() const { return firstFront_; }

  /// The top `count` population members by non-dominated rank, ties broken
  /// by descending crowding distance — the emigrant set of the island
  /// model. Deterministic; touches no RNG state. Ranks in the engine's
  /// buffers and copies only the members it returns.
  std::vector<Individual> selectTop(std::size_t count);

  /// Integrates externally evaluated individuals (island immigrants):
  /// migrants whose configuration is not already in the population replace
  /// the worst-ranked members, and every integrated migrant is offered to
  /// the front (its objectives were produced by the same deterministic
  /// objective function on the sending island). Touches no RNG state and
  /// does not count toward evaluations() — the sender already paid for
  /// them. Returns the number of migrants integrated.
  std::size_t integrateMigrants(const std::vector<Individual>& migrants);

  int generationsDone() const { return generations_; }
  std::uint64_t evaluations() const { return counter_.evaluations(); }

  /// Live progress accessors (per-generation streaming): best population-
  /// front hypervolume so far, the latest generation's hypervolume, and
  /// the front size the latest step() saw (0 before the first step).
  double bestHypervolume() const { return bestHv_; }
  double lastHypervolume() const {
    return hvHistory_.empty() ? 0.0 : hvHistory_.back();
  }
  std::size_t lastFrontSize() const { return lastFrontSize_; }

  /// Complete engine state as one JSON document, sized independently of
  /// evaluations(): population, front, hypervolume normalization,
  /// stagnation bookkeeping, current boundary, the exact RNG stream
  /// position and any attached surrogate's state. restore() of this state
  /// into a freshly constructed engine (same objective function, same
  /// options) continues the search bit-identically — the basis of the
  /// durable tuning sessions in src/session/. Only valid after initialize().
  ///
  /// encodeState() appends the document's text, exactly what dump(-1) of
  /// the same tree writes, without building a tree: checkpoints encode it
  /// straight into the journal line. With a memo it copies the text of
  /// what the memo's last encode already wrote instead of formatting it
  /// again; the bytes are the same. serialize() is that text parsed, for
  /// callers that want the tree.
  void encodeState(std::string& out, EncodeMemo* memo = nullptr) const;
  support::Json serialize() const;
  void restore(const support::Json& state);

  /// The memoizing evaluator in front of the objective function. The
  /// session layer pre-seeds it on resume (CountingEvaluator::preload) and
  /// journals unique evaluations through its listener hook.
  tuning::CountingEvaluator& evaluator() { return counter_; }

private:
  /// Projects each member's genome into `projection`, evaluates the
  /// configs as one batch and fills in config and objectives in place;
  /// offers every member to the front and the surrogate.
  void evaluate(std::span<Individual> members,
                const tuning::Boundary& projection);
  /// Returns the number of immigrants actually injected (telemetry).
  std::size_t injectImmigrants(std::size_t count);
  /// Makes the members `refs` name (r < n: parent r; r >= n: trial
  /// r - n) the population, in that order, by swaps.
  void adopt(std::span<const std::size_t> refs);
  /// Ranks the population again for firstFront_.
  void refreshFirstFront();
  double frontHypervolume();

  tuning::CountingEvaluator counter_;
  runtime::ThreadPool& pool_;
  GDE3Options options_;
  tuning::Boundary fullBoundary_;
  tuning::Boundary boundary_;
  support::Rng rng_;

  std::vector<Individual> population_;
  std::vector<std::size_t> firstFront_; ///< see firstFront()
  std::vector<Individual> front_; ///< non-dominated set of all evaluations
  std::size_t lastFrontSize_ = 0; ///< front_.size() at the previous step()
  std::optional<HypervolumeMetric> metric_; ///< fixed after initialization
  double bestHv_ = 0.0;
  int generations_ = 0;
  std::vector<double> hvHistory_;

  // Storage reused from one generation to the next. Members move between
  // population_, trials_ and immigrants_ only by swap, so each Individual
  // keeps its heap buffers, and a steady-state generation allocates
  // little beyond the memo's new entries (a default run: about 2.5
  // allocations per unique evaluation, 2 of them the memo's). The values
  // written into the buffers never depend on what they held before, so a
  // restore() into a used engine continues as into a fresh one.
  ParetoRanking ranking_;
  std::vector<Individual> trials_; ///< this generation's trial vectors
  std::vector<Individual> immigrants_;
  std::vector<Individual> spare_;       ///< members the front dropped
  std::vector<tuning::Config> configs_; ///< a batch's projections
  tuning::Config scored_;               ///< a surrogate-scored projection
  std::vector<char> culled_;
  std::vector<std::pair<double, std::size_t>> surrogateRanked_;
  std::vector<std::size_t> chosen_; ///< selection, by reference (step())
  std::vector<std::size_t> kept_;   ///< truncation survivors, by reference
  std::vector<double> rows_;        ///< the chosen members' objectives
  std::vector<std::size_t> slotOf_, holder_; ///< adopt() bookkeeping
  std::vector<std::size_t> replaceable_;
  std::vector<std::size_t> targets_;
  std::vector<std::size_t> fresh_; ///< integrateMigrants(): new migrants
  HypervolumeMetric::Scratch hvScratch_;

  // Per-generation gauges, resolved once (the registry never drops one).
  observe::Counter& generationsCounter_;
  observe::Gauge& bestHvGauge_;
  observe::Gauge& frontSizeGauge_;
  observe::Gauge& boundaryVolumeGauge_;
  // Counters of events a run may never have, resolved on the first one,
  // so that the registry lists them only once they happen.
  observe::Counter* culledCounter_ = nullptr;
  observe::Counter* immigrantsCounter_ = nullptr;
};

} // namespace motune::opt
