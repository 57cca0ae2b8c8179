// Online surrogate model for evaluation pre-ranking.
//
// A ridge regression per objective over a fixed-order polynomial feature
// map of the configuration, fit incrementally from the (config ->
// objectives) pairs the search evaluates (and, for warm starts, from the
// eval records of prior compatible session journals). The optimizer scores
// each generation's candidate offspring with the surrogate first and sends
// only the most promising fraction to the full cost-model evaluation
// (GDE3Options::surrogate / surrogateKeep).
//
// Determinism contract: the model is a pure function of the observation
// sequence — fixed feature order, threshold-triggered refits, pivoted
// Gaussian elimination, no random draws. Replaying the same observations
// (e.g. from a session journal) reproduces every prediction bit for bit, at
// any thread-pool size, and serialize()/restore() carry the accumulated
// state bit-exactly so a restored optimizer keeps culling as before.
//
// Exports tuning.surrogate.{fits,predictions,warmstart.*} counters and the
// tuning.surrogate.rank_correlation gauge through the global metric
// registry; the optimizer adds tuning.surrogate.culled.
#pragma once

#include "support/json.h"
#include "tuning/search_space.h"

#include <cstdint>
#include <vector>

namespace motune::tuning {

struct SurrogateOptions {
  double ridgeLambda = 1e-3;          ///< L2 strength, scaled by sample count
  std::size_t refitEvery = 16;        ///< observations between refits
  std::size_t minSamples = 60;        ///< no predictions before this many
  std::size_t correlationWindow = 128; ///< recent samples for the estimate
};

class Surrogate {
public:
  Surrogate(std::vector<ParamSpec> space, std::size_t objectives,
            SurrogateOptions options = {});

  /// Fixed-order feature map of a configuration: bias, normalized
  /// coordinates, their squares, normalized log-scale coordinates, and
  /// pairwise products. Deterministic; exposed for the journal round-trip
  /// property test.
  std::vector<double> features(const Config& config) const;
  std::size_t featureCount() const { return featureCount_; }
  std::size_t objectiveCount() const { return objectives_; }

  /// Feeds one evaluated configuration; refits on the configured schedule.
  void observe(const Config& config, const Objectives& objectives);

  /// Accumulated state, bit-exact and sized by the space and the window,
  /// not by the observation count. restore() puts it back verbatim — the
  /// fit included, not refit, so refits stay on the uninterrupted model's
  /// `minSamples + k*refitEvery` grid and so do all later predictions.
  support::Json serialize() const;
  void restore(const support::Json& state);

  /// True once enough samples accumulated for a first fit.
  bool ready() const { return !weights_.empty(); }

  /// Predicted objective vector (model scale). Counts as one prediction.
  Objectives predict(const Config& config);

  /// Scalar ranking key, lower is better: a blend of the best and the mean
  /// normalized predicted objective, so both specialists and all-rounders
  /// survive the cull. Counts as one prediction.
  double score(const Config& config);

  std::uint64_t observations() const { return samples_; }
  std::uint64_t fits() const { return fits_; }
  std::uint64_t predictions() const { return predictions_; }

  /// Spearman rank correlation between predicted and actual scalar scores
  /// over the recent-sample window, refreshed on every refit. 0 until the
  /// first fit; 1 is a perfect ranking.
  double rankCorrelation() const { return rankCorrelation_; }

private:
  struct Recent {
    Config config;
    std::vector<double> logY;
  };

  void refit();
  std::vector<double> predictLog(const std::vector<double>& phi) const;
  double scalarize(const std::vector<double>& logY) const;

  std::vector<ParamSpec> space_;
  std::size_t objectives_;
  SurrogateOptions options_;
  std::size_t featureCount_;

  std::vector<double> gram_;                ///< featureCount^2, row-major
  std::vector<std::vector<double>> moment_; ///< per objective
  std::vector<double> minLog_, maxLog_;     ///< per objective, running
  std::vector<Recent> recent_;              ///< rank-correlation window
  std::size_t recentNext_ = 0;
  std::uint64_t samples_ = 0;
  std::vector<std::vector<double>> weights_; ///< per objective; empty = unfit
  std::uint64_t samplesAtFit_ = 0;
  std::uint64_t fits_ = 0;
  std::uint64_t predictions_ = 0;
  double rankCorrelation_ = 0.0;
};

} // namespace motune::tuning
