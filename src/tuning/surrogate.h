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
// Cost: observe() computes the configuration's feature vector once and
// keeps it in the rank-correlation window beside the config, so a refit
// scores the window by dot products alone. A dimension's log-scale
// coordinate is memoized per integer offset when its span is at most
// 4096. observe(), score() and refit() work in buffers the model keeps,
// which grow only while the window fills and for the first two fits'
// weights; score() never allocates. observe() is O(F^2) for F =
// featureCount() (the Gram matrix's upper triangle), score() O(m*F) for
// m objectives, and a refit O(F^3) for one Gaussian elimination shared
// by all m right-hand sides, plus O(W*m*F + W log W) to score and rank
// the W-sample window.
//
// Not thread-safe: every call, const ones included, may use the shared
// buffers. One search drives one model, from one thread at a time.
//
// Exports tuning.surrogate.{fits,predictions} counters and the
// tuning.surrogate.rank_correlation gauge through the global metric
// registry, each looked up once, on its first use; the optimizer adds
// tuning.surrogate.culled and the tuner tuning.surrogate.warmstart.*.
#pragma once

#include "support/json.h"
#include "tuning/search_space.h"

#include <cstdint>
#include <utility>
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
  /// Writes the feature vector of `config` (featureCount() values).
  void featuresInto(const Config& config, double* phi) const;
  /// log1p(offset) / log1p(span) of dimension i for an offset from its
  /// lower bound, the normalized log-scale coordinate.
  double logCoordinate(std::size_t i, double offset) const;
  /// Writes the m predicted log objectives of feature vector `phi`.
  void predictLogInto(const double* phi, double* logY) const;
  double scalarize(const double* logY) const;
  void refit();
  /// The ridge solve for every objective at once, into solved_. False
  /// when the system is singular to working precision.
  bool solve(double lambda);
  /// Spearman rank correlation of predicted_ and actual_.
  double spearman();
  /// Ordinal ranks of `values` (ties by index) into `ranks`.
  void ranksOf(const std::vector<double>& values, std::vector<double>& ranks);

  std::vector<ParamSpec> space_;
  std::size_t objectives_;
  SurrogateOptions options_;
  std::size_t featureCount_;
  /// Per dimension, as doubles: bounds, span and log1p(span).
  std::vector<double> lo_, hi_, span_, logSpan_;
  /// Per dimension of span at most kLogTableSpan, logCoordinate() of
  /// each integer offset, computed on its first use (NaN until then).
  static constexpr double kLogTableSpan = 4096;
  mutable std::vector<std::vector<double>> logCoordinates_;

  /// The Gram matrix's upper triangle, packed row by row: row i holds
  /// columns i..F-1. The matrix is symmetric (phi_i*phi_j is phi_j*phi_i
  /// bit for bit), so this is all of it; serialize() writes it whole.
  std::vector<double> gram_;
  std::vector<std::vector<double>> moment_; ///< per objective
  std::vector<double> minLog_, maxLog_;     ///< per objective, running

  // The rank-correlation window: a ring of up to correlationWindow
  // samples, each its config, feature vector and log objectives, stored
  // flat in slot order (d, F and m values per slot).
  std::size_t recentCount_ = 0;
  std::size_t recentNext_ = 0;
  std::vector<std::int64_t> recentConfig_;
  std::vector<double> recentPhi_;
  std::vector<double> recentLogY_;

  std::uint64_t samples_ = 0;
  std::vector<std::vector<double>> weights_; ///< per objective; empty = unfit
  std::uint64_t samplesAtFit_ = 0;
  std::uint64_t fits_ = 0;
  std::uint64_t predictions_ = 0;
  double rankCorrelation_ = 0.0;

  // Scratch. What a call writes never depends on what the buffers held.
  std::vector<double> phi_, logY_;          ///< one sample's
  std::vector<double> a_, b_;               ///< elimination: F*F and m*F
  std::vector<std::vector<double>> solved_; ///< the next weights
  std::vector<double> predicted_, actual_;  ///< window scores
  std::vector<double> rankX_, rankY_;
  std::vector<std::pair<double, std::size_t>> rankKeys_;
};

} // namespace motune::tuning
