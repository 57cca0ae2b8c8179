// Hypervolume quality metric (paper §V.B.3, Table VI's V(S) column).
//
// "It computes the normalized volume (in the bi-objective case the area)
// behind a front. The larger V(S), the closer the front could be pushed
// toward the hypothetical ideal (0,0) point", ranging from 0 (worst) to 1
// (unattainable ideal).
#pragma once

#include "core/pareto.h"

#include <array>
#include <span>
#include <vector>

namespace motune::opt {

/// Exact hypervolume of a 2-objective point set w.r.t. reference point
/// `ref` (volume of the region dominated by the set and dominating ref).
/// Points outside the reference box contribute only their clipped part.
double hypervolume2d(std::vector<Objectives> points, const Objectives& ref);

/// Exact n-objective hypervolume by recursive slicing (usable for small
/// fronts / up to ~5 objectives; the framework's experiments are
/// bi-objective, this supports the generic API).
double hypervolumeNd(std::vector<Objectives> points, const Objectives& ref);

/// Normalizes objectives by fixed per-objective worst references and
/// computes V(S) in [0, 1] against the (1,...,1) reference — the paper's
/// normalized metric, comparable across optimizers for a fixed problem.
class HypervolumeMetric {
public:
  /// `worst` must be strictly positive per objective; objective values are
  /// divided by it (the ideal point is the origin).
  explicit HypervolumeMetric(Objectives worst);

  double operator()(const std::vector<Objectives>& points) const;
  double ofFront(const std::vector<Individual>& front) const;

  /// V(S) of the members `members` of `pop`, without copying them. Equal
  /// points add no area, so repeated members do not change the value.
  /// `scratch` is the caller's point buffer (two objectives), so a search
  /// that measures every generation does not allocate for it.
  using Scratch = std::vector<std::array<double, 2>>;
  double ofMembers(std::span<const Individual> pop,
                   std::span<const std::size_t> members,
                   Scratch& scratch) const;

  const Objectives& worst() const { return worst_; }

private:
  Objectives worst_;
};

} // namespace motune::opt
