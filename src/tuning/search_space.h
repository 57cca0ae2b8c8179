// Search-space abstractions shared by the optimizers.
//
// A configuration is an integer vector instantiating a transformation
// skeleton's unbound parameters ("all tuning options, including ... tile
// sizes and thread count specifications are modeled uniformly", paper
// §III.B.1). The Boundary type is the rough-set-reduced hyper-rectangle the
// GDE3 variation operator projects trial vectors into (Algorithm 1,
// line 11: B.getClosestTo(r)).
#pragma once

#include "analyzer/region.h" // ParamSpec

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace motune::tuning {

using analyzer::ParamSpec;

/// A point of the search space: one integer value per parameter.
using Config = std::vector<std::int64_t>;

/// Objective values of an evaluated configuration (all minimized).
using Objectives = std::vector<double>;

/// Axis-aligned hyper-rectangle over the parameters, in continuous space.
struct Boundary {
  std::vector<double> lo; ///< inclusive
  std::vector<double> hi; ///< inclusive

  static Boundary fromSpace(const std::vector<ParamSpec>& space);

  std::size_t dims() const { return lo.size(); }

  /// Projects a continuous trial vector to the closest valid configuration
  /// inside the boundary (clamp each coordinate, then round to integer),
  /// into `out`, whose buffer it reuses.
  void closestTo(std::span<const double> x, Config& out) const;
  Config closestTo(const std::vector<double>& x) const {
    Config c;
    closestTo(x, c);
    return c;
  }

  /// True if the (integer) configuration lies inside the boundary.
  bool contains(const Config& c) const;

  /// Intersects this boundary with another, in place; empty dimensions
  /// collapse to the midpoint of this boundary (defensive, should not
  /// happen in practice).
  void intersectWith(const Boundary& other);

  /// Number of integer configurations inside the boundary (saturating
  /// double) — the observability layer reports it per generation to show
  /// how far the rough-set reduction shrank the search space.
  double volume() const;

  std::string str() const;
};

/// Hash for Config, usable with std::unordered_map (FNV-style combine).
struct ConfigHash {
  std::size_t operator()(const Config& c) const noexcept {
    std::size_t h = 1469598103934665603ull;
    for (const std::int64_t v : c) {
      h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// The full search-space volume (number of integer points), saturating.
double spaceCardinality(const std::vector<ParamSpec>& space);

} // namespace motune::tuning
