#include "core/hypervolume.h"

#include "support/check.h"

#include <algorithm>
#include <array>

namespace motune::opt {

namespace {

using Point2 = std::array<double, 2>;

/// `p` divided by the two worst references.
Point2 normalized2(const Objectives& p, const Objectives& worst) {
  MOTUNE_CHECK(p.size() == 2);
  return {p[0] / worst[0], p[1] / worst[1]};
}

/// hypervolume2d on a scratch buffer, which it reorders.
double hypervolume2dOf(std::vector<Point2>& points, double ref0,
                       double ref1) {
  // Clip and drop points that do not dominate the reference at all.
  std::erase_if(points, [&](const Point2& p) {
    return p[0] >= ref0 || p[1] >= ref1;
  });
  if (points.empty()) return 0.0;
  for (auto& p : points) {
    p[0] = std::max(p[0], 0.0);
    p[1] = std::max(p[1], 0.0);
  }
  // Sweep in ascending f0; each point contributes a rectangle up to the
  // best (lowest) f1 seen so far.
  std::sort(points.begin(), points.end());
  double volume = 0.0;
  double bestF1 = ref1;
  for (const auto& p : points) {
    if (p[1] < bestF1) {
      volume += (ref0 - p[0]) * (bestF1 - p[1]);
      bestF1 = p[1];
    }
  }
  return volume;
}

} // namespace

double hypervolume2d(std::vector<Objectives> points, const Objectives& ref) {
  MOTUNE_CHECK(ref.size() == 2);
  std::vector<Point2> flat;
  flat.reserve(points.size());
  for (const auto& p : points) flat.push_back({p[0], p[1]});
  return hypervolume2dOf(flat, ref[0], ref[1]);
}

namespace {

/// Recursive slicing on the last objective (exclusive hypervolume sweep).
double hvRecursive(std::vector<Objectives> points, const Objectives& ref) {
  const std::size_t m = ref.size();
  if (m == 2) return hypervolume2d(std::move(points), ref);

  std::erase_if(points, [&](const Objectives& p) {
    for (std::size_t d = 0; d < m; ++d)
      if (p[d] >= ref[d]) return true;
    return false;
  });
  if (points.empty()) return 0.0;

  // Sort ascending by the last objective and sweep upward: the slab
  // [z_i, z_next) is dominated exactly by the points with z <= z_i.
  std::sort(points.begin(), points.end(),
            [m](const Objectives& a, const Objectives& b) {
              return a[m - 1] < b[m - 1];
            });

  Objectives subRef(ref.begin(), ref.end() - 1);
  double volume = 0.0;
  std::vector<Objectives> active;
  for (std::size_t i = 0; i < points.size(); ++i) {
    active.emplace_back(points[i].begin(), points[i].end() - 1);
    const double z = points[i][m - 1];
    const double zNext =
        i + 1 < points.size() ? points[i + 1][m - 1] : ref[m - 1];
    if (zNext > z) volume += (zNext - z) * hvRecursive(active, subRef);
  }
  return volume;
}

} // namespace

double hypervolumeNd(std::vector<Objectives> points, const Objectives& ref) {
  MOTUNE_CHECK(ref.size() >= 2);
  return hvRecursive(std::move(points), ref);
}

HypervolumeMetric::HypervolumeMetric(Objectives worst)
    : worst_(std::move(worst)) {
  for (double w : worst_) MOTUNE_CHECK_MSG(w > 0.0, "worst refs must be > 0");
}

double HypervolumeMetric::operator()(
    const std::vector<Objectives>& points) const {
  // The volume of the unit box is 1, so V(S) is already in [0, 1].
  if (worst_.size() == 2) {
    std::vector<Point2> normalized;
    normalized.reserve(points.size());
    for (const auto& p : points) normalized.push_back(normalized2(p, worst_));
    return hypervolume2dOf(normalized, 1.0, 1.0);
  }
  std::vector<Objectives> normalized;
  normalized.reserve(points.size());
  for (const auto& p : points) {
    MOTUNE_CHECK(p.size() == worst_.size());
    Objectives q(p.size());
    for (std::size_t d = 0; d < p.size(); ++d) q[d] = p[d] / worst_[d];
    normalized.push_back(std::move(q));
  }
  return hypervolumeNd(std::move(normalized), Objectives(worst_.size(), 1.0));
}

double HypervolumeMetric::ofMembers(std::span<const Individual> pop,
                                    std::span<const std::size_t> members,
                                    Scratch& scratch) const {
  if (worst_.size() != 2) {
    std::vector<Objectives> pts;
    pts.reserve(members.size());
    for (std::size_t i : members) pts.push_back(pop[i].objectives);
    return (*this)(pts);
  }
  scratch.clear();
  for (std::size_t i : members)
    scratch.push_back(normalized2(pop[i].objectives, worst_));
  return hypervolume2dOf(scratch, 1.0, 1.0);
}

double HypervolumeMetric::ofFront(const std::vector<Individual>& front) const {
  std::vector<Objectives> pts;
  pts.reserve(front.size());
  for (const auto& ind : front) pts.push_back(ind.objectives);
  return (*this)(pts);
}

} // namespace motune::opt
