#include "tuning/seed.h"

#include "perfmodel/footprint.h"
#include "support/check.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>

namespace motune::tuning {

namespace {

/// Maps a scale factor s in [0, 1] and per-dimension shape weights to a
/// full configuration (tile sizes; the thread slot is filled by the
/// caller). s = 0 is the smallest legal tile in every dimension, s = 1 the
/// largest the profile allows.
Config tilesFor(const std::vector<ParamSpec>& space, std::size_t tileDims,
                double s, const std::vector<double>& weights) {
  Config c(space.size(), 1);
  for (std::size_t i = 0; i < tileDims; ++i) {
    const double lo = static_cast<double>(space[i].lo);
    const double hi = static_cast<double>(space[i].hi);
    const double v = lo + s * weights[i] * (hi - lo);
    c[i] = std::clamp(static_cast<std::int64_t>(std::llround(v)),
                      space[i].lo, space[i].hi);
  }
  return c;
}

/// Distinct bytes one tile touches: the footprint of the point-loop
/// sub-nest, read off the problem's parametric nest. The tiled nest is tile
/// loops outer, point loops inner, so the point loops are the innermost
/// tileDims levels.
double tileFootprintBytes(const KernelTuningProblem& problem,
                          const Config& config, std::size_t tileDims,
                          std::int64_t lineBytes) {
  const perf::TiledNest& nest = problem.nest();
  return nest.totalFootprintBytes(
      std::span<const std::int64_t>(config.data(), tileDims),
      nest.depth() - tileDims, lineBytes);
}

} // namespace

std::vector<Config> analyticSeeds(const KernelTuningProblem& problem,
                                  const SeedOptions& options) {
  MOTUNE_CHECK(options.maxSeeds > 0);
  MOTUNE_CHECK(options.fitFraction > 0.0 && options.fitFraction <= 1.0);
  const std::vector<ParamSpec>& space = problem.space();
  const std::size_t tileDims = problem.skeleton().tileDepth();
  if (tileDims == 0 || space.size() != tileDims + 1) return {};
  const machine::MachineModel& m = problem.machine();
  if (m.caches.empty()) return {};

  // Thread-count candidates: serial, one full socket, the whole machine —
  // the three placement regimes with distinct effective cache capacities
  // (shared levels are sliced per co-located thread).
  const std::int64_t threadLo = space[tileDims].lo;
  const std::int64_t threadHi = space[tileDims].hi;
  std::vector<std::int64_t> threadCandidates;
  for (std::int64_t t :
       {std::int64_t{1}, static_cast<std::int64_t>(m.coresPerSocket),
        threadHi}) {
    t = std::clamp(t, threadLo, threadHi);
    if (std::find(threadCandidates.begin(), threadCandidates.end(), t) ==
        threadCandidates.end())
      threadCandidates.push_back(t);
  }

  // Shape profiles: equal tile extents, and innermost-heavy (the innermost
  // tile keeps its full range while outer tiles shrink — the profile that
  // preserves unit-stride spatial locality, standing in for an explicit
  // interchange-order solve since the skeleton fixes the loop order).
  std::vector<std::vector<double>> profiles;
  profiles.emplace_back(tileDims, 1.0);
  if (tileDims > 1) {
    std::vector<double> heavy(tileDims, 0.35);
    heavy.back() = 1.0;
    profiles.push_back(std::move(heavy));
  }

  // One candidate list per thread count, later interleaved round-robin so
  // the maxSeeds cap keeps every placement regime represented.
  std::vector<std::vector<Config>> perThread(threadCandidates.size());
  for (std::size_t ti = 0; ti < threadCandidates.size(); ++ti) {
    const std::int64_t threads = threadCandidates[ti];
    for (std::size_t level = 0; level < m.caches.size(); ++level) {
      const std::int64_t lineBytes = m.caches[level].lineBytes;
      const double budget =
          options.fitFraction *
          m.effectiveCapacityPerThread(level, static_cast<int>(threads));
      if (budget <= 0.0) continue;
      for (const std::vector<double>& weights : profiles) {
        const auto footprintAt = [&](double s) {
          Config c = tilesFor(space, tileDims, s, weights);
          c[tileDims] = threads;
          return tileFootprintBytes(problem, c, tileDims, lineBytes);
        };
        // Largest scale whose tile still fits the budget. The footprint is
        // monotone non-decreasing in the scale, so 32 bisection steps pin
        // the integer tile vector exactly; the iteration count is fixed,
        // keeping the result bit-reproducible.
        double s = 0.0;
        if (footprintAt(1.0) <= budget) {
          s = 1.0;
        } else if (footprintAt(0.0) <= budget) {
          double lo = 0.0, hi = 1.0;
          for (int iter = 0; iter < 32; ++iter) {
            const double mid = 0.5 * (lo + hi);
            (footprintAt(mid) <= budget ? lo : hi) = mid;
          }
          s = lo;
        }
        Config c = tilesFor(space, tileDims, s, weights);
        c[tileDims] = threads;
        perThread[ti].push_back(std::move(c));
      }
    }
  }

  std::vector<Config> seeds;
  std::set<Config> seen;
  for (std::size_t offset = 0; seeds.size() < options.maxSeeds; ++offset) {
    bool any = false;
    for (const std::vector<Config>& list : perThread) {
      if (offset >= list.size()) continue;
      any = true;
      if (seeds.size() < options.maxSeeds && seen.insert(list[offset]).second)
        seeds.push_back(list[offset]);
    }
    if (!any) break;
  }
  return seeds;
}

} // namespace motune::tuning
