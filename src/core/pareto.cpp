#include "core/pareto.h"

#include "support/check.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

namespace motune::opt {

namespace {

/// True if every member has exactly two objectives and none is NaN: the
/// sorted two-objective paths need `<` to be a strict weak order. Every
/// other population takes the quadratic pairwise path.
bool sortableTwoObjectives(std::span<const Individual> pop) {
  for (const Individual& ind : pop)
    if (ind.objectives.size() != 2 || std::isnan(ind.objectives[0]) ||
        std::isnan(ind.objectives[1]))
      return false;
  return true;
}

/// The objectives of `pop`, row-major: member i's are [i * m, i * m + m).
std::vector<double> flatObjectives(std::span<const Individual> pop,
                                   std::size_t m) {
  std::vector<double> flat;
  flat.reserve(pop.size() * m);
  for (const Individual& ind : pop) {
    MOTUNE_CHECK(ind.objectives.size() == m);
    flat.insert(flat.end(), ind.objectives.begin(), ind.objectives.end());
  }
  return flat;
}

/// Row-major two-objective points: point i is (f[2i], f[2i + 1]).
struct Points2 {
  const std::vector<double>& f;
  double f0(std::size_t i) const { return f[2 * i]; }
  double f1(std::size_t i) const { return f[2 * i + 1]; }
  bool same(std::size_t a, std::size_t b) const {
    return f0(a) == f0(b) && f1(a) == f1(b);
  }
};

/// Indices sorted by (f0, f1, index). A point's dominators all precede
/// it, and identical points are adjacent.
std::vector<std::size_t> lexOrder(const Points2& p, std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (p.f0(a) != p.f0(b)) return p.f0(a) < p.f0(b);
    if (p.f1(a) != p.f1(b)) return p.f1(a) < p.f1(b);
    return a < b;
  });
  return order;
}

/// First front of two-objective points in one sweep of the sorted order:
/// a point is dominated iff some strictly earlier, non-identical point has
/// f1 <= its f1. Ascending indices.
std::vector<std::size_t> firstFrontTwo(const std::vector<double>& f) {
  const Points2 p{f};
  const std::size_t n = f.size() / 2;
  const std::vector<std::size_t> order = lexOrder(p, n);
  std::vector<char> nd(n, 0);
  bool seen = false;
  double bestF1 = 0.0; // min f1 over the earlier, non-identical points
  bool dominated = false;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    if (k == 0 || !p.same(i, order[k - 1])) {
      dominated = seen && bestF1 <= p.f1(i);
      bestF1 = seen ? std::min(bestF1, p.f1(i)) : p.f1(i);
      seen = true;
    }
    nd[i] = !dominated;
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i)
    if (nd[i]) out.push_back(i);
  return out;
}

/// Deb's fast non-dominated sort for two objectives in O(N log N), with
/// the fronts in exactly the order the pairwise peeling below produces.
/// Stops after the first fronts that hold at least `needed` members.
std::vector<std::vector<std::size_t>>
nonDominatedSortTwo(const std::vector<double>& f, std::size_t needed) {
  const Points2 p{f};
  const std::size_t n = f.size() / 2;
  if (n == 0) return {};
  const std::vector<std::size_t> order = lexOrder(p, n);

  // Rank by binary search over each front's minimum f1, which never
  // decreases from one front to the next: a point joins the first front
  // none of whose (earlier) members has f1 <= its own.
  std::vector<std::size_t> rank(n);
  std::vector<double> minF1;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    if (k > 0 && p.same(i, order[k - 1])) {
      rank[i] = rank[order[k - 1]];
      continue;
    }
    const auto r = static_cast<std::size_t>(
        std::upper_bound(minF1.begin(), minF1.end(), p.f1(i)) -
        minF1.begin());
    if (r == minF1.size())
      minF1.push_back(p.f1(i));
    else
      minF1[r] = p.f1(i);
    rank[i] = r;
  }

  // Each front as a staircase: f0 ascending, f1 non-increasing.
  std::vector<std::vector<std::size_t>> stairs(minF1.size());
  for (std::size_t i : order) stairs[rank[i]].push_back(i);

  // Peeling order. Front 0 is in ascending index order. A member of front
  // k+1 enters when its last dominator in front k (in that front's order)
  // releases it, dominators releasing in ascending index order; so front
  // k+1 is ordered by (that dominator's position, index). The dominators
  // of q in front k are the staircase members with f0 <= q.f0 (a prefix)
  // and f1 <= q.f1 (a suffix), one contiguous run whose ends only move
  // forward as q walks its own staircase, so a sliding-window maximum
  // finds each last dominator.
  std::vector<std::vector<std::size_t>> fronts(minF1.size());
  std::vector<std::size_t> pos(n); // position within its front's order
  for (std::size_t i = 0; i < n; ++i)
    if (rank[i] == 0) {
      pos[i] = fronts[0].size();
      fronts[0].push_back(i);
    }
  std::vector<std::pair<std::size_t, std::size_t>> keyed;
  std::vector<std::size_t> window; // stair offsets, pos strictly decreasing
  std::size_t sorted = fronts[0].size();
  for (std::size_t k = 0; k + 1 < fronts.size(); ++k) {
    if (sorted >= needed) {
      fronts.resize(k + 1);
      break;
    }
    const std::vector<std::size_t>& prev = stairs[k];
    keyed.clear();
    window.clear();
    std::size_t head = 0, lo = 0, hi = 0;
    for (std::size_t q : stairs[k + 1]) {
      for (; hi < prev.size() && p.f0(prev[hi]) <= p.f0(q); ++hi) {
        while (window.size() > head &&
               pos[prev[window.back()]] <= pos[prev[hi]])
          window.pop_back();
        window.push_back(hi);
      }
      while (lo < hi && p.f1(prev[lo]) > p.f1(q)) ++lo;
      MOTUNE_DCHECK(lo < hi); // q has a dominator in front k
      while (window[head] < lo) ++head;
      keyed.emplace_back(pos[prev[window[head]]], q);
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::size_t>& next = fronts[k + 1];
    next.reserve(keyed.size());
    for (const auto& [dominator, q] : keyed) {
      pos[q] = next.size();
      next.push_back(q);
    }
    sorted += next.size();
  }
  return fronts;
}

/// Deb's pairwise peeling, O(m N^2): any number of objectives, NaN
/// included (dominates() ignores an objective that is NaN on either side).
std::vector<std::vector<std::size_t>>
nonDominatedSortPairwise(std::span<const Individual> pop) {
  const std::size_t n = pop.size();
  std::vector<std::vector<std::size_t>> dominatesList(n);
  std::vector<int> dominatedBy(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dominates(pop[i].objectives, pop[j].objectives)) {
        dominatesList[i].push_back(j);
        ++dominatedBy[j];
      } else if (dominates(pop[j].objectives, pop[i].objectives)) {
        dominatesList[j].push_back(i);
        ++dominatedBy[i];
      }
    }
  }

  std::vector<std::vector<std::size_t>> fronts;
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i)
    if (dominatedBy[i] == 0) current.push_back(i);
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      for (std::size_t j : dominatesList[i]) {
        if (--dominatedBy[j] == 0) next.push_back(j);
      }
    }
    fronts.push_back(std::move(current));
    current = std::move(next);
  }
  return fronts;
}

/// crowdingDistance over row-major objectives (m per member).
std::vector<double> crowdingOf(const std::vector<double>& f, std::size_t m,
                               const std::vector<std::size_t>& front) {
  const std::size_t n = front.size();
  std::vector<double> dist(n, 0.0);
  if (n == 0) return dist;
  if (n <= 2) {
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<double>::infinity());
    return dist;
  }
  const auto at = [&](std::size_t k, std::size_t obj) {
    return f[front[k] * m + obj];
  };
  std::vector<std::size_t> order(n);
  for (std::size_t obj = 0; obj < m; ++obj) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return at(a, obj) < at(b, obj);
    });
    const double lo = at(order.front(), obj);
    const double hi = at(order.back(), obj);
    dist[order.front()] = std::numeric_limits<double>::infinity();
    dist[order.back()] = std::numeric_limits<double>::infinity();
    if (hi <= lo) continue;
    for (std::size_t k = 1; k + 1 < n; ++k) {
      dist[order[k]] +=
          (at(order[k + 1], obj) - at(order[k - 1], obj)) / (hi - lo);
    }
  }
  return dist;
}

} // namespace

bool dominates(const Objectives& a, const Objectives& b) {
  MOTUNE_CHECK(a.size() == b.size() && !a.empty());
  bool strictlyBetter = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictlyBetter = true;
  }
  return strictlyBetter;
}

std::vector<std::size_t> nonDominatedIndices(std::span<const Individual> pop) {
  if (sortableTwoObjectives(pop)) return firstFrontTwo(flatObjectives(pop, 2));
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pop.size() && !dominated; ++j)
      if (j != i && dominates(pop[j].objectives, pop[i].objectives))
        dominated = true;
    if (!dominated) out.push_back(i);
  }
  return out;
}

std::vector<Individual> paretoFront(std::span<const Individual> pop) {
  std::vector<Individual> out;
  std::set<Config> seen;
  for (std::size_t i : nonDominatedIndices(pop)) {
    if (seen.insert(pop[i].config).second) out.push_back(pop[i]);
  }
  return out;
}

void insertIntoFront(std::vector<Individual>& front,
                     const Individual& candidate) {
  for (const Individual& member : front)
    if (member.config == candidate.config ||
        dominates(member.objectives, candidate.objectives))
      return;
  std::erase_if(front, [&](const Individual& member) {
    return dominates(candidate.objectives, member.objectives);
  });
  front.push_back(candidate);
}

std::vector<std::vector<std::size_t>>
nonDominatedSort(std::span<const Individual> pop) {
  if (sortableTwoObjectives(pop))
    return nonDominatedSortTwo(flatObjectives(pop, 2), pop.size());
  return nonDominatedSortPairwise(pop);
}

std::vector<double> crowdingDistance(std::span<const Individual> pop,
                                     const std::vector<std::size_t>& front) {
  if (front.empty()) return {};
  const std::size_t m = pop[front[0]].objectives.size();
  return crowdingOf(flatObjectives(pop, m), m, front);
}

void truncateByRankAndCrowding(std::vector<Individual>& pop,
                               std::size_t target) {
  if (pop.size() <= target) return;
  const bool sorted = sortableTwoObjectives(pop);
  const std::size_t m = pop.front().objectives.size();
  const std::vector<double> flat = flatObjectives(pop, m);
  const auto fronts = sorted ? nonDominatedSortTwo(flat, target)
                            : nonDominatedSortPairwise(pop);
  std::vector<Individual> out;
  out.reserve(target);
  for (const auto& front : fronts) {
    if (out.size() + front.size() <= target) {
      for (std::size_t i : front) out.push_back(std::move(pop[i]));
      if (out.size() == target) break;
      continue;
    }
    // Split front: keep the most crowded-distance-diverse members.
    const auto dist = crowdingOf(flat, m, front);
    std::vector<std::size_t> order(front.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
    for (std::size_t k = 0; out.size() < target; ++k)
      out.push_back(std::move(pop[front[order[k]]]));
    break;
  }
  pop = std::move(out);
}

} // namespace motune::opt
