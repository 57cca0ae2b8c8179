#include "core/pareto.h"

#include "support/check.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace motune::opt {

namespace {

/// True if a's m objectives dominate b's (dominates() over flat rows; an
/// objective that is NaN on either side is ignored).
bool dominatesRow(const double* a, const double* b, std::size_t m) {
  bool strictlyBetter = false;
  for (std::size_t i = 0; i < m; ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictlyBetter = true;
  }
  return strictlyBetter;
}

/// crowdingDistance over row-major objectives (m per member), into `dist`;
/// `order` is scratch.
void crowdingOf(const std::vector<double>& f, std::size_t m,
                std::span<const std::size_t> front, std::vector<double>& dist,
                std::vector<std::size_t>& order) {
  const std::size_t n = front.size();
  dist.assign(n, 0.0);
  if (n == 0) return;
  if (n <= 2) {
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<double>::infinity());
    return;
  }
  const auto at = [&](std::size_t k, std::size_t obj) {
    return f[front[k] * m + obj];
  };
  order.resize(n);
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
}

} // namespace

void ParetoRanking::rank(std::span<const Individual> pop,
                         std::size_t needed) {
  m_ = pop.empty() ? 0 : pop.front().objectives.size();
  f_.clear();
  for (const Individual& ind : pop) {
    MOTUNE_CHECK(ind.objectives.size() == m_);
    f_.insert(f_.end(), ind.objectives.begin(), ind.objectives.end());
  }
  rankRows(pop.size(), needed);
}

void ParetoRanking::rank(std::span<const double> flat, std::size_t m,
                         std::size_t needed) {
  MOTUNE_CHECK(m > 0 && flat.size() % m == 0);
  m_ = m;
  f_.assign(flat.begin(), flat.end());
  rankRows(flat.size() / m, needed);
}

void ParetoRanking::rankRows(std::size_t n, std::size_t needed) {
  order_.clear();
  start_.assign(1, 0);
  if (n == 0) return;
  // The sorted path needs `<` to be a strict weak order: no NaN.
  if (m_ == 2 && std::none_of(f_.begin(), f_.end(),
                              [](double v) { return std::isnan(v); }))
    rankTwo(n, needed);
  else
    rankPairwise(n);
}

/// The two-objective ranking in O(N log N), with the fronts in exactly the
/// order the pairwise peeling produces. Stops after the first fronts that
/// hold at least `needed` members.
void ParetoRanking::rankTwo(std::size_t n, std::size_t needed) {
  // Keys sorted by (f0, f1, index): a point's dominators all precede it,
  // and identical points are adjacent.
  keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) keys_[i] = {f_[2 * i], f_[2 * i + 1], i};
  std::sort(keys_.begin(), keys_.end(), [](const Key& a, const Key& b) {
    if (a.f0 != b.f0) return a.f0 < b.f0;
    if (a.f1 != b.f1) return a.f1 < b.f1;
    return a.index < b.index;
  });
  const auto same = [](const Key& a, const Key& b) {
    return a.f0 == b.f0 && a.f1 == b.f1;
  };

  rankOf_.resize(n);
  if (needed <= 1) {
    // Front 0 alone, in one sweep: a point is dominated iff some earlier,
    // non-identical point has f1 <= its f1. rankOf_ holds 0 or 1.
    double bestF1 = 0.0; // min f1 over the earlier, non-identical points
    bool dominated = false;
    for (std::size_t k = 0; k < n; ++k) {
      const Key& key = keys_[k];
      if (k == 0 || !same(key, keys_[k - 1])) {
        dominated = k > 0 && bestF1 <= key.f1;
        bestF1 = k > 0 ? std::min(bestF1, key.f1) : key.f1;
      }
      rankOf_[key.index] = dominated ? 1 : 0;
    }
    for (std::size_t i = 0; i < n; ++i)
      if (rankOf_[i] == 0) order_.push_back(i);
    start_.push_back(order_.size());
    return;
  }

  // Rank by binary search over each front's minimum f1, which never
  // decreases from one front to the next: a point joins the first front
  // none of whose (earlier) members has f1 <= its own.
  minF1_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const Key& key = keys_[k];
    if (k > 0 && same(key, keys_[k - 1])) {
      rankOf_[key.index] = rankOf_[keys_[k - 1].index];
      continue;
    }
    const auto r = static_cast<std::size_t>(
        std::upper_bound(minF1_.begin(), minF1_.end(), key.f1) -
        minF1_.begin());
    if (r == minF1_.size())
      minF1_.push_back(key.f1);
    else
      minF1_[r] = key.f1;
    rankOf_[key.index] = r;
  }
  const std::size_t fronts = minF1_.size();

  pos_.resize(n); // position within its front's order
  for (std::size_t i = 0; i < n; ++i)
    if (rankOf_[i] == 0) {
      pos_[i] = order_.size();
      order_.push_back(i);
    }
  start_.push_back(order_.size());
  if (fronts == 1 || order_.size() >= needed) return;

  // Each front as a staircase of key positions: f0 ascending, f1
  // non-increasing. stairStart_ counts, then offsets, then fill cursors.
  stairStart_.assign(fronts + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++stairStart_[rankOf_[i] + 1];
  for (std::size_t r = 0; r < fronts; ++r)
    stairStart_[r + 1] += stairStart_[r];
  stairs_.resize(n);
  window_.assign(stairStart_.begin(), stairStart_.end() - 1); // cursors
  for (std::size_t k = 0; k < n; ++k)
    stairs_[window_[rankOf_[keys_[k].index]]++] = k;

  // Peeling order. Front 0 is in ascending index order. A member of front
  // k+1 enters when its last dominator in front k (in that front's order)
  // releases it, dominators releasing in ascending index order; so front
  // k+1 is ordered by (that dominator's position, index). The dominators
  // of q in front k are the staircase members with f0 <= q.f0 (a prefix)
  // and f1 <= q.f1 (a suffix), one contiguous run whose ends only move
  // forward as q walks its own staircase, so a sliding-window maximum
  // finds each last dominator.
  for (std::size_t k = 0; k + 1 < fronts && order_.size() < needed; ++k) {
    const std::size_t* prev = stairs_.data() + stairStart_[k];
    const std::size_t prevSize = stairStart_[k + 1] - stairStart_[k];
    const auto prevPos = [&](std::size_t s) {
      return pos_[keys_[prev[s]].index];
    };
    keyed_.clear();
    window_.clear(); // stair offsets, pos strictly decreasing
    std::size_t head = 0, lo = 0, hi = 0;
    for (std::size_t s = stairStart_[k + 1]; s < stairStart_[k + 2]; ++s) {
      const Key& q = keys_[stairs_[s]];
      for (; hi < prevSize && keys_[prev[hi]].f0 <= q.f0; ++hi) {
        while (window_.size() > head && prevPos(window_.back()) <= prevPos(hi))
          window_.pop_back();
        window_.push_back(hi);
      }
      while (lo < hi && keys_[prev[lo]].f1 > q.f1) ++lo;
      MOTUNE_DCHECK(lo < hi); // q has a dominator in front k
      while (window_[head] < lo) ++head;
      keyed_.emplace_back(prevPos(window_[head]), q.index);
    }
    std::sort(keyed_.begin(), keyed_.end());
    const std::size_t begin = order_.size();
    for (const auto& [dominator, q] : keyed_) {
      pos_[q] = order_.size() - begin;
      order_.push_back(q);
    }
    start_.push_back(order_.size());
  }
}

/// Deb's pairwise peeling, O(m N^2): any number of objectives, NaN
/// included.
void ParetoRanking::rankPairwise(std::size_t n) {
  const std::size_t m = m_;
  const auto row = [&](std::size_t i) { return f_.data() + i * m; };
  std::vector<std::vector<std::size_t>> dominatesList(n);
  std::vector<int> dominatedBy(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dominatesRow(row(i), row(j), m)) {
        dominatesList[i].push_back(j);
        ++dominatedBy[j];
      } else if (dominatesRow(row(j), row(i), m)) {
        dominatesList[j].push_back(i);
        ++dominatedBy[i];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (dominatedBy[i] == 0) order_.push_back(i);
  // Front k is [start_.back(), order_.size()) while the next one grows.
  while (order_.size() > start_.back()) {
    const std::size_t begin = start_.back(), end = order_.size();
    start_.push_back(end);
    for (std::size_t at = begin; at < end; ++at)
      for (std::size_t j : dominatesList[order_[at]])
        if (--dominatedBy[j] == 0) order_.push_back(j);
  }
}

std::span<const std::size_t> ParetoRanking::survivors(std::size_t target) {
  selected_.clear();
  for (std::size_t k = 0; k < frontCount(); ++k) {
    const std::span<const std::size_t> members = front(k);
    if (selected_.size() + members.size() <= target) {
      selected_.insert(selected_.end(), members.begin(), members.end());
      if (selected_.size() == target) break;
      continue;
    }
    // Split front: keep the most crowded-distance-diverse members.
    crowdingOf(f_, m_, members, dist_, sortScratch_);
    byDistance_.resize(members.size());
    for (std::size_t i = 0; i < byDistance_.size(); ++i) byDistance_[i] = i;
    std::sort(byDistance_.begin(), byDistance_.end(),
              [&](std::size_t a, std::size_t b) { return dist_[a] > dist_[b]; });
    for (std::size_t j = 0; selected_.size() < target; ++j)
      selected_.push_back(members[byDistance_[j]]);
    break;
  }
  return selected_;
}

std::span<const std::size_t> ParetoRanking::worstFirst() {
  selected_.clear();
  for (std::size_t k = frontCount(); k-- > 0;) {
    const std::span<const std::size_t> members = front(k);
    crowdingOf(f_, m_, members, dist_, sortScratch_);
    // (distance, position) keys: ties stay in front order. Distances of
    // finite objectives are never NaN, as survivors() also relies on.
    distanceKeys_.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i)
      distanceKeys_[i] = {dist_[i], i};
    std::sort(distanceKeys_.begin(), distanceKeys_.end());
    for (const auto& [distance, i] : distanceKeys_)
      selected_.push_back(members[i]);
  }
  return selected_;
}

bool dominates(const Objectives& a, const Objectives& b) {
  MOTUNE_CHECK(a.size() == b.size() && !a.empty());
  return dominatesRow(a.data(), b.data(), a.size());
}

std::vector<std::size_t> nonDominatedIndices(std::span<const Individual> pop) {
  ParetoRanking ranking;
  ranking.rank(pop, 1);
  if (ranking.frontCount() == 0) return {};
  const std::span<const std::size_t> first = ranking.front(0);
  return {first.begin(), first.end()};
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
  std::vector<Individual> spare;
  insertIntoFront(front, candidate, spare);
}

void insertIntoFront(std::vector<Individual>& front,
                     const Individual& candidate,
                     std::vector<Individual>& spare) {
  for (const Individual& member : front)
    if (member.config == candidate.config ||
        dominates(member.objectives, candidate.objectives))
      return;
  // Survivors keep their order; swaps carry the dropped members' buffers
  // to the tail, from where they move to `spare`.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (dominates(candidate.objectives, front[i].objectives)) continue;
    if (kept != i) std::swap(front[kept], front[i]);
    ++kept;
  }
  for (std::size_t i = kept; i < front.size(); ++i)
    spare.push_back(std::move(front[i]));
  front.resize(kept);
  if (spare.empty()) {
    front.push_back(candidate);
    return;
  }
  front.push_back(std::move(spare.back()));
  spare.pop_back();
  front.back() = candidate;
}

std::vector<std::vector<std::size_t>>
nonDominatedSort(std::span<const Individual> pop) {
  ParetoRanking ranking;
  ranking.rank(pop);
  std::vector<std::vector<std::size_t>> fronts;
  for (std::size_t k = 0; k < ranking.frontCount(); ++k) {
    const std::span<const std::size_t> members = ranking.front(k);
    fronts.emplace_back(members.begin(), members.end());
  }
  return fronts;
}

std::vector<double> crowdingDistance(std::span<const Individual> pop,
                                     std::span<const std::size_t> front) {
  if (front.empty()) return {};
  const std::size_t m = pop[front[0]].objectives.size();
  std::vector<double> flat;
  flat.reserve(pop.size() * m);
  for (const Individual& ind : pop) {
    MOTUNE_CHECK(ind.objectives.size() == m);
    flat.insert(flat.end(), ind.objectives.begin(), ind.objectives.end());
  }
  std::vector<double> dist;
  std::vector<std::size_t> order;
  crowdingOf(flat, m, front, dist, order);
  return dist;
}

void truncateByRankAndCrowding(std::vector<Individual>& pop,
                               std::size_t target) {
  if (pop.size() <= target) return;
  ParetoRanking ranking;
  ranking.rank(pop, target);
  std::vector<Individual> out;
  out.reserve(target);
  for (std::size_t i : ranking.survivors(target))
    out.push_back(std::move(pop[i]));
  pop = std::move(out);
}

} // namespace motune::opt
