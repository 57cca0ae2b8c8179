#include "core/pareto.h"

#include "support/check.h"

#include <algorithm>
#include <limits>
#include <set>

namespace motune::opt {

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

std::vector<double> crowdingDistance(std::span<const Individual> pop,
                                     const std::vector<std::size_t>& front) {
  const std::size_t n = front.size();
  std::vector<double> dist(n, 0.0);
  if (n == 0) return dist;
  if (n <= 2) {
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<double>::infinity());
    return dist;
  }
  const std::size_t m = pop[front[0]].objectives.size();
  std::vector<std::size_t> order(n);
  for (std::size_t obj = 0; obj < m; ++obj) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return pop[front[a]].objectives[obj] < pop[front[b]].objectives[obj];
    });
    const double lo = pop[front[order.front()]].objectives[obj];
    const double hi = pop[front[order.back()]].objectives[obj];
    dist[order.front()] = std::numeric_limits<double>::infinity();
    dist[order.back()] = std::numeric_limits<double>::infinity();
    if (hi <= lo) continue;
    for (std::size_t k = 1; k + 1 < n; ++k) {
      dist[order[k]] += (pop[front[order[k + 1]]].objectives[obj] -
                         pop[front[order[k - 1]]].objectives[obj]) /
                        (hi - lo);
    }
  }
  return dist;
}

void truncateByRankAndCrowding(std::vector<Individual>& pop,
                               std::size_t target) {
  if (pop.size() <= target) return;
  const auto fronts = nonDominatedSort(pop);
  std::vector<Individual> out;
  out.reserve(target);
  for (const auto& front : fronts) {
    if (out.size() + front.size() <= target) {
      for (std::size_t i : front) out.push_back(std::move(pop[i]));
      if (out.size() == target) break;
      continue;
    }
    // Split front: keep the most crowded-distance-diverse members.
    const auto dist = crowdingDistance(pop, front);
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
