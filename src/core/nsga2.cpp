#include "core/nsga2.h"

#include "core/hypervolume.h"
#include "support/check.h"

#include <algorithm>
#include <cmath>

namespace motune::opt {

namespace {

/// SBX crossover for one gene pair.
std::pair<double, double> sbx(double a, double b, double lo, double hi,
                              double eta, support::Rng& rng) {
  if (std::abs(a - b) < 1e-14) return {a, b};
  const double u = rng.uniform();
  const double beta = u <= 0.5
                          ? std::pow(2.0 * u, 1.0 / (eta + 1.0))
                          : std::pow(1.0 / (2.0 * (1.0 - u)),
                                     1.0 / (eta + 1.0));
  double c1 = 0.5 * ((a + b) - beta * std::abs(b - a));
  double c2 = 0.5 * ((a + b) + beta * std::abs(b - a));
  return {std::clamp(c1, lo, hi), std::clamp(c2, lo, hi)};
}

/// Polynomial mutation for one gene.
double polyMutate(double x, double lo, double hi, double eta,
                  support::Rng& rng) {
  if (hi <= lo) return x;
  const double u = rng.uniform();
  const double delta = u < 0.5
                           ? std::pow(2.0 * u, 1.0 / (eta + 1.0)) - 1.0
                           : 1.0 - std::pow(2.0 * (1.0 - u),
                                            1.0 / (eta + 1.0));
  return std::clamp(x + delta * (hi - lo), lo, hi);
}

} // namespace

NSGA2::NSGA2(tuning::ObjectiveFunction& fn, runtime::ThreadPool& pool,
             NSGA2Options options)
    : fn_(fn), pool_(pool), options_(options) {
  MOTUNE_CHECK(options_.population >= 4 && options_.population % 2 == 0);
}

OptResult NSGA2::run() {
  const tuning::Boundary bounds = tuning::Boundary::fromSpace(fn_.space());
  const std::size_t dims = bounds.dims();
  const std::size_t n = options_.population;
  support::Rng rng(options_.seed);
  const double pm = options_.mutationProbPerGene > 0
                        ? options_.mutationProbPerGene
                        : 1.0 / static_cast<double>(dims);

  tuning::CountingEvaluator counter(fn_);

  auto evaluateGenomes = [&](std::vector<std::vector<double>> genomes) {
    std::vector<tuning::Config> configs;
    configs.reserve(genomes.size());
    for (const auto& g : genomes) configs.push_back(bounds.closestTo(g));
    const auto objs =
        counter.evaluateBatch(configs, pool_, options_.parallelEvaluation);
    std::vector<Individual> out;
    out.reserve(genomes.size());
    for (std::size_t i = 0; i < genomes.size(); ++i)
      out.push_back({std::move(genomes[i]), std::move(configs[i]), *objs[i]});
    return out;
  };

  // Initial population.
  std::vector<std::vector<double>> genomes;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> g(dims);
    for (std::size_t d = 0; d < dims; ++d)
      g[d] = rng.uniform(bounds.lo[d], bounds.hi[d]);
    genomes.push_back(std::move(g));
  }
  std::vector<Individual> pop = evaluateGenomes(std::move(genomes));

  // Fixed normalization from the initial sample (as in GDE3).
  Objectives worst(pop.front().objectives.size(), 0.0);
  for (const auto& ind : pop)
    for (std::size_t d = 0; d < worst.size(); ++d)
      worst[d] = std::max(worst[d], ind.objectives[d]);
  for (double& w : worst) w = std::max(w * 1.1, 1e-300);
  const HypervolumeMetric metric(std::move(worst));

  std::vector<double> hvHistory{metric.ofFront(paretoFront(pop))};
  double bestHv = hvHistory.front();
  int flat = 0;
  int gen = 0;

  while (gen < options_.maxGenerations && flat < options_.noImproveLimit) {
    // Rank + crowding for tournament selection.
    const auto fronts = nonDominatedSort(pop);
    std::vector<int> rank(pop.size(), 0);
    std::vector<double> crowd(pop.size(), 0.0);
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      const auto d = crowdingDistance(pop, fronts[f]);
      for (std::size_t k = 0; k < fronts[f].size(); ++k) {
        rank[fronts[f][k]] = static_cast<int>(f);
        crowd[fronts[f][k]] = d[k];
      }
    }
    auto tournament = [&] {
      const auto a = static_cast<std::size_t>(rng.uniformInt(0, pop.size() - 1));
      const auto b = static_cast<std::size_t>(rng.uniformInt(0, pop.size() - 1));
      if (rank[a] != rank[b]) return rank[a] < rank[b] ? a : b;
      return crowd[a] >= crowd[b] ? a : b;
    };

    std::vector<std::vector<double>> offspring;
    offspring.reserve(n);
    while (offspring.size() < n) {
      const auto& p1 = pop[tournament()].genome;
      const auto& p2 = pop[tournament()].genome;
      std::vector<double> c1 = p1;
      std::vector<double> c2 = p2;
      if (rng.uniform() < options_.crossoverProb) {
        for (std::size_t d = 0; d < dims; ++d) {
          if (rng.uniform() < 0.5) continue;
          std::tie(c1[d], c2[d]) = sbx(p1[d], p2[d], bounds.lo[d],
                                       bounds.hi[d], options_.sbxEta, rng);
        }
      }
      for (std::size_t d = 0; d < dims; ++d) {
        if (rng.uniform() < pm)
          c1[d] = polyMutate(c1[d], bounds.lo[d], bounds.hi[d],
                             options_.mutationEta, rng);
        if (rng.uniform() < pm)
          c2[d] = polyMutate(c2[d], bounds.lo[d], bounds.hi[d],
                             options_.mutationEta, rng);
      }
      offspring.push_back(std::move(c1));
      if (offspring.size() < n) offspring.push_back(std::move(c2));
    }

    std::vector<Individual> children = evaluateGenomes(std::move(offspring));
    for (auto& c : children) pop.push_back(std::move(c));
    truncateByRankAndCrowding(pop, n);

    ++gen;
    const double hv = metric.ofFront(paretoFront(pop));
    hvHistory.push_back(hv);
    flat = hv > bestHv * (1.0 + options_.improveEpsilon) ? 0 : flat + 1;
    bestHv = std::max(bestHv, hv);
  }

  OptResult res;
  res.front = paretoFront(pop);
  res.population = std::move(pop);
  res.evaluations = counter.evaluations();
  res.generations = gen;
  res.hvHistory = std::move(hvHistory);
  return res;
}

} // namespace motune::opt
