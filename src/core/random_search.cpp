#include "core/random_search.h"

#include "support/check.h"
#include "support/rng.h"

namespace motune::opt {

RandomSearch::RandomSearch(tuning::ObjectiveFunction& fn,
                           runtime::ThreadPool& pool,
                           RandomSearchOptions options)
    : fn_(fn), pool_(pool), options_(options) {
  MOTUNE_CHECK(options.budget >= 1);
}

OptResult RandomSearch::run() {
  const tuning::Boundary bounds = tuning::Boundary::fromSpace(fn_.space());
  support::Rng rng(options_.seed);

  tuning::CountingEvaluator counter(fn_);

  // Draw until `budget` unique configurations were evaluated (duplicates in
  // small spaces would otherwise silently shrink the budget).
  std::vector<Individual> all;
  while (counter.evaluations() < options_.budget) {
    const std::uint64_t missing = options_.budget - counter.evaluations();
    std::vector<tuning::Config> configs;
    std::vector<std::vector<double>> genomes;
    for (std::uint64_t i = 0; i < missing; ++i) {
      std::vector<double> g(bounds.dims());
      for (std::size_t d = 0; d < bounds.dims(); ++d)
        g[d] = rng.uniform(bounds.lo[d], bounds.hi[d]);
      configs.push_back(bounds.closestTo(g));
      genomes.push_back(std::move(g));
    }
    const auto objectives =
        counter.evaluateBatch(configs, pool_, options_.parallelEvaluation);
    for (std::size_t i = 0; i < configs.size(); ++i)
      all.push_back(
          {std::move(genomes[i]), std::move(configs[i]), *objectives[i]});
    if (all.size() > 4 * options_.budget) break; // tiny space: give up
  }

  OptResult res;
  res.front = paretoFront(all);
  res.population = std::move(all);
  res.evaluations = counter.evaluations();
  res.generations = 1;
  return res;
}

} // namespace motune::opt
