#include "core/grid_search.h"

#include "support/check.h"

#include <algorithm>
#include <cmath>

namespace motune::opt {

std::uint64_t GridSpec::points() const {
  std::uint64_t n = 1;
  for (const auto& dim : values) n *= dim.size();
  return n;
}

std::vector<std::int64_t> geometricValues(std::int64_t lo, std::int64_t hi,
                                          std::size_t count) {
  MOTUNE_CHECK(lo >= 1 && hi >= lo && count >= 1);
  std::vector<std::int64_t> out;
  const double ratio =
      count > 1 ? std::pow(static_cast<double>(hi) / lo,
                           1.0 / static_cast<double>(count - 1))
                : 1.0;
  double x = static_cast<double>(lo);
  for (std::size_t i = 0; i < count; ++i) {
    auto v = static_cast<std::int64_t>(std::llround(x));
    v = std::clamp(v, lo, hi);
    if (out.empty() || v > out.back()) out.push_back(v);
    x = std::max(x * ratio, x + 1.0); // at least +1 to avoid stalling
  }
  if (out.back() != hi) out.push_back(hi);
  return out;
}

GridSearch::GridSearch(tuning::ObjectiveFunction& fn,
                       runtime::ThreadPool& pool, GridSpec spec,
                       bool parallelEvaluation)
    : fn_(fn), pool_(pool), spec_(std::move(spec)),
      parallel_(parallelEvaluation) {
  MOTUNE_CHECK(spec_.values.size() == fn.space().size());
  for (const auto& dim : spec_.values) MOTUNE_CHECK(!dim.empty());
}

OptResult GridSearch::run() {
  // Enumerate the cartesian product.
  std::vector<tuning::Config> configs;
  configs.reserve(spec_.points());
  tuning::Config current(spec_.values.size());
  std::vector<std::size_t> idx(spec_.values.size(), 0);
  bool done = false;
  while (!done) {
    for (std::size_t d = 0; d < idx.size(); ++d)
      current[d] = spec_.values[d][idx[d]];
    configs.push_back(current);
    // Odometer increment, innermost dimension fastest.
    std::size_t d = idx.size();
    for (;;) {
      if (d == 0) {
        done = true;
        break;
      }
      --d;
      if (++idx[d] < spec_.values[d].size()) break;
      idx[d] = 0;
    }
  }

  tuning::CountingEvaluator counter(fn_);
  const auto objectives = counter.evaluateBatch(configs, pool_, parallel_);

  OptResult res;
  res.population.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::vector<double> genome(configs[i].begin(), configs[i].end());
    res.population.push_back(
        {std::move(genome), configs[i], *objectives[i]});
  }
  res.front = paretoFront(res.population);
  res.evaluations = counter.evaluations();
  res.generations = 1;
  return res;
}

} // namespace motune::opt
