#include "core/gde3.h"
#include "core/grid_search.h"
#include "core/hypervolume.h"
#include "core/nsga2.h"
#include "core/pareto.h"
#include "core/random_search.h"
#include "core/roughset.h"
#include "core/rsgde3.h"
#include "core/testproblems.h"
#include "support/check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace motune::opt {
namespace {

runtime::ThreadPool& pool() {
  static runtime::ThreadPool p(4);
  return p;
}

// --- dominance / sorting -----------------------------------------------------

TEST(Pareto, DominanceDefinition) {
  EXPECT_TRUE(dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {2, 2})); // equal: not strictly better
  EXPECT_FALSE(dominates({1, 3}, {2, 2})); // trade-off
  EXPECT_FALSE(dominates({2, 2}, {1, 3}));
}

TEST(Pareto, DominanceIsAntisymmetricAndTransitive) {
  support::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const Objectives a{rng.uniform(), rng.uniform()};
    const Objectives b{rng.uniform(), rng.uniform()};
    const Objectives c{rng.uniform(), rng.uniform()};
    EXPECT_FALSE(dominates(a, b) && dominates(b, a));
    if (dominates(a, b) && dominates(b, c)) {
      EXPECT_TRUE(dominates(a, c));
    }
  }
}

std::vector<Individual> makePop(std::initializer_list<Objectives> objs) {
  std::vector<Individual> pop;
  std::int64_t id = 0;
  for (const auto& o : objs) pop.push_back({{}, {id++}, o});
  return pop;
}

TEST(Pareto, FrontExtraction) {
  const auto pop = makePop({{1, 4}, {2, 3}, {3, 3}, {4, 1}, {2, 5}});
  const auto front = paretoFront(pop);
  ASSERT_EQ(front.size(), 3u);
  std::set<std::int64_t> ids;
  for (const auto& ind : front) ids.insert(ind.config[0]);
  EXPECT_EQ(ids, (std::set<std::int64_t>{0, 1, 3}));
}

TEST(Pareto, FrontDeduplicatesConfigs) {
  std::vector<Individual> pop;
  pop.push_back({{}, {7}, {1, 2}});
  pop.push_back({{}, {7}, {1, 2}});
  EXPECT_EQ(paretoFront(pop).size(), 1u);
}

TEST(Pareto, IncrementalFrontMatchesRebuiltFrontAfterEveryInsert) {
  // Differential test of insertIntoFront against paretoFront over random
  // streams: a small config pool (so configs repeat, including dominated
  // re-inserts of earlier members) and small integer objectives (so
  // distinct configs tie on whole objective vectors). Each config keeps
  // one objective vector, as the memoized evaluator guarantees. After
  // every insert the members and their order must equal the rebuilt front.
  for (const std::size_t m : {2u, 3u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("objectives " + std::to_string(m) + ", seed " +
                   std::to_string(seed));
      support::Rng rng(seed);
      const std::size_t configs = 8 + seed % 24;
      std::vector<Objectives> objectivesOf(configs, Objectives(m));
      for (auto& o : objectivesOf)
        for (double& v : o) v = static_cast<double>(rng.uniformInt(0, 4));

      std::vector<Individual> stream, front;
      for (int i = 0; i < 150; ++i) {
        const auto c = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(configs) - 1));
        stream.push_back({{static_cast<double>(i)},
                          {static_cast<std::int64_t>(c)},
                          objectivesOf[c]});
        insertIntoFront(front, stream.back());
        const std::vector<Individual> rebuilt = paretoFront(stream);
        ASSERT_EQ(front.size(), rebuilt.size()) << "insert " << i;
        for (std::size_t k = 0; k < front.size(); ++k) {
          EXPECT_EQ(front[k].config, rebuilt[k].config) << "insert " << i;
          EXPECT_EQ(front[k].genome, rebuilt[k].genome) << "insert " << i;
          EXPECT_EQ(front[k].objectives, rebuilt[k].objectives);
        }
      }
    }
  }
}

TEST(Pareto, NonDominatedSortRanks) {
  const auto pop = makePop({{1, 4}, {4, 1}, {2, 5}, {5, 2}, {3, 6}});
  const auto fronts = nonDominatedSort(pop);
  ASSERT_GE(fronts.size(), 2u);
  EXPECT_EQ(fronts[0].size(), 2u); // (1,4) and (4,1)
  // Every member of front k+1 is dominated by someone in front <= k.
  for (std::size_t f = 1; f < fronts.size(); ++f)
    for (std::size_t i : fronts[f]) {
      bool dominated = false;
      for (std::size_t g = 0; g < f && !dominated; ++g)
        for (std::size_t j : fronts[g])
          if (dominates(pop[j].objectives, pop[i].objectives)) {
            dominated = true;
            break;
          }
      EXPECT_TRUE(dominated);
    }
}

TEST(Pareto, CrowdingBoundariesInfinite) {
  const auto pop = makePop({{1, 5}, {2, 3}, {3, 2}, {5, 1}});
  const std::vector<std::size_t> front{0, 1, 2, 3};
  const auto d = crowdingDistance(pop, front);
  EXPECT_TRUE(std::isinf(d[0]));
  EXPECT_TRUE(std::isinf(d[3]));
  EXPECT_FALSE(std::isinf(d[1]));
  EXPECT_FALSE(std::isinf(d[2]));
}

TEST(Pareto, TruncationKeepsBestRanks) {
  auto pop = makePop({{1, 4}, {4, 1}, {2, 5}, {5, 2}, {3, 6}, {6, 3}});
  truncateByRankAndCrowding(pop, 2);
  ASSERT_EQ(pop.size(), 2u);
  std::set<std::int64_t> ids;
  for (const auto& ind : pop) ids.insert(ind.config[0]);
  EXPECT_EQ(ids, (std::set<std::int64_t>{0, 1}));
}

TEST(Pareto, TruncationPrefersSpreadWithinFront) {
  // One big front on a line; truncation must keep the two extremes.
  auto pop = makePop({{1, 9}, {2, 8}, {3, 7}, {5, 5}, {9, 1}});
  truncateByRankAndCrowding(pop, 3);
  std::set<std::int64_t> ids;
  for (const auto& ind : pop) ids.insert(ind.config[0]);
  EXPECT_TRUE(ids.count(0));
  EXPECT_TRUE(ids.count(4));
}

// --- the two-objective sort against Deb's pairwise peeling -----------------

/// Reference copy of Deb's pairwise peeling (the O(N^2) nonDominatedSort),
/// whose exact front order the two-objective sort must reproduce.
std::vector<std::vector<std::size_t>>
referenceSort(const std::vector<Individual>& pop) {
  const std::size_t n = pop.size();
  std::vector<std::vector<std::size_t>> dominatesList(n);
  std::vector<int> dominatedBy(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dominates(pop[i].objectives, pop[j].objectives)) {
        dominatesList[i].push_back(j);
        ++dominatedBy[j];
      } else if (dominates(pop[j].objectives, pop[i].objectives)) {
        dominatesList[j].push_back(i);
        ++dominatedBy[i];
      }
    }
  std::vector<std::vector<std::size_t>> fronts;
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i)
    if (dominatedBy[i] == 0) current.push_back(i);
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : current)
      for (std::size_t j : dominatesList[i])
        if (--dominatedBy[j] == 0) next.push_back(j);
    fronts.push_back(std::move(current));
    current = std::move(next);
  }
  return fronts;
}

std::vector<std::size_t> bruteForceFirstFront(
    const std::vector<Individual>& pop) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pop.size(); ++j)
      dominated = dominated || dominates(pop[j].objectives, pop[i].objectives);
    if (!dominated) out.push_back(i);
  }
  return out;
}

/// Reference truncation: the reference sort, then NSGA-II crowding on the
/// split front with the same sorts and comparators as the library.
std::vector<std::int64_t> referenceSurvivors(const std::vector<Individual>& pop,
                                             std::size_t target) {
  std::vector<std::int64_t> out;
  if (pop.size() <= target) { // nothing to cut: the order is kept
    for (const auto& ind : pop) out.push_back(ind.config[0]);
    return out;
  }
  for (const auto& front : referenceSort(pop)) {
    if (out.size() + front.size() <= target) {
      for (std::size_t i : front) out.push_back(pop[i].config[0]);
      if (out.size() == target) break;
      continue;
    }
    const std::size_t n = front.size();
    std::vector<double> dist(n, 0.0);
    if (n <= 2) {
      std::fill(dist.begin(), dist.end(), HUGE_VAL);
    } else {
      std::vector<std::size_t> order(n);
      for (std::size_t obj = 0; obj < 2; ++obj) {
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    return pop[front[a]].objectives[obj] <
                           pop[front[b]].objectives[obj];
                  });
        const double lo = pop[front[order.front()]].objectives[obj];
        const double hi = pop[front[order.back()]].objectives[obj];
        dist[order.front()] = HUGE_VAL;
        dist[order.back()] = HUGE_VAL;
        if (hi <= lo) continue;
        for (std::size_t k = 1; k + 1 < n; ++k)
          dist[order[k]] += (pop[front[order[k + 1]]].objectives[obj] -
                             pop[front[order[k - 1]]].objectives[obj]) /
                            (hi - lo);
      }
    }
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
    for (std::size_t k = 0; out.size() < target; ++k)
      out.push_back(pop[front[order[k]]].config[0]);
    break;
  }
  return out;
}

/// A seeded random two-objective population of 0-80 members, config i at
/// index i, in one of four shapes: a tie-heavy integer grid (with signed
/// zeros and infinities), a few points repeated many times, uniform
/// continuous points, or a noisy anti-correlated front.
std::vector<Individual> randomTwoObjectivePop(support::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniformInt(0, 80));
  const auto shape = rng.uniformInt(0, 3);
  const auto grid = static_cast<double>(rng.uniformInt(1, 6));
  std::vector<Objectives> pool(
      static_cast<std::size_t>(rng.uniformInt(1, 6)));
  for (auto& o : pool) o = {rng.uniform(), rng.uniform()};
  const auto gridValue = [&] {
    const auto v = static_cast<double>(rng.uniformInt(0, 7));
    if (v > grid) return v == 7.0 ? HUGE_VAL : grid; // piles on the edge
    return v == 0.0 && rng.uniform() < 0.5 ? -0.0 : v;
  };
  std::vector<Individual> pop;
  for (std::size_t i = 0; i < n; ++i) {
    Objectives o;
    switch (shape) {
    case 0: o = {gridValue(), gridValue()}; break;
    case 1:
      o = pool[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
      break;
    case 2: o = {rng.uniform(), rng.uniform()}; break;
    default: {
      const double x = rng.uniform();
      o = {x, 1.0 - x + 0.3 * rng.uniform() * rng.uniform()};
    }
    }
    pop.push_back({{}, {static_cast<std::int64_t>(i)}, std::move(o)});
  }
  return pop;
}

TEST(Pareto, TwoObjectiveSortMatchesPairwisePeelingExactly) {
  // Population order drives the search's RNG stream, so the sorted
  // two-objective path must return the pairwise peeling's fronts in the
  // same order, not just the same partition.
  support::Rng rng(20261019);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::vector<Individual> pop = randomTwoObjectivePop(rng);
    ASSERT_EQ(nonDominatedSort(pop), referenceSort(pop)) << "trial " << trial;
    ASSERT_EQ(nonDominatedIndices(pop), bruteForceFirstFront(pop))
        << "trial " << trial;
    const auto target = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(pop.size())));
    // Crowding distances over an infinite span are NaN, which the
    // descending-distance sort cannot order: compare finite cuts only.
    if (std::any_of(pop.begin(), pop.end(), [](const Individual& ind) {
          return std::isinf(ind.objectives[0]) || std::isinf(ind.objectives[1]);
        }))
      continue;
    std::vector<Individual> truncated = pop;
    truncateByRankAndCrowding(truncated, target);
    std::vector<std::int64_t> survivors;
    for (const auto& ind : truncated) survivors.push_back(ind.config[0]);
    ASSERT_EQ(survivors, referenceSurvivors(pop, target)) << "trial " << trial;
    // Truncation keeps whole fronts before the split one, so the first
    // front of what it keeps is the prefix of front 0 the ranking reports.
    if (pop.size() > target) {
      ParetoRanking ranking;
      ranking.rank(pop, target);
      std::vector<std::size_t> prefix(
          std::min(ranking.front(0).size(), target));
      for (std::size_t k = 0; k < prefix.size(); ++k) prefix[k] = k;
      ASSERT_EQ(nonDominatedIndices(truncated), prefix) << "trial " << trial;
    }
  }
}

TEST(Pareto, NaNPopulationTakesThePairwisePath) {
  // A NaN breaks the strict weak order the sorted path needs; such a
  // population is peeled pairwise, as before the sorted path existed.
  support::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Individual> pop = randomTwoObjectivePop(rng);
    if (pop.empty()) continue;
    const auto victim = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(pop.size()) - 1));
    pop[victim].objectives[static_cast<std::size_t>(rng.uniformInt(0, 1))] =
        std::nan("");
    ASSERT_EQ(nonDominatedSort(pop), referenceSort(pop)) << "trial " << trial;
    ASSERT_EQ(nonDominatedIndices(pop), bruteForceFirstFront(pop))
        << "trial " << trial;
  }
}

// --- hypervolume --------------------------------------------------------------

TEST(Hypervolume, SinglePointRectangle) {
  EXPECT_DOUBLE_EQ(hypervolume2d({{0.25, 0.5}}, {1.0, 1.0}), 0.75 * 0.5);
}

TEST(Hypervolume, DominatedPointAddsNothing) {
  const double v1 = hypervolume2d({{0.2, 0.2}}, {1.0, 1.0});
  const double v2 = hypervolume2d({{0.2, 0.2}, {0.5, 0.5}}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(v1, v2);
}

TEST(Hypervolume, TwoPointStaircase) {
  // (0.2, 0.6) and (0.6, 0.2): union of two rectangles minus overlap.
  const double v =
      hypervolume2d({{0.2, 0.6}, {0.6, 0.2}}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(v, 0.8 * 0.4 + 0.4 * (0.8 - 0.4));
}

TEST(Hypervolume, PointsOutsideReferenceClipped) {
  EXPECT_DOUBLE_EQ(hypervolume2d({{2.0, 0.1}}, {1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume2d({{-1.0, 0.5}}, {1.0, 1.0}), 0.5);
}

TEST(Hypervolume, NdMatches2dOnDegenerateThird) {
  // Lift the 2-D staircase into 3-D with z = 0: volume is identical.
  const double v2 =
      hypervolume2d({{0.2, 0.6}, {0.6, 0.2}}, {1.0, 1.0});
  const double v3 = hypervolumeNd({{0.2, 0.6, 0.0}, {0.6, 0.2, 0.0}},
                                  {1.0, 1.0, 1.0});
  EXPECT_NEAR(v2, v3, 1e-12);
}

TEST(Hypervolume, NdCube) {
  EXPECT_NEAR(hypervolumeNd({{0.5, 0.5, 0.5}}, {1.0, 1.0, 1.0}), 0.125,
              1e-12);
}

TEST(Hypervolume, MetricNormalizes) {
  const HypervolumeMetric metric({2.0, 4.0});
  EXPECT_DOUBLE_EQ(metric({{1.0, 2.0}}), 0.25); // (0.5, 0.5) in unit box
}

TEST(Hypervolume, IdealFrontValuesMatchClosedForms) {
  EXPECT_NEAR(idealHypervolume("schaffer"), 5.0 / 6.0, 1e-4);
  EXPECT_NEAR(idealHypervolume("zdt1"), 2.0 / 3.0, 1e-4);
  EXPECT_NEAR(idealHypervolume("zdt2"), 1.0 / 3.0, 1e-4);
  EXPECT_GT(idealHypervolume("fonseca"), 0.2);
  EXPECT_GT(idealHypervolume("zdt6"), 0.2);
}

// --- rough-set reduction -------------------------------------------------------

TEST(RoughSet, BoundsFromDominatedWitnesses) {
  // 1-D: non-dominated at x=5; dominated at 2 and 8 -> boundary [2, 8].
  std::vector<Individual> pop;
  pop.push_back({{}, {5}, {1.0, 1.0}});  // non-dominated
  pop.push_back({{}, {2}, {2.0, 2.0}});  // dominated, below
  pop.push_back({{}, {8}, {3.0, 3.0}});  // dominated, above
  tuning::Boundary full;
  full.lo = {0.0};
  full.hi = {10.0};
  const tuning::Boundary reduced = roughSetReduce(pop, full);
  EXPECT_DOUBLE_EQ(reduced.lo[0], 2.0);
  EXPECT_DOUBLE_EQ(reduced.hi[0], 8.0);
}

TEST(RoughSet, EnclosesAllNonDominated) {
  support::Rng rng(3);
  tuning::Boundary full;
  full.lo = {0.0, 0.0};
  full.hi = {100.0, 100.0};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Individual> pop;
    for (int i = 0; i < 30; ++i) {
      const Config c{rng.uniformInt(0, 100), rng.uniformInt(0, 100)};
      pop.push_back({{}, c,
                     {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}});
    }
    const tuning::Boundary reduced = roughSetReduce(pop, full);
    for (std::size_t i : nonDominatedIndices(pop))
      EXPECT_TRUE(reduced.contains(pop[i].config));
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_GE(reduced.lo[d], full.lo[d]);
      EXPECT_LE(reduced.hi[d], full.hi[d]);
    }
  }
}

TEST(RoughSet, AllNonDominatedKeepsFullSpace) {
  std::vector<Individual> pop;
  pop.push_back({{}, {1}, {1.0, 2.0}});
  pop.push_back({{}, {9}, {2.0, 1.0}});
  tuning::Boundary full;
  full.lo = {0.0};
  full.hi = {10.0};
  const tuning::Boundary reduced = roughSetReduce(pop, full);
  EXPECT_DOUBLE_EQ(reduced.lo[0], 0.0);
  EXPECT_DOUBLE_EQ(reduced.hi[0], 10.0);
}

// --- search algorithms on known-front problems ---------------------------------

void expectConverges(SyntheticProblem problem, double hvTarget,
                     double fraction) {
  GDE3Options opt;
  opt.population = 40;
  opt.maxGenerations = 120;
  opt.noImproveLimit = 10;
  opt.seed = 17;
  RSGDE3 engine(problem, pool(), {opt, true});
  const OptResult res = engine.run();
  ASSERT_FALSE(res.front.empty());

  std::vector<Objectives> pts;
  for (const auto& ind : res.front) pts.push_back(ind.objectives);
  double hv;
  if (problem.name() == "schaffer") {
    for (auto& p : pts) {
      p[0] /= 4.0;
      p[1] /= 4.0;
    }
    hv = hypervolume2d(pts, {1.0, 1.0});
  } else {
    hv = hypervolume2d(pts, {1.0, 1.0});
  }
  EXPECT_GE(hv, fraction * hvTarget)
      << problem.name() << ": hv=" << hv << " target=" << hvTarget;
}

TEST(RSGDE3, ConvergesOnSchaffer) {
  expectConverges(makeSchaffer(), idealHypervolume("schaffer"), 0.98);
}

TEST(RSGDE3, ConvergesOnFonseca) {
  expectConverges(makeFonseca(), idealHypervolume("fonseca"), 0.92);
}

TEST(RSGDE3, ConvergesOnZDT1) {
  expectConverges(makeZDT1(), idealHypervolume("zdt1"), 0.80);
}

TEST(RSGDE3, ConvergesOnZDT2) {
  expectConverges(makeZDT2(), idealHypervolume("zdt2"), 0.60);
}

TEST(GDE3, FrontIsMutuallyNonDominated) {
  SyntheticProblem problem = makeZDT1();
  GDE3Options opt;
  opt.maxGenerations = 20;
  opt.seed = 5;
  GDE3 engine(problem, pool(), opt);
  const OptResult res = engine.run();
  for (std::size_t i = 0; i < res.front.size(); ++i)
    for (std::size_t j = 0; j < res.front.size(); ++j)
      EXPECT_FALSE(i != j && dominates(res.front[i].objectives,
                                       res.front[j].objectives));
}

TEST(GDE3, PopulationSizeInvariant) {
  SyntheticProblem problem = makeKursawe();
  GDE3Options opt;
  opt.population = 24;
  opt.maxGenerations = 15;
  opt.noImproveLimit = 100; // force full generations
  GDE3 engine(problem, pool(), opt);
  engine.initialize();
  for (int g = 0; g < 15; ++g) {
    engine.step();
    EXPECT_EQ(engine.population().size(), 24u);
  }
}

TEST(GDE3, DeterministicGivenSeed) {
  auto runOnce = [] {
    SyntheticProblem problem = makeFonseca();
    GDE3Options opt;
    opt.maxGenerations = 10;
    opt.noImproveLimit = 100;
    opt.seed = 99;
    opt.parallelEvaluation = false;
    GDE3 engine(problem, pool(), opt);
    return engine.run();
  };
  const OptResult a = runOnce();
  const OptResult b = runOnce();
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i)
    EXPECT_EQ(a.front[i].config, b.front[i].config);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(GDE3, FirstStepCountsTheInitialFrontAsGrowth) {
  // The front-size baseline starts at 0, so the first generation after
  // initialize() always counts as growth, and a generation-0 checkpoint
  // carries that baseline. With an unreachable hypervolume epsilon the
  // step's verdict is front growth alone.
  SyntheticProblem problemA = makeFonseca();
  SyntheticProblem problemB = makeFonseca();
  GDE3Options opt;
  opt.seed = 4;
  opt.improveEpsilon = 1e9;
  GDE3 a(problemA, pool(), opt);
  a.initialize();
  EXPECT_EQ(a.lastFrontSize(), 0u);
  GDE3 b(problemB, pool(), opt);
  b.restore(support::Json::parse(a.serialize().dump(-1)));
  EXPECT_EQ(b.lastFrontSize(), 0u);

  EXPECT_TRUE(a.step());
  EXPECT_TRUE(b.step());
  EXPECT_GT(a.lastFrontSize(), 0u);
  EXPECT_EQ(a.lastFrontSize(), b.lastFrontSize());
}

TEST(GDE3, RestoreIntoAUsedEngineContinuesIdentically) {
  // An engine that has already searched holds recycled member storage
  // and a cached first front. Restoring a checkpoint into it must
  // continue exactly as the same checkpoint restored into a fresh engine.
  SyntheticProblem problemA = makeZDT1();
  SyntheticProblem problemUsed = makeZDT1();
  SyntheticProblem problemFresh = makeZDT1();
  GDE3Options opt;
  opt.seed = 7;
  GDE3 source(problemA, pool(), opt);
  source.initialize();
  for (int g = 0; g < 5; ++g) source.step();
  const support::Json state = source.serialize();

  GDE3Options usedOpt = opt;
  usedOpt.seed = 11;
  GDE3 used(problemUsed, pool(), usedOpt);
  used.initialize();
  for (int g = 0; g < 12; ++g) used.step();
  used.restore(state);
  GDE3 fresh(problemFresh, pool(), opt);
  fresh.restore(state);

  for (int g = 0; g < 10; ++g) {
    EXPECT_EQ(used.step(), fresh.step()) << "generation " << g;
    EXPECT_EQ(used.firstFront(), fresh.firstFront()) << "generation " << g;
    std::string usedText, freshText;
    used.encodeState(usedText);
    fresh.encodeState(freshText);
    ASSERT_EQ(usedText, freshText) << "generation " << g;
  }
}

TEST(GDE3, TerminatesOnNoImprovement) {
  SyntheticProblem problem = makeSchaffer(); // easy: converges quickly
  GDE3Options opt;
  opt.maxGenerations = 1000;
  opt.noImproveLimit = 3;
  opt.seed = 2;
  GDE3 engine(problem, pool(), opt);
  const OptResult res = engine.run();
  EXPECT_LT(res.generations, 200); // must stop well before the cap
}

TEST(GDE3, RespectsExternalBoundary) {
  SyntheticProblem problem = makeSchaffer();
  GDE3Options opt;
  opt.maxGenerations = 5;
  opt.noImproveLimit = 100;
  GDE3 engine(problem, pool(), opt);
  engine.initialize();
  tuning::Boundary tight;
  tight.lo = {4000.0}; // decodes to x in [~-2, ...] on the integer grid
  tight.hi = {6000.0};
  engine.setBoundary(tight);
  for (int g = 0; g < 5; ++g) engine.step();
  // All *new* members come from the boundary; the invariant we can check
  // cheaply is that the final population is valid and non-empty.
  EXPECT_EQ(engine.population().size(), opt.population);
}

TEST(RSGDE3, ReductionUsesFewerOrEqualEvaluations) {
  // Not a strict theorem, but on the smooth ZDT1 the reduced search should
  // not be wildly more expensive; mainly this exercises the reduction path.
  SyntheticProblem p1 = makeZDT1();
  SyntheticProblem p2 = makeZDT1();
  GDE3Options opt;
  opt.maxGenerations = 30;
  opt.seed = 7;
  RSGDE3 with(p1, pool(), {opt, true});
  RSGDE3 without(p2, pool(), {opt, false});
  const OptResult a = with.run();
  const OptResult b = without.run();
  EXPECT_GT(a.evaluations, 0u);
  EXPECT_GT(b.evaluations, 0u);
  EXPECT_LT(a.evaluations, 10000u);
}

TEST(RandomSearch, RespectsBudgetAndReturnsFront) {
  SyntheticProblem problem = makeZDT1();
  RandomSearch rs(problem, pool(), {500, 3, true});
  const OptResult res = rs.run();
  EXPECT_EQ(res.evaluations, 500u);
  ASSERT_FALSE(res.front.empty());
  for (std::size_t i = 0; i < res.front.size(); ++i)
    for (std::size_t j = 0; j < res.front.size(); ++j)
      EXPECT_FALSE(i != j && dominates(res.front[i].objectives,
                                       res.front[j].objectives));
}

TEST(RandomSearch, MuchWorseThanRSGDE3AtEqualBudget) {
  // The paper's qualitative claim (Fig. 9 / Table VI): random search "is
  // very far off the quality achieved by the other techniques".
  SyntheticProblem p1 = makeZDT1();
  GDE3Options opt;
  opt.maxGenerations = 60;
  opt.noImproveLimit = 8;
  opt.seed = 21;
  RSGDE3 engine(p1, pool(), {opt, true});
  const OptResult rsRes = engine.run();

  SyntheticProblem p2 = makeZDT1();
  RandomSearch rand(p2, pool(), {rsRes.evaluations, 21, true});
  const OptResult randRes = rand.run();

  auto hv = [](const OptResult& r) {
    std::vector<Objectives> pts;
    for (const auto& ind : r.front) pts.push_back(ind.objectives);
    return hypervolume2d(pts, {1.0, 1.0});
  };
  EXPECT_GT(hv(rsRes), 1.5 * hv(randRes));
}

TEST(GridSearch, EnumeratesFullCartesianProduct) {
  SyntheticProblem problem = makeSchaffer();
  GridSpec spec;
  spec.values = {{0, 2500, 5000, 7500, 10000}};
  GridSearch grid(problem, pool(), spec);
  const OptResult res = grid.run();
  EXPECT_EQ(res.evaluations, 5u);
  EXPECT_EQ(res.population.size(), 5u);
  ASSERT_FALSE(res.front.empty());
}

TEST(GridSearch, GeometricValuesCoverRange) {
  const auto vals = geometricValues(1, 700, 24);
  EXPECT_EQ(vals.front(), 1);
  EXPECT_EQ(vals.back(), 700);
  EXPECT_GE(vals.size(), 20u);
  for (std::size_t i = 1; i < vals.size(); ++i)
    EXPECT_GT(vals[i], vals[i - 1]);
}

TEST(NSGA2, ConvergesOnSchaffer) {
  SyntheticProblem problem = makeSchaffer();
  NSGA2Options opt;
  opt.population = 40;
  opt.maxGenerations = 80;
  opt.noImproveLimit = 10;
  opt.seed = 4;
  NSGA2 engine(problem, pool(), opt);
  const OptResult res = engine.run();
  std::vector<Objectives> pts;
  for (const auto& ind : res.front)
    pts.push_back({ind.objectives[0] / 4.0, ind.objectives[1] / 4.0});
  EXPECT_GE(hypervolume2d(pts, {1.0, 1.0}),
            0.95 * idealHypervolume("schaffer"));
}

TEST(SyntheticProblems, DecodeRoundTrip) {
  SyntheticProblem p = makeFonseca();
  const auto x = p.decode({0, 5000, 10000});
  EXPECT_DOUBLE_EQ(x[0], -4.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
  EXPECT_DOUBLE_EQ(x[2], 4.0);
}

} // namespace
} // namespace motune::opt
