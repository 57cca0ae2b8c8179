// End-to-end tests across the full pipeline (paper Fig. 3, labels 1-6):
// kernel IR -> analysis -> RS-GDE3 tuning on the machine model -> Pareto
// set -> multi-version table -> runtime policy selection -> execution of
// the real tiled kernels.
#include "autotune/autotuner.h"
#include "autotune/backend.h"
#include "kernels/kernel.h"
#include "kernels/native.h"
#include "machine/machine.h"
#include "runtime/region.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace motune {
namespace {

autotune::TuningResult tuneSmallMM(autotune::Algorithm algo,
                                   tuning::KernelTuningProblem& problem) {
  autotune::TunerOptions options;
  options.algorithm = algo;
  options.gde3.population = 30; // the paper's population size
  options.gde3.maxGenerations = 40;
  options.gde3.noImproveLimit = 4;
  options.gde3.seed = 12;
  options.randomBudget = 400;
  options.evaluationWorkers = 2;
  autotune::AutoTuner tuner(options);
  return tuner.tune(problem);
}

TEST(EndToEnd, RsGde3ProducesUsableParetoSet) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  const autotune::TuningResult result =
      tuneSmallMM(autotune::Algorithm::RSGDE3, problem);

  ASSERT_GE(result.front.size(), 3u); // multiple trade-off points
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_GT(result.hypervolume, 0.3);
  EXPECT_LE(result.hypervolume, 1.0);

  // Front sorted by time, mutually non-dominated, and spanning thread
  // counts (the whole point of parallelism-aware multi-versioning).
  for (std::size_t i = 1; i < result.front.size(); ++i) {
    EXPECT_LE(result.front[i - 1].timeSeconds, result.front[i].timeSeconds);
    EXPECT_GE(result.front[i].threads, 1);
  }
  EXPECT_GT(result.front.front().threads, result.front.back().threads);

  // Versions beat the untiled serial baseline on time.
  EXPECT_LT(result.front.front().timeSeconds, result.timeRef);
}

/// threadSweepRefinement's reference: one KernelTuningProblem::evaluate()
/// per (front tiles, threads) configuration the search has not evaluated.
std::uint64_t sweepPerConfig(tuning::KernelTuningProblem& problem,
                             opt::OptResult& result) {
  const std::size_t tileDims = problem.skeleton().tileDepth();
  std::set<tuning::Config> tiles, evaluated;
  for (const auto& ind : result.front)
    tiles.insert(tuning::Config(
        ind.config.begin(),
        ind.config.begin() + static_cast<std::ptrdiff_t>(tileDims)));
  for (const auto& ind : result.population) evaluated.insert(ind.config);
  std::uint64_t extra = 0;
  std::vector<opt::Individual> pool = result.front;
  for (const auto& t : tiles)
    for (std::int64_t p = 1; p <= problem.space().back().hi; ++p) {
      tuning::Config config = t;
      config.push_back(p);
      if (!evaluated.insert(config).second) continue;
      opt::Individual ind;
      ind.genome.assign(config.begin(), config.end());
      ind.objectives = problem.evaluate(config);
      ind.config = std::move(config);
      pool.push_back(std::move(ind));
      ++extra;
    }
  result.front = opt::paretoFront(pool);
  result.evaluations += extra;
  return extra;
}

TEST(EndToEnd, ThreadSweepMatchesPerConfigEvaluation) {
  for (const char* kernel : {"mm", "jacobi-2d", "n-body"})
    for (const machine::MachineModel& m :
         {machine::westmere(), machine::barcelona()}) {
      tuning::KernelTuningProblem problem(kernels::kernelByName(kernel), m);
      autotune::TunerOptions options;
      options.gde3.seed = 5;
      autotune::AutoTuner tuner(options);
      const opt::OptResult raw = tuner.optimize(problem);
      opt::OptResult swept = raw, reference = raw;
      const std::uint64_t extra =
          autotune::threadSweepRefinement(problem, swept);
      const std::string cell = std::string(kernel) + "/" + m.name;
      EXPECT_GT(extra, 0u) << cell;
      EXPECT_EQ(extra, sweepPerConfig(problem, reference)) << cell;
      EXPECT_EQ(swept.evaluations, reference.evaluations) << cell;
      ASSERT_EQ(swept.front.size(), reference.front.size()) << cell;
      for (std::size_t i = 0; i < swept.front.size(); ++i) {
        const opt::Individual& a = swept.front[i];
        const opt::Individual& b = reference.front[i];
        EXPECT_EQ(a.config, b.config) << cell << " member " << i;
        EXPECT_EQ(a.genome, b.genome) << cell << " member " << i;
        ASSERT_EQ(a.objectives.size(), b.objectives.size()) << cell;
        EXPECT_EQ(std::memcmp(a.objectives.data(), b.objectives.data(),
                              a.objectives.size() * sizeof(double)),
                  0)
            << cell << " member " << i;
      }
    }
}

TEST(EndToEnd, EvaluationBudgetFarBelowBruteForce) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  const autotune::TuningResult result =
      tuneSmallMM(autotune::Algorithm::RSGDE3, problem);
  // Paper Table VI: RS-GDE3 evaluates ~1% of the brute-force grid (~70k).
  EXPECT_LT(result.evaluations, 5000u);
}

TEST(EndToEnd, RsGde3BeatsRandomAtEqualBudget) {
  tuning::KernelTuningProblem p1(kernels::kernelByName("mm"),
                                 machine::westmere());
  const autotune::TuningResult rs =
      tuneSmallMM(autotune::Algorithm::RSGDE3, p1);

  tuning::KernelTuningProblem p2(kernels::kernelByName("mm"),
                                 machine::westmere());
  autotune::TunerOptions options;
  options.algorithm = autotune::Algorithm::Random;
  options.randomBudget = rs.evaluations;
  options.evaluationWorkers = 2;
  autotune::AutoTuner tuner(options);
  const autotune::TuningResult rand = tuner.tune(p2);

  EXPECT_GT(rs.hypervolume, rand.hypervolume);
}

TEST(EndToEnd, VersionTableExecutesRealKernels) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere(), 96);
  const autotune::TuningResult result =
      tuneSmallMM(autotune::Algorithm::RSGDE3, problem);

  runtime::ThreadPool pool(2);
  mv::VersionTable table =
      autotune::buildVersionTable(result, problem, pool, /*nativeN=*/48);
  ASSERT_EQ(table.size(), result.front.size());

  runtime::Region region(table);
  runtime::WeightedSumPolicy fastestPolicy(1, 0);
  runtime::WeightedSumPolicy thriftyPolicy(0, 1);
  const std::size_t fast = region.invoke(fastestPolicy);
  const std::size_t thrifty = region.invoke(thriftyPolicy);
  EXPECT_EQ(region.totalInvocations(), 2u);
  EXPECT_LE(table[fast].meta.timeSeconds, table[thrifty].meta.timeSeconds);
}

TEST(EndToEnd, VersionTableResultsCorrectAcrossVersions) {
  // Every version of the table must compute the same C as the reference.
  const std::int64_t n = 40;
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere(), 96);
  const autotune::TuningResult result =
      tuneSmallMM(autotune::Algorithm::RSGDE3, problem);

  std::vector<double> a(n * n), b(n * n), cRef(n * n, 0.0);
  kernels::fillDeterministic(a, 1);
  kernels::fillDeterministic(b, 2);
  kernels::mmReference(a.data(), b.data(), cRef.data(), n);

  runtime::ThreadPool pool(2);
  for (const mv::VersionMeta& meta : result.front) {
    std::vector<double> c(n * n, 0.0);
    const auto t = [&](std::size_t i) {
      return std::min<std::int64_t>(std::max<std::int64_t>(
                                        meta.tileSizes[i], 1),
                                    n);
    };
    kernels::mmTiled(a.data(), b.data(), c.data(), n, {t(0), t(1), t(2)},
                     meta.threads, pool);
    for (std::size_t i = 0; i < cRef.size(); ++i) ASSERT_EQ(cRef[i], c[i]);
  }
}

TEST(EndToEnd, MultiVersionedCModuleEmitted) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere(), 128);
  const autotune::TuningResult result =
      tuneSmallMM(autotune::Algorithm::RSGDE3, problem);
  const std::string module = autotune::emitMultiVersionedC(result, problem);
  EXPECT_NE(module.find("mm_versions[]"), std::string::npos);
  EXPECT_NE(module.find("#pragma omp parallel for collapse(2)"),
            std::string::npos);
  EXPECT_NE(module.find("num_threads"), std::string::npos);
  // One function per Pareto point.
  std::size_t count = 0;
  for (std::size_t pos = module.find("static void mm_v");
       pos != std::string::npos;
       pos = module.find("static void mm_v", pos + 1))
    ++count;
  EXPECT_EQ(count, result.front.size());
}

TEST(EndToEnd, AllFiveKernelsTuneSuccessfully) {
  for (const auto& spec : kernels::allKernels()) {
    // Small instances keep this test quick; jacobi-2d needs N >= 6 so the
    // interior trip count supports tiling.
    const std::int64_t n = spec.name == "n-body" ? 256 : 64;
    tuning::KernelTuningProblem problem(spec, machine::barcelona(), n);
    autotune::TunerOptions options;
    options.gde3.population = 12;
    options.gde3.maxGenerations = 10;
    options.gde3.noImproveLimit = 3;
    options.evaluationWorkers = 2;
    autotune::AutoTuner tuner(options);
    const autotune::TuningResult result = tuner.tune(problem);
    EXPECT_FALSE(result.front.empty()) << spec.name;
    EXPECT_GT(result.hypervolume, 0.0) << spec.name;
  }
}

TEST(EndToEnd, ThreadCapPolicyAdaptsToLoad) {
  // The runtime scenario of the paper's §III.A label 6: a scheduler caps
  // the region's thread usage as external load arrives.
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  const autotune::TuningResult result =
      tuneSmallMM(autotune::Algorithm::RSGDE3, problem);
  runtime::ThreadPool pool(2);
  mv::VersionTable table =
      autotune::buildVersionTable(result, problem, pool, 48);

  int lastThreads = 1 << 30;
  for (int cap : {40, 10, 2, 1}) {
    const std::size_t pick = runtime::ThreadCapPolicy(cap).select(table);
    EXPECT_LE(table[pick].meta.threads, std::max(cap, lastThreads));
    lastThreads = table[pick].meta.threads;
  }
}

} // namespace
} // namespace motune
