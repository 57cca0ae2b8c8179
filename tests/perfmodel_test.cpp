#include "analyzer/region.h"
#include "cachesim/hierarchy.h"
#include "ir/interp.h"
#include "ir/print.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "perfmodel/costmodel.h"
#include "perfmodel/footprint.h"
#include "support/check.h"
#include "support/rng.h"
#include "transform/transforms.h"
#include "tuning/kernel_problem.h"
#include "verify/generator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

namespace motune::perf {
namespace {

using machine::barcelona;
using machine::westmere;

ir::Program tiledMM(std::int64_t n, std::int64_t ti, std::int64_t tj,
                    std::int64_t tk) {
  const std::int64_t sizes[] = {ti, tj, tk};
  return transform::parallelizeOuter(
      transform::tile(kernels::buildMM(n), sizes), 2);
}

TEST(NestAnalysis, TripCountsExactForTiledLoops) {
  // N = 10, tiles (4, 3, 5): tile trips = (3, 4, 2); avg point trips =
  // 10/3, 10/4, 5.
  const ir::Program prog = tiledMM(10, 4, 3, 5);
  const NestAnalysis na = analyzeNest(prog);
  ASSERT_EQ(na.loops.size(), 6u);
  EXPECT_DOUBLE_EQ(na.loops[0].avgTrip, 3.0);
  EXPECT_DOUBLE_EQ(na.loops[1].avgTrip, 4.0);
  EXPECT_DOUBLE_EQ(na.loops[2].avgTrip, 2.0);
  EXPECT_DOUBLE_EQ(na.loops[3].avgTrip, 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(na.loops[4].avgTrip, 10.0 / 4.0);
  EXPECT_DOUBLE_EQ(na.loops[5].avgTrip, 5.0);
  // Product of avgTrips = exact iteration count.
  EXPECT_NEAR(na.leafIterations(), 1000.0, 1e-9);
}

TEST(NestAnalysis, OperationCounts) {
  const NestAnalysis na = analyzeNest(kernels::buildMM(8));
  EXPECT_DOUBLE_EQ(na.flopsPerIter, 2.0);      // multiply + accumulate
  EXPECT_DOUBLE_EQ(na.heavyOpsPerIter, 0.0);
  EXPECT_DOUBLE_EQ(na.memAccessesPerIter, 4.0); // A, B, C read, C write

  const NestAnalysis nb = analyzeNest(kernels::buildNBody(8));
  EXPECT_GT(nb.heavyOpsPerIter, 0.0); // sqrt + divide
}

TEST(NestAnalysis, VectorizabilityDetection) {
  // mm IJK: B[k][j] is strided in the innermost k loop -> not unit-stride.
  EXPECT_FALSE(analyzeNest(kernels::buildMM(8)).innermostUnitStride);
  // jacobi-2d: innermost j accesses are all stride 0/1 -> vectorizable.
  EXPECT_TRUE(analyzeNest(kernels::buildJacobi2d(8)).innermostUnitStride);
}

TEST(Footprint, UntiledMmExactValues) {
  const ir::Program mm = kernels::buildMM(100);
  const NestAnalysis na = analyzeNest(mm);
  // Leaf (level 3): one line each of A, B, C.
  EXPECT_DOUBLE_EQ(totalFootprintBytes(na, 3, 64), 3 * 64.0);
  // Level 2 (k varies): A row (100*8 = 800B), B column (100 lines), C line.
  EXPECT_DOUBLE_EQ(footprintBytes(na, 0, 2, 64), 832.0); // A: ceil(800/64)*64
  EXPECT_DOUBLE_EQ(footprintBytes(na, 1, 2, 64), 6400.0); // B: 100 * 64
  EXPECT_DOUBLE_EQ(footprintBytes(na, 2, 2, 64), 64.0);   // C: one line
  // Level 0: everything = all three arrays.
  EXPECT_NEAR(totalFootprintBytes(na, 0, 64), 3 * 100 * 100 * 8.0, 3 * 6400.0);
}

TEST(Footprint, TiledMmTileTriple) {
  // Tiles (8, 8, 8) on N=64: at the first point-loop level (i, j, k vary),
  // footprint = A tile 8x8 + B tile 8x8 + C tile 8x8, line-granular.
  const ir::Program prog = tiledMM(64, 8, 8, 8);
  const NestAnalysis na = analyzeNest(prog);
  const double fp = totalFootprintBytes(na, 3, 64);
  EXPECT_DOUBLE_EQ(fp, 3 * 8 * 64.0); // 3 tiles of 8 rows x one 64B line
}

TEST(Footprint, StencilHaloCounted) {
  const ir::Program j2 = kernels::buildJacobi2d(66);
  const std::int64_t sizes[] = {8, 8};
  const ir::Program tiled = transform::tile(j2, sizes);
  const NestAnalysis na = analyzeNest(tiled);
  // At the point level, A's footprint covers (8+2) rows of the halo'd tile.
  const double a = footprintBytes(na, 0, 2, 64);
  const double b = footprintBytes(na, 1, 2, 64);
  EXPECT_DOUBLE_EQ(a, 10 * 128.0); // 10 rows x (10*8B -> 2 lines)
  EXPECT_DOUBLE_EQ(b, 8 * 64.0);   // 8 rows x (8*8B -> 1 line)
}

TEST(Footprint, ClampedToArraySize) {
  const ir::Program nb = kernels::buildNBody(128);
  const NestAnalysis na = analyzeNest(nb);
  // X is read as X[i] and X[j]; the union never exceeds the array itself.
  EXPECT_LE(footprintBytes(na, 0, 0, 64), 128 * 8.0 + 64.0);
}

TEST(CostModel, TilingBeatsUntiledSerial) {
  const CostModel model(westmere());
  const double untiled = model.predict(kernels::buildMM(1400), 1).seconds;
  const double tiled = model.predict(tiledMM(1400, 64, 48, 32), 1).seconds;
  EXPECT_GT(untiled, 3.0 * tiled); // the paper's "enormous potential"
}

TEST(CostModel, SpeedupSaturatesAndEfficiencyDrops) {
  const CostModel model(westmere());
  const ir::Program prog = tiledMM(1400, 96, 48, 32);
  const NestAnalysis na = analyzeNest(prog);
  double prevTime = 1e30;
  double prevEff = 2.0;
  const double t1 = model.predictAnalyzed(na, 1).seconds;
  for (int p : {1, 5, 10, 20, 40}) {
    const Prediction pred = model.predictAnalyzed(na, p);
    EXPECT_LT(pred.seconds, prevTime); // more threads still help...
    const double eff = t1 / (p * pred.seconds);
    EXPECT_LT(eff, prevEff + 1e-12); // ...but efficiency never improves
    prevTime = pred.seconds;
    prevEff = eff;
  }
  // At full machine scale the efficiency loss is substantial (Table III).
  EXPECT_LT(prevEff, 0.85);
  EXPECT_GT(prevEff, 0.35);
}

TEST(CostModel, OptimalTileDependsOnThreadCount) {
  // The paper's central observation (Fig. 2): sweep a small tile grid at
  // p=1 and p=32 on Barcelona and require distinct optima.
  const CostModel model(barcelona());
  auto bestTile = [&](int threads) {
    double best = 1e300;
    std::vector<std::int64_t> arg;
    for (std::int64_t ti : {16, 32, 64, 128, 256, 512})
      for (std::int64_t tj : {16, 32, 64, 128, 256, 512})
        for (std::int64_t tk : {16, 32, 64}) {
          const double t =
              model.predict(tiledMM(1400, ti, tj, tk), threads).seconds;
          if (t < best) {
            best = t;
            arg = {ti, tj, tk};
          }
        }
    return arg;
  };
  EXPECT_NE(bestTile(1), bestTile(32));
}

TEST(CostModel, SharedCacheShrinksWithThreadsRaisesDramTraffic) {
  const CostModel model(barcelona());
  const ir::Program prog = tiledMM(1400, 256, 256, 32);
  const NestAnalysis na = analyzeNest(prog);
  const auto t1 = model.predictAnalyzed(na, 1);
  const auto t4 = model.predictAnalyzed(na, 4);
  // Machine-wide DRAM traffic grows when four threads split the 2MB L3.
  EXPECT_GT(t4.trafficBytes.back(), t1.trafficBytes.back() * 1.2);
}

TEST(CostModel, ImbalancePenalizesHugeTiles) {
  const CostModel model(westmere());
  // Tiles of 700 on N=1400 leave a 2x2 chunk grid for 40 threads.
  const Prediction pred = model.predict(tiledMM(1400, 700, 700, 64), 40);
  EXPECT_DOUBLE_EQ(pred.imbalance, 1.0); // 4 chunks on 4 effective threads
  const Prediction pred2 = model.predict(tiledMM(1400, 200, 200, 64), 40);
  EXPECT_GE(pred2.imbalance, 1.0);
  // But the huge-tile version must be much slower overall at p=40.
  EXPECT_GT(pred.seconds, pred2.seconds);
}

TEST(CostModel, ResourcesEqualThreadsTimesSeconds) {
  const CostModel model(westmere());
  const Prediction pred = model.predict(tiledMM(256, 16, 16, 16), 8);
  EXPECT_DOUBLE_EQ(pred.resources, 8.0 * pred.seconds);
}

TEST(CostModel, DeterministicNoiseIsBounded) {
  CostParams params;
  params.noiseAmplitude = 0.05;
  const CostModel noisy(westmere(), params);
  const CostModel clean(westmere());
  const ir::Program prog = tiledMM(256, 16, 16, 16);
  const double a = noisy.predict(prog, 4).seconds;
  const double b = noisy.predict(prog, 4).seconds;
  const double ref = clean.predict(prog, 4).seconds;
  EXPECT_DOUBLE_EQ(a, b); // deterministic
  EXPECT_NEAR(a, ref, 0.05 * ref + 1e-12);
}

/// Cross-validation against the trace-driven simulator: the analytical
/// model's DRAM-traffic ordering between a good and a bad tiling must match
/// the simulated miss counts on a miniature machine/problem.
TEST(CostModel, AgreesWithCacheSimulatorOnTileOrdering) {
  // The mini machine's last level must be smaller than one array of the
  // mini problem (48x48x8B = 18K), so the bad tiling genuinely thrashes.
  machine::MachineModel mini = westmere();
  mini.caches[0].capacityBytes = 1 * 1024;
  mini.caches[1].capacityBytes = 4 * 1024;
  mini.caches[2].capacityBytes = 8 * 1024;
  mini.caches[2].associativity = 16; // keep lines divisible by ways

  const std::int64_t n = 48;
  auto simulatedDram = [&](std::int64_t t) {
    const std::int64_t sizes[] = {t, t, t};
    const ir::Program prog = transform::tile(kernels::buildMM(n), sizes);
    ir::Interpreter interp(prog);
    cachesim::Hierarchy hierarchy(mini, 1);
    interp.setTrace([&](std::uint64_t addr, int bytes, bool w) {
      hierarchy.access(addr, bytes, w);
    });
    interp.run();
    return hierarchy.dramBytes();
  };
  auto modeledDram = [&](std::int64_t t) {
    const CostModel model(mini);
    const std::int64_t sizes[] = {t, t, t};
    const ir::Program prog = transform::tile(kernels::buildMM(n), sizes);
    return model.predict(prog, 1).trafficBytes.back();
  };

  // A well-chosen tile (fits the mini L3) vs. a terrible one.
  const double simGood = static_cast<double>(simulatedDram(8));
  const double simBad = static_cast<double>(simulatedDram(48));
  const double modGood = modeledDram(8);
  const double modBad = modeledDram(48);
  EXPECT_LT(simGood, simBad);
  EXPECT_LT(modGood, modBad);
  // Magnitudes agree within an order of magnitude (the model is
  // conservative about the usable cache fraction).
  EXPECT_LT(modGood / simGood, 8.0);
  EXPECT_GT(modGood / simGood, 0.125);
}

// --- parametric nest vs. the reference path -----------------------------------

/// Names of the Prediction fields whose bits differ between `a` and `b`.
std::string bitDiff(const Prediction& a, const Prediction& b) {
  std::string diff;
  const auto check = [&](const char* name, const void* x, const void* y,
                         std::size_t bytes) {
    if (std::memcmp(x, y, bytes) != 0) diff += std::string(" ") + name;
  };
  check("seconds", &a.seconds, &b.seconds, sizeof(double));
  check("resources", &a.resources, &b.resources, sizeof(double));
  check("joules", &a.joules, &b.joules, sizeof(double));
  check("computeSeconds", &a.computeSeconds, &b.computeSeconds,
        sizeof(double));
  check("memorySeconds", &a.memorySeconds, &b.memorySeconds, sizeof(double));
  check("overheadSeconds", &a.overheadSeconds, &b.overheadSeconds,
        sizeof(double));
  check("forkJoinSeconds", &a.forkJoinSeconds, &b.forkJoinSeconds,
        sizeof(double));
  check("bandwidthSeconds", &a.bandwidthSeconds, &b.bandwidthSeconds,
        sizeof(double));
  check("imbalance", &a.imbalance, &b.imbalance, sizeof(double));
  check("threads", &a.threads, &b.threads, sizeof(int));
  if (a.trafficBytes.size() != b.trafficBytes.size())
    diff += " trafficBytes.size";
  else
    check("trafficBytes", a.trafficBytes.data(), b.trafficBytes.data(),
          a.trafficBytes.size() * sizeof(double));
  return diff;
}

/// 2,000 seeded random configurations plus the all-lo and all-hi corners.
std::vector<tuning::Config> sampleConfigs(
    const std::vector<tuning::ParamSpec>& space, std::uint64_t seed) {
  std::vector<tuning::Config> configs(2);
  for (const tuning::ParamSpec& p : space) {
    configs[0].push_back(p.lo);
    configs[1].push_back(p.hi);
  }
  support::Rng rng(seed);
  for (int i = 0; i < 2000; ++i) {
    tuning::Config c;
    for (const tuning::ParamSpec& p : space)
      c.push_back(rng.uniformInt(p.lo, p.hi));
    configs.push_back(std::move(c));
  }
  return configs;
}

/// predictFull (the parametric nest) against instantiate + analyzeNest +
/// predictAnalyzed, bit for bit; every 20th config also compares the
/// seeding footprint query at every level and three line sizes.
void expectParametricMatchesReference(const kernels::KernelSpec& spec,
                                      const machine::MachineModel& machine,
                                      std::int64_t n, CostParams params) {
  const tuning::KernelTuningProblem problem(spec, machine, n, params);
  const CostModel model(machine, params);
  const std::size_t tileDims = problem.skeleton().tileDepth();
  const std::string cell = spec.name + "/" + machine.name + "/n=" +
                           std::to_string(problem.problemSize());
  const auto configs = sampleConfigs(problem.space(), 0x5eed + n);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const tuning::Config& c = configs[i];
    const ir::Program variant = problem.instantiate(c);
    const NestAnalysis na = analyzeNest(variant);
    const Prediction ref =
        model.predictAnalyzed(na, static_cast<int>(c.back()));
    ASSERT_EQ(bitDiff(problem.predictFull(c), ref), "")
        << cell << " config " << ::testing::PrintToString(c);
    if (i % 20 != 0) continue;
    const std::span<const std::int64_t> tiles(c.data(), tileDims);
    for (std::size_t lvl = 0; lvl <= na.loops.size(); ++lvl)
      for (std::int64_t line : {32, 64, 128}) {
        const double want = totalFootprintBytes(na, lvl, line);
        const double got =
            problem.nest().totalFootprintBytes(tiles, lvl, line);
        ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
            << cell << " config " << ::testing::PrintToString(c) << " level "
            << lvl << " line " << line;
      }
  }
}

class ParametricNest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParametricNest, PredictFullIsBitIdenticalToTheReferencePath) {
  const kernels::KernelSpec& spec = kernels::kernelByName(GetParam());
  for (const machine::MachineModel& m : {westmere(), barcelona()})
    for (const std::int64_t n : {spec.paperN, std::int64_t{37},
                                 std::int64_t{64}})
      expectParametricMatchesReference(spec, m, n, {});
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ParametricNest,
                         ::testing::Values("mm", "dsyrk", "jacobi-2d",
                                           "3d-stencil", "n-body"),
                         [](const auto& param) {
                           std::string name = param.param;
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

TEST(ParametricNest, NoiseHashesTheSameAverageTrips) {
  CostParams noisy;
  noisy.noiseAmplitude = 0.05;
  expectParametricMatchesReference(kernels::kernelByName("mm"), westmere(),
                                   0, noisy);
}

/// Field-by-field bitwise comparison of two lowered nests.
bool bitEqual(const LoweredNest& a, const LoweredNest& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return same(a.avgTrip, b.avgTrip) && a.parallel == b.parallel &&
         a.collapse == b.collapse && a.classShared == b.classShared &&
         same(a.footprints, b.footprints) &&
         std::memcmp(&a.flopsPerIter, &b.flopsPerIter, sizeof(double)) == 0 &&
         std::memcmp(&a.heavyOpsPerIter, &b.heavyOpsPerIter,
                     sizeof(double)) == 0 &&
         a.innermostUnitStride == b.innermostUnitStride;
}

TEST(ParametricNest, ReusedScratchMatchesTheReferencePath) {
  // Kernels of different depths and tile bands, queried in turn on two
  // threads through predictFull (per-thread scratch) and through one
  // reused LoweredNest per thread: stale scratch from the previous query,
  // kernel or thread would show as a bit difference.
  const std::vector<std::unique_ptr<tuning::KernelTuningProblem>> problems = [] {
    std::vector<std::unique_ptr<tuning::KernelTuningProblem>> out;
    out.push_back(std::make_unique<tuning::KernelTuningProblem>(
        kernels::kernelByName("mm"), westmere(), 48));
    out.push_back(std::make_unique<tuning::KernelTuningProblem>(
        kernels::kernelByName("jacobi-2d"), barcelona(), 64));
    out.push_back(std::make_unique<tuning::KernelTuningProblem>(
        kernels::kernelByName("3d-stencil"), westmere(), 32));
    return out;
  }();
  struct Case {
    std::size_t problem;
    tuning::Config config;
    Prediction reference;
    LoweredNest lowered;
  };
  std::vector<Case> cases;
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const tuning::KernelTuningProblem& problem = *problems[p];
    const CostModel model(problem.machine());
    const auto configs = sampleConfigs(problem.space(), 0xab + p);
    for (std::size_t i = 0; i < 150; ++i) {
      const ir::Program variant = problem.instantiate(configs[i]);
      const NestAnalysis na = analyzeNest(variant);
      cases.push_back({p, configs[i],
                       model.predictAnalyzed(
                           na, static_cast<int>(configs[i].back())),
                       lowerNest(na, model.lineBytes())});
    }
  }
  const auto check = [&](std::size_t stride, std::size_t offset) {
    std::string failures;
    LoweredNest reused;
    for (std::size_t k = 0; k < 3 * cases.size(); ++k) {
      // Cycle the kernels; pick each one's config by a stride.
      const Case& c = cases[(k % 3) * 150 + (k * stride + offset) % 150];
      const tuning::KernelTuningProblem& problem = *problems[c.problem];
      const std::string diff = bitDiff(problem.predictFull(c.config),
                                       c.reference);
      const std::span<const std::int64_t> tiles(
          c.config.data(), problem.nest().tileDims());
      problem.nest().lower(tiles, problem.machine().caches.front().lineBytes,
                           reused);
      if (!diff.empty() || !bitEqual(reused, c.lowered))
        failures += " [" + ::testing::PrintToString(c.config) + diff + "]";
    }
    return failures;
  };
  std::string other;
  std::thread worker([&] { other = check(7, 3); });
  const std::string mine = check(11, 0);
  worker.join();
  EXPECT_EQ(mine, "");
  EXPECT_EQ(other, "");
}

TEST(ParametricNest, ANestBuiltWhereAnotherWasKeepsNoneOfItsScratch) {
  // std::optional reuses its storage, so each problem's nest lives at the
  // address of the one before it.
  std::optional<tuning::KernelTuningProblem> problem;
  for (const char* kernel : {"mm", "jacobi-2d", "mm", "dsyrk", "3d-stencil"}) {
    problem.emplace(kernels::kernelByName(kernel), westmere(), 40);
    const CostModel model(problem->machine());
    for (const tuning::Config& c : sampleConfigs(problem->space(), 9)) {
      const Prediction ref = model.predictAnalyzed(
          analyzeNest(problem->instantiate(c)), static_cast<int>(c.back()));
      ASSERT_EQ(bitDiff(problem->predictFull(c), ref), "")
          << kernel << " config " << ::testing::PrintToString(c);
    }
  }
}

TEST(ParametricNest, GeneratedNestsMatchTheReferencePathBitForBit) {
  // Random single-nest programs with constant bounds: non-unit subscript
  // coefficients, constant-offset spreads, and several depths and ranks.
  // Each one the skeleton accepts, and whose accesses the model can
  // analyze (a perfect nest), is lowered at tile vectors that include 1,
  // the whole range and sizes that do not divide it, and at line sizes
  // whose rounding takes the power-of-two and the generic path.
  verify::GeneratorOptions options;
  options.maxTopLoops = 1;
  options.allowParametricBounds = false;
  support::Rng rng(0xd1ff);
  int nests = 0;
  for (int draw = 0; draw < 300 && nests < 40; ++draw) {
    const ir::Program program = verify::randomProgram(rng, options);
    std::optional<analyzer::TransformationSkeleton> skeleton;
    try {
      analyzeNest(program);
      skeleton.emplace(analyzer::TransformationSkeleton::build(program, 4));
    } catch (const support::CheckError&) {
      continue;
    }
    ++nests;
    const TiledNest nest(*skeleton);
    const std::size_t dims = skeleton->tileDepth();
    const std::vector<std::int64_t>& range = skeleton->region().bandTrips;
    // The variant's parallel header, as instantiate() emits it for any tile.
    std::vector<std::int64_t> lowCorner(dims + 1, 1);
    const int collapse =
        transform::perfectNest(skeleton->instantiate(lowCorner))[0]->collapse;

    std::vector<std::vector<std::int64_t>> tileVectors{
        std::vector<std::int64_t>(dims, 1), range};
    for (int k = 0; k < 6; ++k) {
      std::vector<std::int64_t> tiles;
      for (std::size_t p = 0; p < dims; ++p)
        tiles.push_back(rng.uniformInt(1, range[p]));
      tileVectors.push_back(std::move(tiles));
    }
    for (const std::vector<std::int64_t>& tiles : tileVectors) {
      const ir::Program variant = transform::parallelizeOuter(
          transform::tile(skeleton->base(), tiles), collapse);
      const NestAnalysis na = analyzeNest(variant);
      const std::string where = ir::printSource(program) + "tiles " +
                                ::testing::PrintToString(tiles);
      LoweredNest lowered;
      for (const std::int64_t line : {32, 48, 64, 128}) {
        nest.lower(tiles, line, lowered);
        ASSERT_TRUE(bitEqual(lowered, lowerNest(na, line)))
            << where << " line " << line;
        for (std::size_t lvl = 0; lvl <= na.loops.size(); ++lvl) {
          const double want = totalFootprintBytes(na, lvl, line);
          const double got = nest.totalFootprintBytes(tiles, lvl, line);
          ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
              << where << " line " << line << " level " << lvl;
        }
      }
    }
  }
  EXPECT_GE(nests, 20);
}

TEST(ParametricNest, RejectsATileVectorOfTheWrongLength) {
  const tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                            westmere(), 64);
  const std::int64_t tiles[] = {8, 8};
  LoweredNest lowered;
  EXPECT_THROW(problem.nest().lower(tiles, 64, lowered), support::CheckError);
}

} // namespace
} // namespace motune::perf
