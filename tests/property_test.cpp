// Cross-module property tests: invariants that must hold for ALL kernels,
// machines, tile sizes and optimizer states — parameterized sweeps rather
// than single examples.
#include "core/hypervolume.h"
#include "ir/interp.h"
#include "core/pareto.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "perfmodel/costmodel.h"
#include "perfmodel/footprint.h"
#include "support/rng.h"
#include "transform/transforms.h"
#include "tuning/kernel_problem.h"

#include <gtest/gtest.h>

#include <cmath>

namespace motune {
namespace {

// --- model invariants over every (kernel, machine) pair --------------------

struct Case {
  const char* kernel;
  const char* machine;
};

/// Prints "mm/W" instead of gtest's byte dump, whose two pointers would put
/// ASLR-dependent addresses into every discovered ctest name.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.kernel << "/" << c.machine;
}

machine::MachineModel machineOf(const Case& c) {
  return std::string(c.machine) == "W" ? machine::westmere()
                                       : machine::barcelona();
}

class ModelInvariants : public ::testing::TestWithParam<Case> {};

TEST_P(ModelInvariants, PredictionsArePositiveFiniteAndConsistent) {
  const auto& spec = kernels::kernelByName(GetParam().kernel);
  tuning::KernelTuningProblem problem(spec, machineOf(GetParam()));
  support::Rng rng(42);
  const auto& space = problem.space();
  for (int trial = 0; trial < 40; ++trial) {
    tuning::Config c;
    for (const auto& p : space) c.push_back(rng.uniformInt(p.lo, p.hi));
    const perf::Prediction pred = problem.predictFull(c);
    ASSERT_TRUE(std::isfinite(pred.seconds)) << spec.name;
    ASSERT_GT(pred.seconds, 0.0);
    ASSERT_DOUBLE_EQ(pred.resources,
                     static_cast<double>(c.back()) * pred.seconds);
    ASSERT_GT(pred.joules, 0.0);
    ASSERT_GE(pred.imbalance, 1.0);
    ASSERT_GE(pred.trafficBytes.back(), 0.0);
    // Compulsory DRAM traffic cannot exceed the model's line-granular
    // every-access-misses bound but must cover each array at least once
    // for single-sweep kernels; just require a sane positive value.
    ASSERT_TRUE(std::isfinite(pred.trafficBytes.back()));
  }
}

TEST_P(ModelInvariants, MoreThreadsNeverSlowerAtModestCounts) {
  // With fixed reasonable tiles, going 1 -> 2 -> 4 threads must not hurt
  // (beyond that, contention may legitimately invert on tiny problems).
  const auto& spec = kernels::kernelByName(GetParam().kernel);
  tuning::KernelTuningProblem problem(spec, machineOf(GetParam()));
  tuning::Config base;
  for (std::size_t d = 0; d < problem.skeleton().tileDepth(); ++d)
    base.push_back(std::min<std::int64_t>(32, problem.space()[d].hi));
  double prev = std::numeric_limits<double>::infinity();
  for (int p : {1, 2, 4}) {
    tuning::Config c = base;
    c.push_back(p);
    const double t = problem.evaluate(c)[0];
    EXPECT_LT(t, prev * 1.001) << spec.name << " p=" << p;
    prev = t;
  }
}

TEST_P(ModelInvariants, SerialEnergyScalesWithTime) {
  // For a fixed machine, serial energy is dominated by power x time: a
  // config that doubles the time should cost roughly more energy.
  const auto& spec = kernels::kernelByName(GetParam().kernel);
  tuning::KernelTuningProblem problem(
      spec, machineOf(GetParam()), 0, {},
      {tuning::Objective::Time, tuning::Objective::Energy});
  tuning::Config fast, slow;
  for (std::size_t d = 0; d < problem.skeleton().tileDepth(); ++d) {
    fast.push_back(std::min<std::int64_t>(32, problem.space()[d].hi));
    slow.push_back(1);
  }
  fast.push_back(1);
  slow.push_back(1);
  const auto f = problem.evaluate(fast);
  const auto s = problem.evaluate(slow);
  if (s[0] > 1.5 * f[0]) {
    EXPECT_GT(s[1], f[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsBothMachines, ModelInvariants,
    ::testing::Values(Case{"mm", "W"}, Case{"mm", "B"}, Case{"dsyrk", "W"},
                      Case{"dsyrk", "B"}, Case{"jacobi-2d", "W"},
                      Case{"jacobi-2d", "B"}, Case{"3d-stencil", "W"},
                      Case{"3d-stencil", "B"}, Case{"n-body", "W"},
                      Case{"n-body", "B"}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = info.param.kernel;
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_" + info.param.machine;
    });

// --- footprint invariants ----------------------------------------------------

TEST(FootprintProperties, MonotoneInLevelForAllKernels) {
  // Outer levels enclose inner ones: footprints never grow with the level
  // index (deeper = fewer varying loops = smaller footprint).
  for (const auto& spec : kernels::allKernels()) {
    const ir::Program base = spec.buildIR(spec.testN * 2);
    std::vector<std::int64_t> sizes(spec.tileDims, 4);
    const ir::Program tiled = transform::tile(base, sizes);
    const perf::NestAnalysis na = perf::analyzeNest(tiled);
    for (std::size_t a = 0; a < na.arrays.size(); ++a) {
      double prev = std::numeric_limits<double>::infinity();
      for (std::size_t lvl = 0; lvl <= na.loops.size(); ++lvl) {
        const double fp = perf::footprintBytes(na, a, lvl, 64);
        ASSERT_LE(fp, prev * (1.0 + 1e-12))
            << spec.name << " array " << a << " level " << lvl;
        prev = fp;
      }
    }
  }
}

TEST(FootprintProperties, LeafIterationsMatchInterpreterCounts) {
  // The analytic iteration count must equal the exact executed statement
  // count (per leaf statement) for tiled programs with boundary tiles.
  support::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t n = rng.uniformInt(5, 14);
    const ir::Program mm = kernels::buildMM(n);
    const std::int64_t sizes[] = {rng.uniformInt(1, n), rng.uniformInt(1, n),
                                  rng.uniformInt(1, n)};
    const ir::Program tiled = transform::tile(mm, sizes);
    const perf::NestAnalysis na = perf::analyzeNest(tiled);
    ir::Interpreter interp(tiled);
    interp.run();
    ASSERT_NEAR(na.leafIterations(),
                static_cast<double>(interp.statementsExecuted()), 1e-6);
  }
}

// --- hypervolume properties ---------------------------------------------------

TEST(HypervolumeProperties, DominatedPointsNeverChangeVolume) {
  support::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<tuning::Objectives> pts;
    for (int i = 0; i < 8; ++i)
      pts.push_back({rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9)});
    const double before = opt::hypervolume2d(pts, {1.0, 1.0});
    // Add a point dominated by pts[0].
    auto withDominated = pts;
    withDominated.push_back({pts[0][0] + 0.05, pts[0][1] + 0.05});
    EXPECT_NEAR(opt::hypervolume2d(withDominated, {1.0, 1.0}), before,
                1e-12);
  }
}

TEST(HypervolumeProperties, AddingPointsNeverDecreasesVolume) {
  support::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<tuning::Objectives> pts;
    double prev = 0.0;
    for (int i = 0; i < 10; ++i) {
      pts.push_back({rng.uniform(), rng.uniform()});
      const double hv = opt::hypervolume2d(pts, {1.0, 1.0});
      ASSERT_GE(hv, prev - 1e-12);
      prev = hv;
    }
  }
}

TEST(HypervolumeProperties, BoundedByUnitBox) {
  support::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<tuning::Objectives> pts;
    for (int i = 0; i < 30; ++i)
      pts.push_back({rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)});
    const double hv = opt::hypervolume2d(pts, {1.0, 1.0});
    EXPECT_GE(hv, 0.0);
    EXPECT_LE(hv, 1.0 + 1e-12); // clipping keeps it inside the box
  }
}

TEST(HypervolumeProperties, NdAgreesWith2dOnRandomFronts) {
  support::Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<tuning::Objectives> p2, p3;
    for (int i = 0; i < 12; ++i) {
      const double a = rng.uniform();
      const double b = rng.uniform();
      p2.push_back({a, b});
      p3.push_back({a, b, 0.0});
    }
    EXPECT_NEAR(opt::hypervolume2d(p2, {1.0, 1.0}),
                opt::hypervolumeNd(p3, {1.0, 1.0, 1.0}), 1e-10);
  }
}

// --- Pareto properties ---------------------------------------------------------

TEST(ParetoProperties, FrontOfFrontIsIdempotent) {
  support::Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<opt::Individual> pop;
    for (int i = 0; i < 40; ++i)
      pop.push_back({{},
                     {static_cast<std::int64_t>(i)},
                     {rng.uniform(), rng.uniform()}});
    const auto front = opt::paretoFront(pop);
    const auto again = opt::paretoFront(front);
    EXPECT_EQ(front.size(), again.size());
  }
}

TEST(ParetoProperties, SortPartitionsEverything) {
  support::Rng rng(29);
  std::vector<opt::Individual> pop;
  for (int i = 0; i < 60; ++i)
    pop.push_back({{},
                   {static_cast<std::int64_t>(i)},
                   {rng.uniform(), rng.uniform()}});
  const auto fronts = opt::nonDominatedSort(pop);
  std::size_t total = 0;
  std::vector<bool> seen(pop.size(), false);
  for (const auto& f : fronts) {
    total += f.size();
    for (std::size_t i : f) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  EXPECT_EQ(total, pop.size());
}

} // namespace
} // namespace motune
