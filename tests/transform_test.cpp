#include "ir/interp.h"
#include "ir/print.h"
#include "kernels/kernel.h"
#include "support/check.h"
#include "support/rng.h"
#include "transform/transforms.h"

#include <gtest/gtest.h>

namespace motune::transform {
namespace {

/// Runs `program`, seeding every input array deterministically, and returns
/// the contents of `outputArray`.
std::vector<double> runProgram(const ir::Program& program,
                               const std::string& outputArray) {
  ir::Interpreter interp(program);
  std::uint64_t seed = 1;
  for (const auto& decl : program.arrays) {
    auto& data = interp.array(decl.name);
    support::Rng rng(seed++);
    for (auto& x : data) x = rng.uniform(-1.0, 1.0);
  }
  interp.run();
  return interp.array(outputArray);
}

/// The central legality property: a transformed program computes exactly
/// the same output as the original.
void expectSameSemantics(const ir::Program& original,
                         const ir::Program& transformed,
                         const std::string& outputArray) {
  const auto a = runProgram(original, outputArray);
  const auto b = runProgram(transformed, outputArray);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_DOUBLE_EQ(a[i], b[i]) << "element " << i;
}

TEST(Tile, StructureOfTiledNest) {
  const ir::Program mm = kernels::buildMM(10);
  const std::int64_t sizes[] = {4, 3, 5};
  const ir::Program tiled = tile(mm, sizes);
  const auto nest = perfectNest(tiled);
  ASSERT_EQ(nest.size(), 6u);
  EXPECT_EQ(nest[0]->iv, "i_t");
  EXPECT_EQ(nest[1]->iv, "j_t");
  EXPECT_EQ(nest[2]->iv, "k_t");
  EXPECT_EQ(nest[3]->iv, "i");
  EXPECT_EQ(nest[0]->step, 4);
  EXPECT_EQ(nest[1]->step, 3);
  EXPECT_TRUE(nest[3]->upper.cap.has_value()); // min(i_t + 4, 10)
}

struct TileCase {
  std::int64_t n;
  std::int64_t ti, tj, tk;
};

class MmTilingProperty : public ::testing::TestWithParam<TileCase> {};

TEST_P(MmTilingProperty, PreservesSemantics) {
  const auto [n, ti, tj, tk] = GetParam();
  const ir::Program mm = kernels::buildMM(n);
  const std::int64_t sizes[] = {ti, tj, tk};
  expectSameSemantics(mm, tile(mm, sizes), "C");
}

INSTANTIATE_TEST_SUITE_P(
    TileSizeSweep, MmTilingProperty,
    ::testing::Values(TileCase{7, 1, 1, 1}, TileCase{7, 2, 3, 4},
                      TileCase{7, 7, 7, 7}, TileCase{7, 9, 9, 9},
                      TileCase{12, 4, 4, 4}, TileCase{12, 5, 7, 11},
                      TileCase{13, 3, 13, 2}, TileCase{16, 8, 2, 16}));

// std::string, not const char*: the kernel name, not its address, names
// each case.
using KernelTile = std::pair<std::string, std::int64_t>;

class KernelTilingProperty : public ::testing::TestWithParam<KernelTile> {};

TEST_P(KernelTilingProperty, AllKernelsTileCorrectly) {
  const auto [name, tileSize] = GetParam();
  const kernels::KernelSpec& spec = kernels::kernelByName(name);
  const ir::Program base = spec.buildIR(spec.testN);
  std::vector<std::int64_t> sizes(spec.tileDims, tileSize);
  const std::string output =
      spec.name == "mm" || spec.name == "dsyrk"
          ? "C"
          : (spec.name == "n-body" ? "FX" : "B");
  expectSameSemantics(base, tile(base, sizes), output);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelTilingProperty,
    ::testing::Values(KernelTile{"mm", 3}, KernelTile{"mm", 5},
                      KernelTile{"dsyrk", 4}, KernelTile{"dsyrk", 7},
                      KernelTile{"jacobi-2d", 3}, KernelTile{"jacobi-2d", 8},
                      KernelTile{"3d-stencil", 2}, KernelTile{"3d-stencil", 5},
                      KernelTile{"n-body", 4}, KernelTile{"n-body", 16}));

TEST(Tile, RandomizedPropertySweep) {
  support::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t n = rng.uniformInt(3, 14);
    const ir::Program mm = kernels::buildMM(n);
    const std::int64_t sizes[] = {rng.uniformInt(1, n + 2),
                                  rng.uniformInt(1, n + 2),
                                  rng.uniformInt(1, n + 2)};
    expectSameSemantics(mm, tile(mm, sizes), "C");
  }
}

TEST(Tile, RejectsOversizedBand) {
  const ir::Program j2 = kernels::buildJacobi2d(8); // depth 2
  const std::int64_t sizes[] = {2, 2, 2};
  EXPECT_THROW(tile(j2, sizes), support::CheckError);
}

TEST(Tile, RejectsDoubleTiling) {
  const ir::Program mm = kernels::buildMM(8);
  const std::int64_t sizes[] = {2, 2, 2};
  const ir::Program tiled = tile(mm, sizes);
  EXPECT_THROW(tile(tiled, sizes), support::CheckError);
}

TEST(Tile, RejectsNonPositiveSizes) {
  const ir::Program mm = kernels::buildMM(8);
  const std::int64_t sizes[] = {2, 0, 2};
  EXPECT_THROW(tile(mm, sizes), support::CheckError);
}

TEST(Interchange, SwapLoopsPreservesMm) {
  const ir::Program mm = kernels::buildMM(9);
  const int perm[] = {1, 0, 2}; // JIK
  expectSameSemantics(mm, interchange(mm, perm), "C");
}

TEST(Interchange, FullReversalPreservesMm) {
  const ir::Program mm = kernels::buildMM(8);
  const int perm[] = {2, 1, 0}; // KJI
  const ir::Program kji = interchange(mm, perm);
  EXPECT_EQ(perfectNest(kji)[0]->iv, "k");
  expectSameSemantics(mm, kji, "C");
}

TEST(Interchange, RejectsInvalidPermutation) {
  const ir::Program mm = kernels::buildMM(8);
  const int perm[] = {0, 0, 2};
  EXPECT_THROW(interchange(mm, perm), support::CheckError);
}

class UnrollProperty : public ::testing::TestWithParam<int> {};

TEST_P(UnrollProperty, PreservesSemanticsWithRemainder) {
  const int factor = GetParam();
  const ir::Program mm = kernels::buildMM(10); // 10 % {2,3,4,7} != 0 mostly
  expectSameSemantics(mm, unrollInnermost(mm, factor), "C");
}

INSTANTIATE_TEST_SUITE_P(Factors, UnrollProperty,
                         ::testing::Values(1, 2, 3, 4, 7, 10, 13));

TEST(Unroll, ReplicatesBody) {
  const ir::Program mm = kernels::buildMM(8);
  const ir::Program unrolled = unrollInnermost(mm, 4);
  // The innermost loop's parent now holds main + remainder loops.
  const auto nest = perfectNest(unrolled);
  ASSERT_EQ(nest.size(), 2u); // nest breaks at the split point
  const ir::Loop& j = *nest.back();
  ASSERT_EQ(j.body.size(), 2u);
  EXPECT_EQ(j.body[0]->loop.step, 4);
  EXPECT_EQ(j.body[0]->loop.body.size(), 4u);
  EXPECT_EQ(j.body[1]->loop.step, 1);
}

TEST(Parallelize, MarksOuterLoop) {
  const ir::Program mm = kernels::buildMM(8);
  const std::int64_t sizes[] = {2, 2, 2};
  const ir::Program par = parallelizeOuter(tile(mm, sizes), 2);
  EXPECT_TRUE(par.rootLoop().parallel);
  EXPECT_EQ(par.rootLoop().collapse, 2);
  // Parallel markers don't change sequential semantics.
  expectSameSemantics(mm, par, "C");
}

TEST(PerfectNest, DepthComputation) {
  EXPECT_EQ(perfectNestDepth(kernels::buildMM(4)), 3u);
  EXPECT_EQ(perfectNestDepth(kernels::buildJacobi2d(5)), 2u);
  EXPECT_EQ(perfectNestDepth(kernels::buildNBody(4)), 2u);
  EXPECT_EQ(perfectNestDepth(kernels::buildStencil3d(5)), 3u);
}

} // namespace
} // namespace motune::transform
