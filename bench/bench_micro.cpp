// Microbenchmarks (google-benchmark) of the framework's building blocks:
// the per-component costs behind one auto-tuning run — configuration
// evaluation through the performance model, DE generation steps,
// cache-simulator throughput, and the runtime's parallel_for dispatch.
// The Pareto primitives are timed (and gated) by bench_hotpath.
#include "bench/common.h"

#include "cachesim/hierarchy.h"
#include "core/gde3.h"
#include "core/testproblems.h"
#include "ir/bytecode.h"
#include "ir/interp.h"
#include "kernels/native.h"
#include "perfmodel/costmodel.h"
#include "perfmodel/footprint.h"
#include "runtime/parallel_for.h"
#include "transform/transforms.h"

#include <benchmark/benchmark.h>

namespace {

using namespace motune;

void BM_TileTransform(benchmark::State& state) {
  const ir::Program mm = kernels::buildMM(1400);
  const std::int64_t sizes[] = {64, 64, 64};
  for (auto _ : state)
    benchmark::DoNotOptimize(transform::tile(mm, sizes));
}
BENCHMARK(BM_TileTransform);

void BM_NestAnalysis(benchmark::State& state) {
  const ir::Program mm = kernels::buildMM(1400);
  const std::int64_t sizes[] = {64, 64, 64};
  const ir::Program tiled = transform::tile(mm, sizes);
  for (auto _ : state)
    benchmark::DoNotOptimize(perf::analyzeNest(tiled));
}
BENCHMARK(BM_NestAnalysis);

void BM_ConfigEvaluation(benchmark::State& state) {
  // One full configuration evaluation: what each of the optimizer's E
  // evaluations costs against the machine model.
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  std::int64_t threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        problem.evaluate({64, 64, 64, 1 + threads % 40}));
    ++threads;
  }
}
BENCHMARK(BM_ConfigEvaluation);

void BM_ConfigEvaluationColdTiles(benchmark::State& state) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  std::int64_t t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate({1 + t % 700, 64, 64, 8}));
    ++t;
  }
}
BENCHMARK(BM_ConfigEvaluationColdTiles);

void BM_Gde3Generation(benchmark::State& state) {
  auto problem = opt::makeZDT1();
  runtime::ThreadPool pool(1);
  opt::GDE3Options options;
  options.parallelEvaluation = false;
  opt::GDE3 engine(problem, pool, options);
  engine.initialize();
  for (auto _ : state) benchmark::DoNotOptimize(engine.step());
}
BENCHMARK(BM_Gde3Generation);

void BM_CacheSimAccess(benchmark::State& state) {
  cachesim::Hierarchy hierarchy(machine::westmere(), 1);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    hierarchy.access(addr, 8, false);
    addr = (addr + 8) % (1 << 22);
  }
}
BENCHMARK(BM_CacheSimAccess);

void BM_InterpreterMm(benchmark::State& state) {
  const ir::Program mm = kernels::buildMM(24);
  for (auto _ : state) {
    ir::Interpreter interp(mm);
    interp.run();
    benchmark::DoNotOptimize(interp.array("C").data());
  }
}
BENCHMARK(BM_InterpreterMm);

void BM_BytecodeMm(benchmark::State& state) {
  // Same program as BM_InterpreterMm through the flat-bytecode engine
  // (compile + run per iteration, matching how the pipeline uses it).
  const ir::Program mm = kernels::buildMM(24);
  for (auto _ : state) {
    ir::CompiledProgram exec(mm);
    exec.run();
    benchmark::DoNotOptimize(exec.array("C").data());
  }
}
BENCHMARK(BM_BytecodeMm);

void BM_ParallelForDispatch(benchmark::State& state) {
  runtime::ThreadPool pool(2);
  for (auto _ : state) {
    std::int64_t sum = 0;
    runtime::parallelForBlocked(pool, 0, 1024, 2,
                                [&](std::int64_t lo, std::int64_t hi) {
                                  benchmark::DoNotOptimize(lo + hi);
                                });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ParallelForDispatch);

void BM_NativeMmTiled(benchmark::State& state) {
  const std::int64_t n = 128;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  kernels::fillDeterministic(a, 1);
  kernels::fillDeterministic(b, 2);
  runtime::ThreadPool pool(1);
  for (auto _ : state) {
    kernels::mmTiled(a.data(), b.data(), c.data(), n,
                     {static_cast<std::int64_t>(state.range(0)),
                      static_cast<std::int64_t>(state.range(0)), 32},
                     1, pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_NativeMmTiled)->Arg(8)->Arg(32)->Arg(128);

} // namespace

BENCHMARK_MAIN();
