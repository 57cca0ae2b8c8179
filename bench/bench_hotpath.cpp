// Hot-path microbenchmark suite with a committed baseline gate.
//
// Times the paths the tuning pipeline spends its cycles in — the memoizing
// evaluator's hit path, one configuration's
// evaluation on the parametric nest, all-miss search batches through the
// memoizing evaluator (also printed as the time they add per miss over
// plain evaluation), the reference path's skeleton
// instantiation + nest analysis, IR execution (tree walker vs. the flat
// bytecode engine), batched cache simulation, one checkpointed
// generation's session-journal writes, the journal's number formatter,
// the Pareto bookkeeping (a
// generation's truncation, the thread sweep's first front), the culling
// surrogate's observes and scores, and whole
// steady-state RS-GDE3 generations — and emits the
// throughputs as machine-readable JSON. With --baseline the process fails
// when any throughput drops more than the tolerance below its committed
// floor, so order-of-magnitude hot-path regressions fail CI without the
// gate flaking on runner speed (the floors are deliberately conservative).
//
// Every value is a rate (higher is better): lookups/s, evaluations/s,
// variants/s, statements/s, accesses/s, generations/s, numbers/s,
// truncations/s, fronts/s, operations/s — plus a derived
// "ratio" entry (interp.bytecode_speedup) that is machine-independent and
// therefore gated tightly.
//
//   bench_hotpath [--out BENCH_hotpath.json]
//                 [--baseline bench/baselines/hotpath_baseline.json]
//                 [--tolerance 0.30] [--min-time 0.3] [--metrics FILE]
#include "analyzer/region.h"
#include "cachesim/hierarchy.h"
#include "core/pareto.h"
#include "core/rsgde3.h"
#include "core/testproblems.h"
#include "ir/bytecode.h"
#include "ir/interp.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "observe/metrics.h"
#include "perfmodel/footprint.h"
#include "runtime/adaptive.h"
#include "runtime/thread_pool.h"
#include "runtime/traffic.h"
#include "session/session.h"
#include "support/check.h"
#include "support/json.h"
#include "support/mem_access.h"
#include "support/rng.h"
#include "support/table.h"
#include "tuning/evaluator.h"
#include "tuning/kernel_problem.h"
#include "tuning/surrogate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

// Heap allocations made by this thread while counting is on (the
// engine.generation row reports them per generation).
namespace {
thread_local bool countingAllocations = false;
thread_local std::uint64_t allocationsCounted = 0;
} // namespace

void* operator new(std::size_t bytes) {
  if (countingAllocations) ++allocationsCounted;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with the
// allocation site's operator new and warn.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace motune;

namespace {

/// Keeps a computed value alive past the optimizer.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

struct Result {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Repeats `fn` (which returns the number of items it processed) until
/// `minSeconds` of wall time have elapsed; returns items per second. One
/// untimed warm-up call precedes the measurement.
template <typename Fn> double throughput(double minSeconds, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn(); // warm-up: populate caches/memos, fault in pages
  double items = 0.0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    items += static_cast<double>(fn());
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < minSeconds);
  return items / elapsed;
}

/// Deterministic config set over a problem's space (includes repeats once
/// the space is exhausted, like a converging search re-visiting points).
std::vector<tuning::Config> makeConfigs(const tuning::ObjectiveFunction& fn,
                                        std::size_t count) {
  const auto& space = fn.space();
  std::vector<tuning::Config> configs;
  configs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tuning::Config c(space.size());
    for (std::size_t d = 0; d < space.size(); ++d) {
      const std::int64_t range = space[d].hi - space[d].lo + 1;
      c[d] = space[d].lo +
             static_cast<std::int64_t>((i * 2654435761u + d * 97) %
                                       static_cast<std::uint64_t>(range));
    }
    configs.push_back(std::move(c));
  }
  return configs;
}

/// Memo-hit throughput: the owning thread looks up an already-memoized
/// config set, so the rate measures the memo, not evaluation cost.
double memoLookupRate(double minSeconds) {
  opt::SyntheticProblem problem = opt::makeSchaffer();
  tuning::CountingEvaluator counting(problem);
  const auto configs = makeConfigs(counting, 512);
  for (const auto& c : configs) counting.evaluate(c); // warm the memo

  constexpr int kPasses = 16;
  return throughput(minSeconds, [&] {
    double acc = 0.0;
    for (int p = 0; p < kPasses; ++p)
      for (const auto& c : configs) acc += counting.evaluate(c)[0];
    escape(&acc);
    return kPasses * configs.size();
  });
}

/// 70 generations of 30 distinct mm/westmere configurations: the unique
/// points a default search evaluates, batch by batch.
std::vector<std::vector<tuning::Config>> searchBatches(
    const tuning::ObjectiveFunction& fn) {
  std::vector<std::vector<tuning::Config>> batches(70);
  std::set<tuning::Config> drawn;
  support::Rng rng(31);
  while (drawn.size() < 70 * 30) {
    tuning::Config c;
    for (const tuning::ParamSpec& p : fn.space())
      c.push_back(rng.uniformInt(p.lo, p.hi));
    if (drawn.insert(c).second)
      batches[(drawn.size() - 1) / 30].push_back(std::move(c));
  }
  return batches;
}

/// Configuration evaluation: KernelTuningProblem::evaluate over the
/// search batches' configurations (no memo in front), i.e. the parametric
/// nest plus the cost model's arithmetic that every unique search point
/// costs.
double kernelEvalRate(double minSeconds) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  const auto batches = searchBatches(problem);
  return throughput(minSeconds, [&] {
    double acc = 0.0;
    for (const auto& batch : batches)
      for (const auto& c : batch) acc += problem.evaluate(c)[0];
    escape(&acc);
    return 70 * 30;
  });
}

/// The same configurations as all-miss batches through
/// CountingEvaluator::evaluateBatch, a fresh evaluator (empty memo) every
/// 70 batches: evaluation plus the memo, counting, latency and journal
/// bookkeeping each unique point adds on the search's path.
double batchEvalRate(double minSeconds) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  const auto batches = searchBatches(problem);
  runtime::ThreadPool pool(1);
  return throughput(minSeconds, [&] {
    tuning::CountingEvaluator counter(problem);
    for (const auto& batch : batches) {
      const auto out = counter.evaluateBatch(batch, pool, false);
      escape(out.data());
    }
    return counter.evaluations();
  });
}

/// Nanoseconds evaluateBatch adds per miss over plain evaluation of the
/// same configurations. Plain and batched passes alternate and each side's
/// fastest pass counts, so load that comes and goes hits both alike.
double batchOverheadNs(double minSeconds) {
  using clock = std::chrono::steady_clock;
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  const auto batches = searchBatches(problem);
  runtime::ThreadPool pool(1);
  const auto seconds = [](clock::time_point since) {
    return std::chrono::duration<double>(clock::now() - since).count();
  };
  double plain = 1e9, batched = 1e9;
  const auto start = clock::now();
  for (int round = 0; round < 10 || seconds(start) < minSeconds; ++round) {
    auto t = clock::now();
    double acc = 0.0;
    for (const auto& batch : batches)
      for (const auto& c : batch) acc += problem.evaluate(c)[0];
    escape(&acc);
    plain = std::min(plain, seconds(t));
    t = clock::now();
    {
      tuning::CountingEvaluator counter(problem);
      for (const auto& batch : batches) {
        const auto out = counter.evaluateBatch(batch, pool, false);
        escape(out.data());
      }
    }
    batched = std::min(batched, seconds(t));
  }
  return (batched - plain) / (70 * 30) * 1e9;
}

/// The reference path: skeleton instantiation plus a full nest analysis,
/// as codegen, --validate and the bench's replay probe run it. Evaluation
/// no longer takes this path (see kernelEvalRate).
double variantRate(double minSeconds) {
  const ir::Program program = kernels::buildMM(64);
  const auto skeleton = analyzer::TransformationSkeleton::build(program, 8);
  const auto& params = skeleton.params();
  constexpr std::size_t kBatch = 4;
  std::size_t tick = 0;
  return throughput(minSeconds, [&] {
    for (std::size_t b = 0; b < kBatch; ++b, ++tick) {
      std::vector<std::int64_t> values(params.size());
      for (std::size_t d = 0; d < params.size(); ++d) {
        const std::int64_t range = params[d].hi - params[d].lo + 1;
        values[d] = params[d].lo +
                    static_cast<std::int64_t>((tick * 7 + d * 3) %
                                              static_cast<std::uint64_t>(range));
      }
      const ir::Program variant = skeleton.instantiate(values);
      const perf::NestAnalysis analysis = perf::analyzeNest(variant);
      escape(&analysis);
    }
    return kBatch;
  });
}

/// Statements per second executing matrix multiply (N = 24) through
/// either engine. Construction is
/// inside the timed region — the tuning pipeline rebuilds the executor per
/// simulated variant, so that cost is part of the path.
double interpRate(bool bytecode, double minSeconds) {
  const ir::Program mm = kernels::buildMM(24);
  return throughput(minSeconds, [&] {
    if (bytecode) {
      ir::CompiledProgram exec(mm);
      exec.run();
      escape(&exec.array("C"));
      return exec.statementsExecuted();
    }
    ir::Interpreter exec(mm);
    exec.run();
    escape(&exec.array("C"));
    return exec.statementsExecuted();
  });
}

/// Batched cache-hierarchy throughput on a deterministic read/write stream
/// mixing strided sweeps with scattered lines (hits and misses both on the
/// path).
double cachesimRate(double minSeconds) {
  std::vector<support::MemAccess> stream;
  stream.reserve(1 << 16);
  std::uint64_t state = 0x243f6a8885a308d3ull;
  for (std::size_t i = 0; i < (1u << 16); ++i) {
    support::MemAccess a;
    if (i % 4 == 3) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      a.addr = (state >> 20) % (64ull << 20); // scattered within 64 MB
    } else {
      a.addr = (i * 8) % (8ull << 20); // strided sweep within 8 MB
    }
    a.bytes = 8;
    a.isWrite = i % 8 == 0;
    stream.push_back(a);
  }
  cachesim::Hierarchy hierarchy(machine::westmere(), 1);
  return throughput(minSeconds, [&] {
    hierarchy.access(std::span<const support::MemAccess>(stream));
    escape(&hierarchy);
    return stream.size();
  });
}

/// Adaptive dispatch: one steady-state select() + onMeasured() cycle on a
/// warmed policy — the overhead the adaptive runtime adds to every region
/// invocation. Healthy is tens of nanoseconds, i.e. tens of millions of
/// selections per second.
double adaptiveDispatchRate(double minSeconds) {
  const mv::VersionTable table = runtime::syntheticTable(6, 1, 16);
  runtime::AdaptiveOptions options;
  options.window = 16;
  runtime::AdaptivePolicy policy(options);
  runtime::AdaptiveContext context;
  context.sizeBucket = 12;
  context.availableThreads = 16;
  policy.setContext(context);
  for (int i = 0; i < 64; ++i) // get past warmup: measure the Hold path
    policy.onMeasured(policy.select(table), 1e-3);
  constexpr std::size_t kBatch = 1024;
  return throughput(minSeconds, [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::size_t arm = policy.select(table);
      policy.onMeasured(arm, 1e-3 + 1e-6 * static_cast<double>(arm));
    }
    escape(&policy);
    return kBatch;
  });
}

/// One checkpointed generation's journal traffic: a batch of 25 `eval`
/// records (about one RS-GDE3 generation's unique evaluations on
/// mm/westmere) plus a checkpoint (~7 KB at the end), both appended through
/// the session writer to a journal in a temporary directory. The
/// checkpoints cycle through the 71 states a 70-generation RS-GDE3 run
/// passed through, each held by an engine restored to it, and encode
/// through one memo as the tuner's checkpoints do: each iteration pays for
/// what changed since the previous state, not for a memo that always hits.
double journalGenerationRate(double minSeconds) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  runtime::ThreadPool pool(1);
  opt::GDE3Options gde3;
  gde3.seed = 1;
  gde3.maxGenerations = 70;
  gde3.noImproveLimit = 70; // run all 70 generations
  std::vector<support::Json> states;
  {
    opt::RSGDE3 engine(problem, pool, {gde3, true});
    opt::RunHooks hooks;
    hooks.checkpoint = [&states](const opt::RSGDE3& search, int) {
      states.push_back(search.serialize());
    };
    (void)engine.run(&hooks);
  }
  std::vector<std::unique_ptr<opt::RSGDE3>> engines;
  for (const support::Json& state : states) {
    engines.push_back(std::make_unique<opt::RSGDE3>(
        problem, pool, opt::RSGDE3Options{gde3, true}));
    engines.back()->restore(state);
  }

  std::vector<tuning::CountingEvaluator::Entry> entries;
  for (const tuning::Config& c : makeConfigs(problem, 25))
    entries.emplace_back(c, problem.evaluate(c));
  std::vector<const tuning::CountingEvaluator::Entry*> batch;
  for (const auto& e : entries) batch.push_back(&e);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("motune-hotpath-journal-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  session::SessionHeader header;
  header.problem = "bench_hotpath";
  header.algorithm = "rsgde3";
  header.objectives = problem.numObjectives();
  header.space = problem.space();
  double rate = 0.0;
  {
    session::SessionWriter writer(dir.string(), header);
    opt::EncodeMemo memo;
    int generation = 0;
    rate = throughput(minSeconds, [&] {
      writer.recordEvaluations(batch);
      const opt::RSGDE3& engine = *engines[static_cast<std::size_t>(
          generation % static_cast<int>(engines.size()))];
      ++generation;
      writer.recordCheckpoint(
          generation, 25u * generation,
          [&](std::string& out) { engine.encodeState(out, &memo); });
      return 1;
    });
  }
  std::filesystem::remove_all(dir);
  return rate;
}

/// support::numberTo over non-integer doubles of the magnitudes a journal
/// holds (objectives in seconds and resource units, genome values),
/// formatted into one reused string.
double numberToRate(double minSeconds) {
  support::Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i)
    values.push_back((1.0 + rng.uniform()) *
                     std::pow(10.0, static_cast<double>(rng.uniformInt(-6, 3))));
  std::string text;
  return throughput(minSeconds, [&] {
    text.clear();
    for (const double v : values) support::numberTo(v, text);
    escape(text.data());
    return values.size();
  });
}

/// A fixed seeded two-objective population shaped like a GDE3 one: a
/// noisy anti-correlated trade-off, so the members spread over several
/// fronts, each with a 4-d genome and config as the kernels have.
std::vector<opt::Individual> tradeOffPopulation(std::size_t n,
                                                std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<opt::Individual> pop;
  pop.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform();
    opt::Individual ind;
    ind.genome = {x, rng.uniform(), rng.uniform(), rng.uniform()};
    for (double g : ind.genome)
      ind.config.push_back(static_cast<std::int64_t>(g * 64.0));
    ind.objectives = {x, 1.0 - x + 0.5 * rng.uniform() * rng.uniform()};
    pop.push_back(std::move(ind));
  }
  return pop;
}

/// One GDE3 generation's truncation: a 60-member population (parents
/// plus surviving trials) copied and cut back to 30 by rank and crowding.
double truncateRate(double minSeconds) {
  const std::vector<opt::Individual> pop = tradeOffPopulation(60, 11);
  return throughput(minSeconds, [&] {
    std::vector<opt::Individual> next = pop;
    opt::truncateByRankAndCrowding(next, 30);
    escape(next.data());
    return 1;
  });
}

/// The surrogate model on an mm/westmere stream: a fresh model observes
/// 600 evaluated search points in order and, once it is ready, scores two
/// other points per observation, as a search culling at keep 0.5 does (30
/// trials scored, 15 evaluated per generation). Its refits included.
/// Counts observes plus scores.
double surrogateRate(double minSeconds) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  std::vector<tuning::Config> configs;
  for (const auto& batch : searchBatches(problem)) {
    configs.insert(configs.end(), batch.begin(), batch.end());
    if (configs.size() >= 600) break;
  }
  std::vector<tuning::Objectives> objectives;
  for (const tuning::Config& c : configs)
    objectives.push_back(problem.evaluate(c));
  return throughput(minSeconds, [&] {
    tuning::Surrogate model(problem.space(), problem.numObjectives());
    std::size_t operations = 0;
    double acc = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      model.observe(configs[i], objectives[i]);
      ++operations;
      if (!model.ready()) continue;
      for (std::size_t k = 1; k <= 2; ++k)
        acc += model.score(configs[(i + k * 97) % configs.size()]);
      operations += 2;
    }
    escape(&acc);
    return operations;
  });
}

/// Steady-state generations of a default RS-GDE3 search on mm/westmere
/// whose stop rule never fires: variation, evaluation of the trials
/// through the memo, selection, truncation, hypervolume, immigrants and
/// the rough-set reduction, after 20 warm-up generations. Also returns the
/// heap allocations per generation.
double generationRate(double minSeconds, double& allocationsPerGeneration) {
  tuning::KernelTuningProblem problem(kernels::kernelByName("mm"),
                                      machine::westmere());
  runtime::ThreadPool pool(1);
  opt::RSGDE3Options options;
  options.gde3.parallelEvaluation = false;
  options.gde3.noImproveLimit = std::numeric_limits<int>::max();
  options.maxTotalGenerations = std::numeric_limits<int>::max();
  opt::RSGDE3 engine(problem, pool, options);
  engine.begin();
  const auto generation = [&engine] {
    MOTUNE_CHECK(engine.nextGeneration());
    engine.endGeneration();
  };
  for (int g = 0; g < 20; ++g) generation();
  std::uint64_t generations = 0;
  allocationsCounted = 0;
  countingAllocations = true;
  const double rate = throughput(minSeconds, [&] {
    generation();
    ++generations;
    return 1;
  });
  countingAllocations = false;
  allocationsPerGeneration = static_cast<double>(allocationsCounted) /
                             static_cast<double>(generations);
  return rate;
}

/// The first front of 340 points, the size of the thread sweep's pool.
double frontIndicesRate(double minSeconds) {
  const std::vector<opt::Individual> pop = tradeOffPopulation(340, 13);
  return throughput(minSeconds, [&] {
    const std::vector<std::size_t> front = opt::nonDominatedIndices(pop);
    escape(front.data());
    return 1;
  });
}

support::Json toJson(const std::vector<Result>& results) {
  support::JsonArray benchmarks;
  for (const auto& r : results)
    benchmarks.push_back(support::Json(support::JsonObject{
        {"name", support::Json(r.name)},
        {"value", support::Json(r.value)},
        {"unit", support::Json(r.unit)}}));
  return support::Json(support::JsonObject{
      {"schema", support::Json(1)},
      {"benchmarks", support::Json(std::move(benchmarks))}});
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  MOTUNE_CHECK_MSG(in.good(), "cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Gate: every baseline entry must exist in `current` with
/// value >= baseline * (1 - tolerance). Extra current entries (new
/// benchmarks not yet in the baseline) pass with a note.
int compare(const std::vector<Result>& current, const support::Json& baseline,
            double tolerance) {
  std::map<std::string, double> currentByName;
  for (const auto& r : current) currentByName[r.name] = r.value;

  support::TextTable table("hot-path throughput vs. baseline floor "
                           "(tolerance " + support::fmtPercent(tolerance) +
                           ")");
  table.setHeader({"benchmark", "current", "floor", "status"});
  int failures = 0;
  const support::Json& entries = baseline.at("benchmarks");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string name = entries[i].at("name").asString();
    const double floor = entries[i].at("value").asNumber();
    const auto it = currentByName.find(name);
    if (it == currentByName.end()) {
      table.addRow({name, "-", support::fmt(floor, 3), "MISSING"});
      ++failures;
      continue;
    }
    const bool ok = it->second >= floor * (1.0 - tolerance);
    if (!ok) ++failures;
    table.addRow({name, support::fmt(it->second, 3), support::fmt(floor, 3),
                  ok ? "ok" : "REGRESSION"});
  }
  std::cout << table.render();
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    MOTUNE_CHECK_MSG(key.rfind("--", 0) == 0, "unknown argument: " + key);
    options[key.substr(2)] = argv[i + 1];
  }
  const double tolerance =
      options.count("tolerance") ? std::stod(options.at("tolerance")) : 0.30;
  const double minTime =
      options.count("min-time") ? std::stod(options.at("min-time")) : 0.3;

  std::cout << "=== hot-path microbenchmarks ===\n";
  std::vector<Result> results;
  const auto add = [&](std::string name, double value, std::string unit) {
    std::cout << "  " << name << ": " << support::fmt(value, 3) << " " << unit
              << "\n";
    results.push_back({std::move(name), value, std::move(unit)});
  };

  add("memo.lookup.serial", memoLookupRate(minTime), "lookups/s");
  add("eval.kernel_problem", kernelEvalRate(minTime), "evaluations/s");
  add("eval.batch", batchEvalRate(minTime), "evaluations/s");
  std::cout << "  eval.batch overhead per miss: "
            << support::fmt(batchOverheadNs(minTime), 3) << " ns\n";
  add("variant.instantiate_analyze", variantRate(minTime), "variants/s");
  const double tree = interpRate(/*bytecode=*/false, minTime);
  add("interp.tree", tree, "statements/s");
  const double bytecode = interpRate(/*bytecode=*/true, minTime);
  add("interp.bytecode", bytecode, "statements/s");
  add("cachesim.batch", cachesimRate(minTime), "accesses/s");
  add("dispatch.adaptive_select", adaptiveDispatchRate(minTime),
      "selections/s");
  add("session.journal_generation", journalGenerationRate(minTime),
      "generations/s");
  add("support.number_to", numberToRate(minTime), "numbers/s");
  add("pareto.truncate", truncateRate(minTime), "truncations/s");
  add("pareto.front_indices", frontIndicesRate(minTime), "fronts/s");
  add("tuning.surrogate", surrogateRate(minTime), "operations/s");
  double allocationsPerGeneration = 0.0;
  add("engine.generation", generationRate(minTime, allocationsPerGeneration),
      "generations/s");
  std::cout << "  engine.generation heap allocations per generation: "
            << support::fmt(allocationsPerGeneration, 3) << "\n";
  // Machine-independent ratio: gated tighter than the absolute floors.
  add("interp.bytecode_speedup", tree > 0.0 ? bytecode / tree : 0.0, "ratio");

  auto& metrics = observe::MetricsRegistry::global();
  for (const auto& r : results)
    metrics.gauge("bench.hotpath." + r.name).set(r.value);

  const support::Json doc = toJson(results);
  if (options.count("out")) {
    std::ofstream out(options.at("out"));
    MOTUNE_CHECK_MSG(out.good(), "cannot write " + options.at("out"));
    out << doc.dump(2) << "\n";
    std::cout << "results written to " << options.at("out") << "\n";
  }
  if (options.count("metrics")) {
    std::ofstream out(options.at("metrics"));
    MOTUNE_CHECK_MSG(out.good(), "cannot write " + options.at("metrics"));
    out << metrics.toJson().dump(2) << "\n";
  }

  if (!options.count("baseline")) {
    std::cout << doc.dump(2) << "\n";
    return 0;
  }
  const support::Json baselineDoc =
      support::Json::parse(readFile(options.at("baseline")));
  const int failures = compare(results, baselineDoc, tolerance);
  if (failures > 0) {
    std::cerr << failures << " hot-path gate(s) failed\n";
    return 1;
  }
  std::cout << "all hot-path gates passed\n";
  return 0;
}
