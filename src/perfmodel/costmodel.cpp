#include "perfmodel/costmodel.h"

#include "support/check.h"

#include <algorithm>
#include <cmath>

namespace motune::perf {

namespace {

/// Deterministic hash-derived factor in [1 - amp, 1 + amp]; stands in for
/// measurement noise while keeping every experiment reproducible.
double noiseFactor(const LoweredNest& nest, int threads, double amp) {
  if (amp <= 0.0) return 1.0;
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(threads);
  for (const double trip : nest.avgTrip) {
    const auto bits = static_cast<std::uint64_t>(trip * 4096.0);
    h ^= bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53; // [0,1)
  return 1.0 + amp * (2.0 * unit - 1.0);
}

} // namespace

CostModel::CostModel(machine::MachineModel machine, CostParams params)
    : machine_(std::move(machine)), params_(params) {
  MOTUNE_CHECK(!machine_.caches.empty());
}

Prediction CostModel::predict(const ir::Program& program, int threads) const {
  return predictAnalyzed(analyzeNest(program), threads);
}

Prediction CostModel::predictAnalyzed(const NestAnalysis& na,
                                      int threads) const {
  return predictLowered(lowerNest(na, lineBytes()), threads);
}

Prediction CostModel::predictLowered(const LoweredNest& nest, int threads,
                                     bool trafficBytes) const {
  MOTUNE_CHECK(threads >= 1);
  Prediction out;
  out.threads = threads;

  const std::size_t depth = nest.depth();
  const std::int64_t line = lineBytes();
  const double freqHz = machine_.freqGHz * 1e9;

  // --- parallel decomposition ----------------------------------------------
  double chunks = 1.0;
  if (nest.parallel) {
    for (int l = 0; l < nest.collapse && l < static_cast<int>(depth); ++l)
      chunks *= nest.avgTrip[static_cast<std::size_t>(l)];
  }
  const int hwThreads = std::min(threads, machine_.totalCores());
  const int pEff = std::max(1, std::min<int>(hwThreads,
                                             static_cast<int>(chunks)));
  out.imbalance =
      chunks > 0 ? std::ceil(chunks / pEff) * pEff / chunks : 1.0;

  auto perThreadOuter = [&](std::size_t level) {
    return std::max(1.0, nest.outerIterations(level) / pEff);
  };

  // --- per-level cache traffic ----------------------------------------------
  // Thread-sharing analysis (lowerNest): an access class whose subscripts
  // do not depend on any parallel induction variable touches the SAME data
  // in every thread (e.g. the X/Y/Z sweeps of n-body). In a socket-shared
  // cache such data occupies one copy for all co-located threads, whereas
  // thread-private data (e.g. mm's C tiles) is replicated per thread —
  // this is why the paper's n-body set "fits entirely in the cache" on
  // Westmere regardless of the thread count (§V.C).
  const std::size_t numClasses = nest.classShared.size();
  const std::size_t numCaches = machine_.caches.size();
  // Per-thread bytes per level; scaled to machine-wide at the end.
  if (trafficBytes) out.trafficBytes.assign(numCaches, 0.0);
  double memCycles = 0.0;
  double socketDramBytes = 0.0;
  for (std::size_t c = 0; c < numCaches; ++c) {
    const auto& spec = machine_.caches[c];
    const double sharers =
        spec.sharedPerSocket ? machine_.maxThreadsOnOneSocket(hwThreads) : 1.0;
    const double rawCapacity = static_cast<double>(spec.capacityBytes);
    const double capacity = rawCapacity * params_.fitFraction;
    auto weight = [&](std::size_t k) {
      // Private data: one copy per thread.
      return nest.classShared[k] ? 1.0 : sharers;
    };

    // Outermost level whose (sharing-weighted) working set is resident.
    std::size_t mStar = depth;
    for (std::size_t lvl = 0; lvl <= depth; ++lvl) {
      double weighted = 0.0;
      for (std::size_t k = 0; k < numClasses; ++k)
        weighted += nest.footprint(k, lvl) * weight(k);
      if (weighted <= capacity) {
        mStar = lvl;
        break;
      }
    }

    const double nextLatency =
        c + 1 < numCaches
            ? static_cast<double>(machine_.caches[c + 1].latencyCycles)
            : static_cast<double>(machine_.dramLatencyCycles);
    const bool lastLevel = c + 1 == numCaches;

    double bytes = 0.0;
    for (std::size_t k = 0; k < numClasses; ++k) {
      const double fpStar = nest.footprint(k, mStar);
      // Small blocks that do not grow across outer loops stay hot under
      // LRU even when the total working set streams (e.g. the C tile of mm
      // across the kt loop): walk outward while the class's footprint is
      // unchanged and small.
      std::size_t lvlA = mStar;
      if (fpStar * weight(k) <= params_.residentFraction * rawCapacity) {
        while (lvlA > 0 && nest.footprint(k, lvlA - 1) <= fpStar * 1.02)
          --lvlA;
      }
      const double classBytes = perThreadOuter(lvlA) * fpStar;
      bytes += classBytes;
      // Shared-class misses at the last level are amortized across the
      // socket: one DRAM fetch serves every co-located thread.
      const bool shared = nest.classShared[k] != 0;
      const double amortize = lastLevel && shared ? sharers : 1.0;
      memCycles += classBytes / static_cast<double>(line) * nextLatency *
                   params_.latencyChargeFraction / amortize;
      if (lastLevel)
        socketDramBytes += classBytes * (shared ? 1.0 : sharers);
    }
    if (trafficBytes) out.trafficBytes[c] = bytes;
  }

  // --- compute and loop overhead --------------------------------------------
  const double leafIterPT = nest.leafIterations() / pEff;
  const double issue = nest.innermostUnitStride
                            ? params_.vectorIssueFactor
                            : params_.scalarIssueFactor;
  const double flopsPerCycle = machine_.flopsPerCyclePerCore * issue;
  const double computeCycles =
      leafIterPT * (nest.flopsPerIter / flopsPerCycle +
                    nest.heavyOpsPerIter * params_.heavyOpCycles);

  double loopCycles = 0.0;
  for (std::size_t l = 0; l < depth; ++l)
    loopCycles += perThreadOuter(l + 1) * params_.loopOverheadCycles;

  // --- assemble --------------------------------------------------------------
  const double contention = machine_.memContentionFactor(hwThreads);
  out.computeSeconds = computeCycles / freqHz;
  out.memorySeconds = memCycles / freqHz;
  out.overheadSeconds = loopCycles / freqHz;

  out.bandwidthSeconds =
      socketDramBytes / (machine_.dramBandwidthGBs * 1e9);

  out.forkJoinSeconds =
      threads > 1 ? (machine_.forkJoinBaseUs +
                     machine_.forkJoinPerThreadUs * threads) * 1e-6
                  : 0.0;

  // The contention factor scales the whole parallel execution: cache
  // coherence, snoop and interconnect traffic slow co-located threads down
  // even when their working sets are private (calibrated against the
  // paper's measured Table III efficiencies; == 1 for a single thread).
  const double perThread =
      out.computeSeconds + out.memorySeconds + out.overheadSeconds;
  double wall = std::max(perThread, out.bandwidthSeconds) * contention *
                    out.imbalance +
                out.forkJoinSeconds;
  wall *= noiseFactor(nest, threads, params_.noiseAmplitude);

  out.seconds = wall;
  out.resources = static_cast<double>(threads) * wall;

  // Energy: busy cores + occupied-socket base power over the run, plus the
  // DRAM access energy of the machine-wide traffic.
  const double dramBytesTotal =
      socketDramBytes * machine_.socketsUsed(hwThreads);
  out.joules = wall * (machine_.corePowerActiveW * hwThreads +
                       machine_.socketPowerBaseW *
                           machine_.socketsUsed(hwThreads)) +
               dramBytesTotal * machine_.dramEnergyPerByteNj * 1e-9;

  for (double& bytes : out.trafficBytes) bytes *= pEff;
  return out;
}

} // namespace motune::perf
