// Analytical execution-cost model: the reproduction's stand-in for running
// code variants on the paper's Westmere and Barcelona machines
// (DESIGN.md §1). Given a (tiled, parallelized) IR program, a machine model
// and a thread count, it predicts wall-clock time and resource usage.
//
// Mechanisms modeled (each tied to an observation in the paper):
//  * per-level cache traffic from footprint/reuse analysis — tiling
//    speedups and the L1/L2/L3 tile-size sweet spots (Table II, Fig. 2);
//  * shared L3 capacity divided among co-located threads — thread-count-
//    dependent optimal tile sizes (paper §II);
//  * DRAM bandwidth saturation per socket, load imbalance of the collapsed
//    parallel loop, and fork/join overhead — sub-linear speedup and the
//    time/efficiency trade-off (Fig. 1, Table III);
//  * scalar vs. unit-stride (vectorizable) inner loops and heavy-op
//    (div/sqrt) throughput — kernel-to-kernel contrast (Table IV/V).
#pragma once

#include "machine/machine.h"
#include "perfmodel/footprint.h"

#include <string>
#include <vector>

namespace motune::perf {

/// Calibration constants. Defaults are sensible for the two modeled
/// machines; tests pin the qualitative invariants, not these numbers.
struct CostParams {
  double fitFraction = 0.70;      ///< usable cache fraction (conflicts, assoc)
  double residentFraction = 0.40; ///< max block size kept hot under streaming
  double loopOverheadCycles = 2.0;
  double heavyOpCycles = 18.0;    ///< div/sqrt cost in cycles
  double scalarIssueFactor = 0.5; ///< non-vectorizable flop throughput factor
  double vectorIssueFactor = 1.0;
  double latencyChargeFraction = 0.45; ///< visible fraction of miss latency
                                       ///< (prefetch/overlap hides the rest)
  double noiseAmplitude = 0.0; ///< deterministic pseudo-noise, 0 = off
};

/// Cost breakdown for one (program, machine, threads) evaluation.
struct Prediction {
  double seconds = 0.0;     ///< objective 1: wall-clock time
  double resources = 0.0;   ///< objective 2: threads x seconds
  double joules = 0.0;      ///< objective 3 (optional): energy consumed

  double computeSeconds = 0.0;
  double memorySeconds = 0.0;
  double overheadSeconds = 0.0;  ///< loop bookkeeping
  double forkJoinSeconds = 0.0;
  double bandwidthSeconds = 0.0; ///< per-socket DRAM bandwidth bound
  double imbalance = 1.0;        ///< parallel load-imbalance factor (>= 1)
  int threads = 1;

  /// Bytes fetched into each cache level (machine-wide); the last entry is
  /// DRAM traffic.
  std::vector<double> trafficBytes;
};

class CostModel {
public:
  explicit CostModel(machine::MachineModel machine, CostParams params = {});

  /// Full pipeline: nest analysis + prediction.
  Prediction predict(const ir::Program& program, int threads) const;

  /// Prediction from a pre-computed nest analysis: lowerNest at the
  /// first-level line size, then predictLowered.
  Prediction predictAnalyzed(const NestAnalysis& na, int threads) const;

  /// The model's arithmetic, on a lowered nest. Every other predict path
  /// (and KernelTuningProblem's parametric nest) ends here. With
  /// `trafficBytes` false, Prediction::trafficBytes is left empty and
  /// nothing is allocated; every other field is the same.
  Prediction predictLowered(const LoweredNest& nest, int threads,
                            bool trafficBytes = true) const;

  /// Line size the footprints are counted in (the first cache level's).
  std::int64_t lineBytes() const { return machine_.caches.front().lineBytes; }

  const machine::MachineModel& machine() const { return machine_; }
  const CostParams& params() const { return params_; }

private:
  machine::MachineModel machine_;
  CostParams params_;
};

} // namespace motune::perf
