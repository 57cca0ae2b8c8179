// The tuning problem of the paper's evaluation: given a kernel region and a
// target machine, map a configuration (t_0..t_{d-1}, threads) to the two
// objectives (execution time, resource usage) by instantiating the
// transformation skeleton and evaluating the resulting variant — on the
// analytical machine model in this reproduction (DESIGN.md §1).
#pragma once

#include "analyzer/region.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "perfmodel/costmodel.h"
#include "tuning/search_space.h"

#include <memory>
#include <mutex>
#include <unordered_map>

namespace motune::tuning {

/// Abstract multi-objective function f : C -> R^m (paper §III.B.1); all
/// objectives are minimized. Implementations must be thread-safe —
/// configurations are evaluated in parallel.
class ObjectiveFunction {
public:
  virtual ~ObjectiveFunction() = default;
  virtual std::size_t numObjectives() const = 0;
  virtual const std::vector<ParamSpec>& space() const = 0;
  virtual Objectives evaluate(const Config& config) = 0;
};

/// Which cost-model outputs a tuning problem minimizes.
enum class Objective {
  Time,      ///< wall-clock seconds
  Resources, ///< threads x seconds (inverse parallel efficiency)
  Energy,    ///< joules (core + socket + DRAM energy)
};

/// The objective's name as flags, job specs and session tags spell it
/// ("time", "resources", "energy").
const char* objectiveName(Objective objective);
/// Inverse of objectiveName; throws, listing the names, on an unknown one.
Objective objectiveFromName(const std::string& name);

class KernelTuningProblem final : public ObjectiveFunction {
public:
  /// `n` == 0 selects the kernel's experiment problem size (paperN).
  /// The default objective pair is the paper's (time, resources); pass any
  /// combination — e.g. {Time, Resources, Energy} for the tri-objective
  /// problem (hypervolume and dominance generalize, see core/).
  KernelTuningProblem(const kernels::KernelSpec& kernel,
                      machine::MachineModel machine, std::int64_t n = 0,
                      perf::CostParams params = {},
                      std::vector<Objective> objectives = {
                          Objective::Time, Objective::Resources});

  std::size_t numObjectives() const override { return objectives_.size(); }
  const std::vector<ParamSpec>& space() const override { return space_; }
  const std::vector<Objective>& objectives() const { return objectives_; }

  /// The selected objective values for one configuration.
  Objectives evaluate(const Config& config) override;

  /// Full cost breakdown (same path as evaluate()).
  perf::Prediction predictFull(const Config& config);

  /// Time of the untiled, serial region — the "GCC -O3" baseline analog of
  /// Table II's last row.
  double untiledSerialSeconds() const;

  /// Full baseline prediction (time, resources, energy) of the untiled
  /// serial region; used to normalize any objective selection.
  perf::Prediction untiledSerialPrediction() const;

  const analyzer::TransformationSkeleton& skeleton() const {
    return skeleton_;
  }
  const machine::MachineModel& machine() const { return model_.machine(); }
  const kernels::KernelSpec& kernel() const { return kernel_; }
  std::int64_t problemSize() const { return n_; }

  /// Builds the concrete transformed program for a configuration (used by
  /// the multi-versioning backend and codegen).
  ir::Program instantiate(const Config& config) const;

  /// Caps the variant cache (test hook; clears the cache). The default
  /// capacity admits every tile combination of the paper's grids.
  void setVariantCacheCapacity(std::size_t capacity);

  /// Cached variant count / residency probe / eviction count — exposed so
  /// tests can pin the CLOCK eviction behaviour.
  std::size_t variantCacheSize() const;
  bool variantCached(const Config& config) const;
  std::uint64_t variantEvictions() const;

private:
  struct Variant {
    ir::Program program;
    perf::NestAnalysis analysis;
  };
  /// The cached (program, analysis) pair for a configuration's tile
  /// prefix. Returned shared so a concurrent eviction can never dangle an
  /// in-use variant.
  std::shared_ptr<const Variant> variantFor(const Config& config);

  kernels::KernelSpec kernel_;
  std::int64_t n_;
  analyzer::TransformationSkeleton skeleton_;
  perf::CostModel model_;
  std::vector<ParamSpec> space_;
  std::vector<Objective> objectives_;

  // Tile-indexed variant cache: thread sweeps over identical tile sizes
  // reuse the (expensive) footprint analysis. Keyed by the ConfigHash of
  // the tile prefix (no string key construction per lookup); the stored
  // tiles guard against hash collisions. Bounded by CLOCK second-chance
  // eviction: a hit sets the slot's referenced bit, a full insert sweeps
  // the hand over the slots, clearing bits until it finds an unreferenced
  // victim — recently used variants survive, instead of the whole working
  // set being dropped mid-search.
  struct CacheSlot {
    std::uint64_t key = 0;
    std::vector<std::int64_t> tiles;
    std::shared_ptr<const Variant> variant;
    bool referenced = false;
  };
  std::shared_ptr<const Variant> lookupLocked(std::uint64_t key,
                                              const Config& config,
                                              std::size_t tileDims);
  void insertLocked(std::uint64_t key, const Config& config,
                    std::size_t tileDims,
                    const std::shared_ptr<const Variant>& variant);

  mutable std::mutex cacheMutex_;
  std::size_t cacheCapacity_;
  std::vector<CacheSlot> slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> slotIndex_;
  std::size_t clockHand_ = 0;
  std::uint64_t evictions_ = 0;
};

} // namespace motune::tuning
