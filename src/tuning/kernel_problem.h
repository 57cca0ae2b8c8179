// The tuning problem of the paper's evaluation: given a kernel region and a
// target machine, map a configuration (t_0..t_{d-1}, threads) to the two
// objectives (execution time, resource usage) of the variant the
// transformation skeleton yields — on the analytical machine model in this
// reproduction (DESIGN.md §1). The skeleton's nest is analyzed once into
// flat tables (perf::TiledNest) that a configuration's tile sizes are
// read against, so evaluation builds no variant.
#pragma once

#include "analyzer/region.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "perfmodel/costmodel.h"
#include "tuning/search_space.h"

#include <span>

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

  /// evaluate() of `tiles` joined with each of `threads`, in order, from
  /// one lowering of the tiles: the thread sweep's batch.
  std::vector<Objectives> evaluateThreadCounts(
      std::span<const std::int64_t> tiles,
      std::span<const std::int64_t> threads) const;

  /// Full cost breakdown (same path as evaluate()). Equal, bit for bit, to
  /// predictAnalyzed(analyzeNest(instantiate(config)), threads). Throws on
  /// a config of the wrong size or with a parameter out of its range.
  perf::Prediction predictFull(const Config& config) const;

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

  /// The skeleton's tiled nest with the tile sizes unbound (what
  /// evaluate() and analytic seeding query).
  const perf::TiledNest& nest() const { return nest_; }

  /// Builds the concrete transformed program for a configuration (used by
  /// the multi-versioning backend, codegen and validation).
  ir::Program instantiate(const Config& config) const;

private:
  /// Throws unless `config` has one value per parameter, each in range.
  void checkConfig(std::span<const std::int64_t> config) const;
  /// The calling thread's lowering of `config`'s tiles; valid until its
  /// next call. Pool threads evaluate concurrently, hence one per thread.
  const perf::LoweredNest& lowered(std::span<const std::int64_t> config) const;
  /// The selected objectives, in order, read off a prediction.
  Objectives objectivesOf(const perf::Prediction& p) const;

  kernels::KernelSpec kernel_;
  std::int64_t n_;
  analyzer::TransformationSkeleton skeleton_;
  perf::TiledNest nest_;
  perf::CostModel model_;
  std::vector<ParamSpec> space_;
  std::vector<Objective> objectives_;
};

} // namespace motune::tuning
