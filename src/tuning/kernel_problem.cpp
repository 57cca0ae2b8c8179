#include "tuning/kernel_problem.h"

#include "support/check.h"

#include <span>

namespace motune::tuning {

const char* objectiveName(Objective objective) {
  switch (objective) {
  case Objective::Time: return "time";
  case Objective::Resources: return "resources";
  case Objective::Energy: return "energy";
  }
  return "unknown";
}

Objective objectiveFromName(const std::string& name) {
  std::string known;
  for (Objective o :
       {Objective::Time, Objective::Resources, Objective::Energy}) {
    if (name == objectiveName(o)) return o;
    known += (known.empty() ? "" : ", ") + std::string(objectiveName(o));
  }
  MOTUNE_CHECK_MSG(false, "unknown objective: " + name + " (available: " +
                              known + ")");
  return Objective::Time;
}

KernelTuningProblem::KernelTuningProblem(const kernels::KernelSpec& kernel,
                                         machine::MachineModel machine,
                                         std::int64_t n,
                                         perf::CostParams params,
                                         std::vector<Objective> objectives)
    : kernel_(kernel),
      n_(n > 0 ? n : kernel.paperN),
      skeleton_(analyzer::TransformationSkeleton::build(kernel.buildIR(n_),
                                                        machine.totalCores())),
      nest_(skeleton_),
      model_(std::move(machine), params),
      space_(skeleton_.params()),
      objectives_(std::move(objectives)) {
  MOTUNE_CHECK(skeleton_.tileDepth() == kernel_.tileDims);
  MOTUNE_CHECK(!objectives_.empty());
}

Objectives KernelTuningProblem::evaluate(const Config& config) {
  const perf::Prediction p = predictFull(config);
  Objectives out;
  out.reserve(objectives_.size());
  for (const Objective obj : objectives_) {
    switch (obj) {
    case Objective::Time: out.push_back(p.seconds); break;
    case Objective::Resources: out.push_back(p.resources); break;
    case Objective::Energy: out.push_back(p.joules); break;
    }
  }
  return out;
}

perf::Prediction KernelTuningProblem::predictFull(const Config& config) const {
  MOTUNE_CHECK(config.size() == space_.size());
  for (std::size_t i = 0; i < config.size(); ++i)
    MOTUNE_CHECK_MSG(config[i] >= space_[i].lo && config[i] <= space_[i].hi,
                     "parameter out of range: " + space_[i].name);
  const std::span<const std::int64_t> tiles(config.data(), nest_.tileDims());
  // The thread's own lowered nest: lower() overwrites all of it and keeps
  // its capacity, so an evaluation allocates only its results. Pool
  // threads evaluate concurrently, hence one per thread.
  thread_local perf::LoweredNest lowered;
  nest_.lower(tiles, model_.lineBytes(), lowered);
  return model_.predictLowered(lowered, static_cast<int>(config.back()));
}

double KernelTuningProblem::untiledSerialSeconds() const {
  return untiledSerialPrediction().seconds;
}

perf::Prediction KernelTuningProblem::untiledSerialPrediction() const {
  const ir::Program base = kernel_.buildIR(n_);
  return model_.predict(base, 1);
}

ir::Program KernelTuningProblem::instantiate(const Config& config) const {
  return skeleton_.instantiate(config);
}

} // namespace motune::tuning
