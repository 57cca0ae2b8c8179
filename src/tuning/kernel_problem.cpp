#include "tuning/kernel_problem.h"

#include "support/check.h"

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

void KernelTuningProblem::checkConfig(
    std::span<const std::int64_t> config) const {
  MOTUNE_CHECK(config.size() == space_.size());
  for (std::size_t i = 0; i < config.size(); ++i)
    MOTUNE_CHECK_MSG(config[i] >= space_[i].lo && config[i] <= space_[i].hi,
                     "parameter out of range: " + space_[i].name);
}

const perf::LoweredNest& KernelTuningProblem::lowered(
    std::span<const std::int64_t> config) const {
  // lower() overwrites all of it and keeps its capacity, so a lowering
  // allocates nothing once the thread has made one.
  thread_local perf::LoweredNest out;
  nest_.lower(config.first(nest_.tileDims()), model_.lineBytes(), out);
  return out;
}

Objectives KernelTuningProblem::objectivesOf(const perf::Prediction& p) const {
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

Objectives KernelTuningProblem::evaluate(const Config& config) {
  checkConfig(config);
  return objectivesOf(model_.predictLowered(
      lowered(config), static_cast<int>(config.back()),
      /*trafficBytes=*/false));
}

std::vector<Objectives> KernelTuningProblem::evaluateThreadCounts(
    std::span<const std::int64_t> tiles,
    std::span<const std::int64_t> threads) const {
  MOTUNE_CHECK(tiles.size() == nest_.tileDims());
  Config config(tiles.begin(), tiles.end());
  config.push_back(0);
  std::vector<Objectives> out;
  out.reserve(threads.size());
  for (const std::int64_t t : threads) {
    config.back() = t;
    checkConfig(config);
  }
  if (threads.empty()) return out;
  const perf::LoweredNest& nest = lowered(config);
  for (const std::int64_t t : threads)
    out.push_back(objectivesOf(model_.predictLowered(
        nest, static_cast<int>(t), /*trafficBytes=*/false)));
  return out;
}

perf::Prediction KernelTuningProblem::predictFull(const Config& config) const {
  checkConfig(config);
  return model_.predictLowered(lowered(config),
                               static_cast<int>(config.back()));
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
