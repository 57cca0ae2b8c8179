#include "tuning/kernel_problem.h"

#include "support/check.h"

#include <algorithm>

namespace motune::tuning {

namespace {
constexpr std::size_t kMaxCachedVariants = 200000;

bool tilesMatch(const std::vector<std::int64_t>& tiles, const Config& config,
                std::size_t tileDims) {
  if (tiles.size() != tileDims) return false;
  return std::equal(tiles.begin(), tiles.end(), config.begin());
}
} // namespace

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
      model_(std::move(machine), params),
      space_(skeleton_.params()),
      objectives_(std::move(objectives)),
      cacheCapacity_(kMaxCachedVariants) {
  MOTUNE_CHECK(skeleton_.tileDepth() == kernel_.tileDims);
  MOTUNE_CHECK(!objectives_.empty());
}

std::shared_ptr<const KernelTuningProblem::Variant>
KernelTuningProblem::lookupLocked(std::uint64_t key, const Config& config,
                                  std::size_t tileDims) {
  auto it = slotIndex_.find(key);
  if (it == slotIndex_.end()) return nullptr;
  CacheSlot& slot = slots_[it->second];
  // A 64-bit hash collision between distinct tile vectors is astronomically
  // unlikely; when it happens the colliding insert simply replaces the
  // resident entry, so correctness never rests on hash uniqueness.
  if (!tilesMatch(slot.tiles, config, tileDims)) return nullptr;
  slot.referenced = true;
  return slot.variant;
}

void KernelTuningProblem::insertLocked(
    std::uint64_t key, const Config& config, std::size_t tileDims,
    const std::shared_ptr<const Variant>& variant) {
  if (auto it = slotIndex_.find(key); it != slotIndex_.end()) {
    // Hash collision with different tiles: replace in place.
    CacheSlot& slot = slots_[it->second];
    slot.tiles.assign(config.begin(), config.begin() + tileDims);
    slot.variant = variant;
    slot.referenced = true;
    return;
  }

  std::size_t idx;
  if (slots_.size() < cacheCapacity_) {
    idx = slots_.size();
    slots_.emplace_back();
  } else {
    // CLOCK second chance: sweep the hand, downgrading referenced slots,
    // and evict the first unreferenced one. Terminates within two sweeps.
    while (slots_[clockHand_].referenced) {
      slots_[clockHand_].referenced = false;
      clockHand_ = (clockHand_ + 1) % slots_.size();
    }
    idx = clockHand_;
    slotIndex_.erase(slots_[idx].key);
    ++evictions_;
    clockHand_ = (clockHand_ + 1) % slots_.size();
  }
  CacheSlot& slot = slots_[idx];
  slot.key = key;
  slot.tiles.assign(config.begin(), config.begin() + tileDims);
  slot.variant = variant;
  slot.referenced = true;
  slotIndex_.emplace(key, static_cast<std::uint32_t>(idx));
}

std::shared_ptr<const KernelTuningProblem::Variant>
KernelTuningProblem::variantFor(const Config& config) {
  const std::size_t tileDims = skeleton_.tileDepth();
  const std::uint64_t key = ConfigHash::hashPrefix(config, tileDims);
  {
    std::lock_guard lock(cacheMutex_);
    if (auto hit = lookupLocked(key, config, tileDims)) return hit;
  }
  auto variant = std::make_shared<Variant>();
  variant->program = skeleton_.instantiate(config);
  variant->analysis = perf::analyzeNest(variant->program);
  std::lock_guard lock(cacheMutex_);
  // Losing a build race keeps the first entry; both are equal.
  if (auto hit = lookupLocked(key, config, tileDims)) return hit;
  insertLocked(key, config, tileDims, variant);
  return variant;
}

void KernelTuningProblem::setVariantCacheCapacity(std::size_t capacity) {
  MOTUNE_CHECK(capacity >= 1);
  std::lock_guard lock(cacheMutex_);
  cacheCapacity_ = capacity;
  slots_.clear();
  slotIndex_.clear();
  clockHand_ = 0;
}

std::size_t KernelTuningProblem::variantCacheSize() const {
  std::lock_guard lock(cacheMutex_);
  return slots_.size();
}

bool KernelTuningProblem::variantCached(const Config& config) const {
  const std::size_t tileDims = skeleton_.tileDepth();
  const std::uint64_t key = ConfigHash::hashPrefix(config, tileDims);
  std::lock_guard lock(cacheMutex_);
  auto it = slotIndex_.find(key);
  return it != slotIndex_.end() &&
         tilesMatch(slots_[it->second].tiles, config, tileDims);
}

std::uint64_t KernelTuningProblem::variantEvictions() const {
  std::lock_guard lock(cacheMutex_);
  return evictions_;
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

perf::Prediction KernelTuningProblem::predictFull(const Config& config) {
  MOTUNE_CHECK(config.size() == space_.size());
  const auto threads = static_cast<int>(config.back());
  const std::shared_ptr<const Variant> variant = variantFor(config);
  return model_.predictAnalyzed(variant->analysis, threads);
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
