#include "core/gde3.h"

#include "observe/metrics.h"
#include "observe/trace.h"
#include "support/check.h"
#include "tuning/surrogate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace motune::opt {

GDE3::GDE3(tuning::ObjectiveFunction& fn, runtime::ThreadPool& pool,
           GDE3Options options)
    : counter_(fn),
      pool_(pool),
      options_(options),
      fullBoundary_(tuning::Boundary::fromSpace(fn.space())),
      boundary_(fullBoundary_),
      rng_(options.seed),
      generationsCounter_(
          observe::MetricsRegistry::global().counter("gde3.generations")),
      bestHvGauge_(observe::MetricsRegistry::global().gauge("gde3.best_hv")),
      frontSizeGauge_(
          observe::MetricsRegistry::global().gauge("gde3.front_size")),
      boundaryVolumeGauge_(
          observe::MetricsRegistry::global().gauge("gde3.boundary_volume")) {
  MOTUNE_CHECK(options_.population >= 4); // DE needs 4 distinct members
  MOTUNE_CHECK(options_.cr >= 0.0 && options_.cr <= 1.0);
  MOTUNE_CHECK(options_.f > 0.0);
  MOTUNE_CHECK(options_.surrogateKeep > 0.0 && options_.surrogateKeep <= 1.0);
}

void GDE3::evaluate(std::span<Individual> members,
                    const tuning::Boundary& projection) {
  if (configs_.size() < members.size()) configs_.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    projection.closestTo(members[i].genome, configs_[i]);

  const std::vector<const tuning::Objectives*> objectives =
      counter_.evaluateBatch(
          std::span<const tuning::Config>(configs_.data(), members.size()),
          pool_, options_.parallelEvaluation);

  // Every evaluated point is offered to the front, so the reported Pareto
  // set is the non-dominated subset of everything measured, exactly as for
  // the brute-force and random-search baselines.
  for (std::size_t i = 0; i < members.size(); ++i) {
    Individual& ind = members[i];
    std::swap(ind.config, configs_[i]);
    ind.objectives = *objectives[i];
    insertIntoFront(front_, ind, spare_);
    if (options_.surrogate)
      options_.surrogate->observe(ind.config, ind.objectives);
  }
}

void GDE3::initialize() {
  observe::Span span = observe::Tracer::global().span(
      "gde3.initialize",
      {{"population", support::Json(options_.population)},
       {"dims", support::Json(fullBoundary_.dims())}});
  const std::size_t dims = fullBoundary_.dims();
  population_.resize(options_.population);
  for (Individual& ind : population_) {
    ind.genome.resize(dims);
    for (std::size_t d = 0; d < dims; ++d)
      ind.genome[d] = rng_.uniform(fullBoundary_.lo[d], fullBoundary_.hi[d]);
  }
  // Analytic/island seeds overwrite the first slots AFTER the draws above,
  // so the RNG stream position is independent of the seed list (see
  // GDE3Options::initialSeeds).
  const std::size_t seeded =
      std::min(options_.initialSeeds.size(), options_.population);
  for (std::size_t i = 0; i < seeded; ++i) {
    const tuning::Config& c = options_.initialSeeds[i];
    MOTUNE_CHECK_MSG(c.size() == dims,
                     "initial seed dimensionality mismatch");
    std::vector<double>& g = population_[i].genome;
    for (std::size_t d = 0; d < dims; ++d)
      g[d] = static_cast<double>(c[d]);
  }
  evaluate(population_, fullBoundary_);
  refreshFirstFront();

  // Fix the hypervolume normalization from the initial sample: the worst
  // observed value per objective, padded so later (worse) points clip to
  // zero contribution rather than distorting the metric.
  const std::size_t m = population_.front().objectives.size();
  Objectives worst(m, 0.0);
  for (const auto& ind : population_)
    for (std::size_t d = 0; d < m; ++d)
      worst[d] = std::max(worst[d], ind.objectives[d]);
  for (double& w : worst) w = std::max(w * 1.1, 1e-300);
  metric_.emplace(std::move(worst));

  bestHv_ = frontHypervolume();
  hvHistory_.assign(1, bestHv_);
  generations_ = 0;
  lastFrontSize_ = 0; // the first step() counts the initial front as growth
  span.setAttr("seeds", support::Json(seeded));
  span.setAttr("initial_hv", support::Json(bestHv_));
  bestHvGauge_.set(bestHv_);
}

void GDE3::setBoundary(const tuning::Boundary& boundary) {
  MOTUNE_CHECK(boundary.dims() == fullBoundary_.dims());
  boundary_ = boundary;
  boundary_.intersectWith(fullBoundary_);
}

void GDE3::adopt(std::span<const std::size_t> refs) {
  const std::size_t n = population_.size();
  MOTUNE_CHECK(refs.size() == n);
  constexpr std::size_t kFree = static_cast<std::size_t>(-1);
  // Surviving parents stay where they are; each surviving trial moves
  // into the slot of a parent that did not survive.
  slotOf_.resize(n);
  holder_.assign(n, kFree);
  for (std::size_t k = 0; k < n; ++k)
    if (refs[k] < n) {
      slotOf_[k] = refs[k];
      holder_[refs[k]] = k;
    }
  std::size_t free = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (refs[k] < n) continue;
    while (holder_[free] != kFree) ++free;
    std::swap(population_[free], trials_[refs[k] - n]);
    slotOf_[k] = free;
    holder_[free] = k;
  }
  // Then one pass of swaps puts survivor k in slot k.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t slot = slotOf_[k];
    if (slot == k) continue;
    std::swap(population_[k], population_[slot]);
    const std::size_t displaced = holder_[k];
    slotOf_[displaced] = slot;
    holder_[slot] = displaced;
  }
}

void GDE3::refreshFirstFront() {
  ranking_.rank(population_, 1);
  firstFront_.clear();
  if (ranking_.frontCount() == 0) return;
  const std::span<const std::size_t> first = ranking_.front(0);
  firstFront_.assign(first.begin(), first.end());
}

double GDE3::frontHypervolume() {
  MOTUNE_CHECK(metric_.has_value());
  // The population's first front, uncopied. Members sharing a config
  // share their (memoized) objectives, which add no area, so no dedupe.
  return metric_->ofMembers(population_, firstFront_, hvScratch_);
}

bool GDE3::step() {
  MOTUNE_CHECK_MSG(!population_.empty(), "initialize() must run first");
  observe::Span span = observe::Tracer::global().span("gde3.generation");
  const std::size_t n = population_.size();
  const std::size_t dims = fullBoundary_.dims();

  // DE/rand/1/bin trial generation (paper Algorithm 1).
  trials_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t b, c, d;
    do b = static_cast<std::size_t>(rng_.uniformInt(0, n - 1)); while (b == i);
    do c = static_cast<std::size_t>(rng_.uniformInt(0, n - 1));
    while (c == i || c == b);
    do d = static_cast<std::size_t>(rng_.uniformInt(0, n - 1));
    while (d == i || d == b || d == c);

    const auto& ga = population_[i].genome;
    const auto& gb = population_[b].genome;
    const auto& gc = population_[c].genome;
    const auto& gd = population_[d].genome;
    const auto forced = static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(dims) - 1));

    std::vector<double>& r = trials_[i].genome;
    r.resize(dims);
    for (std::size_t k = 0; k < dims; ++k) {
      if (rng_.uniform() < options_.cr || k == forced)
        r[k] = gb[k] + options_.f * (gc[k] - gd[k]);
      else
        r[k] = ga[k];
    }
  }

  // Surrogate pre-ranking: score every projected trial with the cheap
  // model and send only the top ceil(keep * n) to the full evaluation.
  // Scoring never touches rng_, so at keep == 1 (score-but-don't-cull)
  // the evaluation sequence is identical to a surrogate-free generation.
  culled_.assign(n, 0);
  std::size_t culledCount = 0;
  if (options_.surrogate && options_.surrogate->ready()) {
    surrogateRanked_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      boundary_.closestTo(trials_[i].genome, scored_);
      double s = options_.surrogate->score(scored_);
      if (std::isnan(s)) s = std::numeric_limits<double>::infinity();
      surrogateRanked_.emplace_back(s, i);
    }
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               options_.surrogateKeep * static_cast<double>(n))));
    if (keep < n) {
      // Ties break on trial index.
      std::sort(surrogateRanked_.begin(), surrogateRanked_.end());
      for (std::size_t j = keep; j < n; ++j)
        culled_[surrogateRanked_[j].second] = 1;
      culledCount = n - keep;
      if (culledCounter_ == nullptr)
        culledCounter_ = &observe::MetricsRegistry::global().counter(
            "tuning.surrogate.culled");
      culledCounter_->add(culledCount);
    }
  }
  // The kept trials move to the front of trials_, in order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (!culled_[i]) {
      if (kept != i) std::swap(trials_[kept], trials_[i]);
      ++kept;
    }
  evaluate(std::span<Individual>(trials_.data(), kept), boundary_);

  // GDE3 selection, by reference: r < n is parent r, r >= n is trial
  // r - n. A parent precedes its trial when both survive.
  chosen_.clear();
  std::size_t evaluated = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Individual& parent = population_[i];
    if (culled_[i]) { // the surrogate rejected the trial: the parent survives
      chosen_.push_back(i);
      continue;
    }
    const std::size_t t = evaluated++;
    const Individual& trial = trials_[t];
    if (dominates(trial.objectives, parent.objectives)) {
      chosen_.push_back(n + t);
    } else if (dominates(parent.objectives, trial.objectives) ||
               trial.config == parent.config) {
      chosen_.push_back(i);
    } else {
      chosen_.push_back(i);
      chosen_.push_back(n + t);
    }
  }
  // Truncation back to n by rank and crowding. Its ranking also yields
  // the new population's first front: the prefix it kept of front 0.
  if (chosen_.size() > n) {
    const std::size_t m = population_.front().objectives.size();
    rows_.clear();
    for (std::size_t r : chosen_) {
      const Objectives& o = (r < n ? population_[r] : trials_[r - n]).objectives;
      rows_.insert(rows_.end(), o.begin(), o.end());
    }
    ranking_.rank(rows_, m, n);
    const std::span<const std::size_t> keep = ranking_.survivors(n);
    kept_.resize(n);
    for (std::size_t k = 0; k < n; ++k) kept_[k] = chosen_[keep[k]];
    adopt(kept_);
    firstFront_.resize(std::min(ranking_.front(0).size(), n));
    for (std::size_t k = 0; k < firstFront_.size(); ++k) firstFront_[k] = k;
  } else {
    adopt(chosen_);
    refreshFirstFront();
  }

  ++generations_;
  const double hv = frontHypervolume();
  hvHistory_.push_back(hv);
  const bool hvImproved = hv > bestHv_ * (1.0 + options_.improveEpsilon);
  bestHv_ = std::max(bestHv_, hv);

  // "The solutions do not improve" (paper §III.B.3) is judged on the
  // solution set: a generation improves if the hypervolume grew or the
  // Pareto set of everything evaluated GAINED members (pure replacements
  // at equal quality do not count, keeping the budget close to the
  // paper's evaluation counts).
  const bool frontGrew = front_.size() > lastFrontSize_;
  lastFrontSize_ = front_.size();
  const bool improved = hvImproved || frontGrew;

  std::size_t immigrants = 0;
  if (!improved && options_.immigrantsOnStagnation > 0)
    immigrants = injectImmigrants(options_.immigrantsOnStagnation);

  // Per-generation telemetry (paper-trajectory attributes): `hv` is the
  // best hypervolume so far (monotone non-decreasing by construction),
  // `gen_hv` the raw population-front value of this generation.
  span.setAttr("gen", support::Json(generations_));
  span.setAttr("hv", support::Json(bestHv_));
  span.setAttr("gen_hv", support::Json(hv));
  span.setAttr("front_size", support::Json(lastFrontSize_));
  span.setAttr("immigrants", support::Json(immigrants));
  span.setAttr("boundary_volume", support::Json(boundary_.volume()));
  span.setAttr("improved", support::Json(improved));
  if (options_.surrogate) span.setAttr("culled", support::Json(culledCount));
  generationsCounter_.add();
  bestHvGauge_.set(bestHv_);
  frontSizeGauge_.set(static_cast<double>(lastFrontSize_));
  boundaryVolumeGauge_.set(boundary_.volume());
  if (immigrants > 0) {
    if (immigrantsCounter_ == nullptr)
      immigrantsCounter_ =
          &observe::MetricsRegistry::global().counter("gde3.immigrants");
    immigrantsCounter_->add(immigrants);
  }
  return improved;
}

std::size_t GDE3::injectImmigrants(std::size_t count) {
  // Replace dominated members (never the first front) with random samples
  // from the current boundary.
  ranking_.rank(population_);
  const std::span<const std::size_t> dominated = ranking_.frontsFrom(1);
  replaceable_.assign(dominated.begin(), dominated.end());
  if (replaceable_.empty()) return 0;
  const std::span<const std::size_t> first = ranking_.front(0);

  count = std::min(count, replaceable_.size());
  if (immigrants_.size() < count) immigrants_.resize(count);
  const std::size_t dims = fullBoundary_.dims();
  targets_.clear();
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t pick = static_cast<std::size_t>(rng_.uniformInt(
        0, static_cast<std::int64_t>(replaceable_.size()) - 1));
    targets_.push_back(replaceable_[pick]);
    replaceable_.erase(replaceable_.begin() +
                       static_cast<std::ptrdiff_t>(pick));

    // Elite transfer: clone a front member and resample one coordinate
    // over its FULL range. Good parameter settings carry over between
    // neighboring regions of the front (e.g. tile sizes across thread
    // counts), so this stretches the front along under-explored axes and
    // keeps regions the rough-set cut excluded reachable (the paper notes
    // the reduced space "may not contain all the solutions within the
    // desired optimal Pareto set"); the DE trials themselves stay confined
    // to the reduced boundary per Algorithm 1.
    const std::size_t elite = first[static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(first.size()) - 1))];
    std::vector<double>& g = immigrants_[k].genome;
    g = population_[elite].genome;
    const auto d = static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(dims) - 1));
    g[d] = rng_.uniform(fullBoundary_.lo[d], fullBoundary_.hi[d] + 1e-9);
    if (replaceable_.empty()) break;
  }
  const std::size_t injected = targets_.size();
  evaluate(std::span<Individual>(immigrants_.data(), injected),
           fullBoundary_);
  for (std::size_t k = 0; k < injected; ++k)
    std::swap(population_[targets_[k]], immigrants_[k]);
  refreshFirstFront();
  return injected;
}

std::vector<Individual> GDE3::selectTop(std::size_t count) {
  MOTUNE_CHECK_MSG(!population_.empty(), "initialize() must run first");
  if (count >= population_.size()) return population_;
  ranking_.rank(population_, count);
  std::vector<Individual> top;
  top.reserve(count);
  for (std::size_t i : ranking_.survivors(count))
    top.push_back(population_[i]);
  return top;
}

std::size_t GDE3::integrateMigrants(const std::vector<Individual>& migrants) {
  MOTUNE_CHECK_MSG(!population_.empty(), "initialize() must run first");
  // Configurations already present keep their local copy: re-integrating
  // them would shrink diversity without adding information. Of migrants
  // sharing a configuration the first is fresh.
  fresh_.clear();
  const auto present = [&](const Config& config) {
    for (const Individual& ind : population_)
      if (ind.config == config) return true;
    for (std::size_t j : fresh_)
      if (migrants[j].config == config) return true;
    return false;
  };
  for (std::size_t j = 0; j < migrants.size(); ++j) {
    const Individual& m = migrants[j];
    MOTUNE_CHECK_MSG(m.genome.size() == fullBoundary_.dims() &&
                         m.objectives.size() ==
                             population_.front().objectives.size(),
                     "migrant dimensionality mismatch");
    if (!present(m.config)) fresh_.push_back(j);
  }
  if (fresh_.empty()) return 0;

  // Worst-first replacement order: fronts from last to first, within a
  // front by ascending crowding distance, ties in front order.
  ranking_.rank(population_);
  const std::span<const std::size_t> worstFirst = ranking_.worstFirst();

  const std::size_t n = std::min(fresh_.size(), population_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Individual& migrant = migrants[fresh_[i]];
    population_[worstFirst[i]] = migrant;
    insertIntoFront(front_, migrant, spare_);
    if (options_.surrogate)
      options_.surrogate->observe(migrant.config, migrant.objectives);
  }
  refreshFirstFront();
  return n;
}

OptResult GDE3::run() {
  observe::Span span = observe::Tracer::global().span("gde3.run");
  initialize();
  int flat = 0;
  while (generations_ < options_.maxGenerations && flat < options_.noImproveLimit) {
    flat = step() ? 0 : flat + 1;
  }
  span.setAttr("generations", support::Json(generations_));
  span.setAttr("evaluations", support::Json(evaluations()));
  span.setAttr("hv", support::Json(bestHv_));
  return release();
}

namespace {

// The state's JSON text, written as Json::dump(-1) writes the same tree:
// compact, object keys in sorted order, numbers through support::numberTo.

void individualTo(const Individual& ind, std::string& out) {
  out += R"({"c":)";
  support::numbersTo(ind.config, out);
  out += R"(,"g":)";
  support::numbersTo(ind.genome, out);
  out += R"(,"o":)";
  support::numbersTo(ind.objectives, out);
  out += '}';
}

/// Mixes the length and the bits of `values` into `h` (FxHash's step).
template <class T>
std::uint64_t mixBits(std::uint64_t h, const std::vector<T>& values) {
  constexpr std::uint64_t kMul = 0x517cc1b727220a95ull;
  h = (std::rotl(h, 5) ^ values.size()) * kMul;
  for (const T& v : values)
    h = (std::rotl(h, 5) ^ std::bit_cast<std::uint64_t>(v)) * kMul;
  return h;
}

template <class T>
bool sameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](T x, T y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

std::vector<double> numbers(const support::Json& j) {
  std::vector<double> out;
  for (const auto& v : j.asArray()) out.push_back(v.asNumber());
  return out;
}

std::vector<Individual> individualsFromJson(const support::Json& j) {
  std::vector<Individual> out;
  for (const auto& v : j.asArray()) out.push_back(individualFromJson(v));
  return out;
}

} // namespace

support::Json individualToJson(const Individual& ind) {
  std::string text;
  individualTo(ind, text);
  return support::Json::parse(text);
}

Individual individualFromJson(const support::Json& j) {
  Individual ind{numbers(j.at("g")), {}, numbers(j.at("o"))};
  for (const auto& v : j.at("c").asArray()) ind.config.push_back(v.asInt());
  return ind;
}

void EncodeMemo::memberTo(const Individual& ind, std::string& out) {
  const std::uint64_t key = mixBits(
      mixBits(mixBits(0, ind.genome), ind.config), ind.objectives);
  auto it = members_.find(key);
  if (it != members_.end() && sameBits(it->second.bits.genome, ind.genome) &&
      sameBits(it->second.bits.config, ind.config) &&
      sameBits(it->second.bits.objectives, ind.objectives)) {
    out += it->second.text;
  } else {
    const std::size_t begin = out.size();
    individualTo(ind, out);
    // A new key takes a dropped entry's node and buffers when there is
    // one; a colliding key's entry now holds this member instead.
    if (it == members_.end() && spare_.empty()) {
      it = members_.try_emplace(key).first;
    } else if (it == members_.end()) {
      Members::node_type node = std::move(spare_.back());
      spare_.pop_back();
      node.key() = key;
      it = members_.insert(std::move(node)).position;
    }
    Member& member = it->second;
    member.bits.genome.assign(ind.genome.begin(), ind.genome.end());
    member.bits.config.assign(ind.config.begin(), ind.config.end());
    member.bits.objectives.assign(ind.objectives.begin(),
                                  ind.objectives.end());
    member.text.assign(out, begin);
  }
  it->second.epoch = epoch_;
}

void EncodeMemo::hvHistoryTo(const std::vector<double>& history,
                             std::string& out) {
  // Within a search the history only grows: the known text is reused
  // while its values still lead the history bit for bit.
  if (hv_.size() > history.size() ||
      !std::equal(hv_.begin(), hv_.end(), history.begin(),
                  [](double a, double b) {
                    return std::bit_cast<std::uint64_t>(a) ==
                           std::bit_cast<std::uint64_t>(b);
                  })) {
    hv_.clear();
    hvText_.clear();
  }
  for (std::size_t i = hv_.size(); i < history.size(); ++i) {
    if (i > 0) hvText_ += ',';
    support::numberTo(history[i], hvText_);
    hv_.push_back(history[i]);
  }
  out += '[';
  out += hvText_;
  out += ']';
}

void EncodeMemo::endEncode() {
  for (auto it = members_.begin(); it != members_.end();) {
    const auto stale = it++;
    if (stale->second.epoch != epoch_)
      spare_.push_back(members_.extract(stale));
  }
  ++epoch_;
}

void GDE3::encodeState(std::string& out, EncodeMemo* memo) const {
  MOTUNE_CHECK_MSG(!population_.empty(),
                   "encodeState() requires an initialized engine");
  const auto individuals = [&](const std::vector<Individual>& members) {
    out += '[';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ',';
      if (memo != nullptr)
        memo->memberTo(members[i], out);
      else
        individualTo(members[i], out);
    }
    out += ']';
  };

  out += R"({"best_hv":)";
  support::numberTo(bestHv_, out);
  out += R"(,"boundary":{"hi":)";
  support::numbersTo(boundary_.hi, out);
  out += R"(,"lo":)";
  support::numbersTo(boundary_.lo, out);
  out += R"(},"front":)";
  individuals(front_);
  out += R"(,"generations":)";
  support::numberTo(generations_, out);
  out += R"(,"hv_history":)";
  if (memo != nullptr)
    memo->hvHistoryTo(hvHistory_, out);
  else
    support::numbersTo(hvHistory_, out);
  out += R"(,"last_front_size":)";
  support::numberTo(static_cast<double>(lastFrontSize_), out);
  out += R"(,"metric_worst":)";
  support::numbersTo(metric_->worst(), out);
  out += R"(,"population":)";
  individuals(population_);
  // RNG words are full 64-bit values, so they travel as hex words.
  const support::Rng::State rng = rng_.state();
  out += R"(,"rng":{"gaussian":)";
  support::numberTo(rng.cachedGaussian, out);
  out += R"(,"has_gaussian":)";
  out += rng.hasCachedGaussian ? "true" : "false";
  out += R"(,"words":[)";
  for (std::size_t i = 0; i < rng.words.size(); ++i) {
    out += i > 0 ? ",\"" : "\"";
    support::hexWordTo(rng.words[i], out);
    out += '"';
  }
  out += "]}";
  if (options_.surrogate) {
    out += R"(,"surrogate":)";
    out += options_.surrogate->serialize().dump(-1);
  }
  out += '}';
  if (memo != nullptr) memo->endEncode();
}

support::Json GDE3::serialize() const {
  std::string text;
  encodeState(text);
  return support::Json::parse(text);
}

void GDE3::restore(const support::Json& state) {
  population_ = individualsFromJson(state.at("population"));
  MOTUNE_CHECK_MSG(!population_.empty(), "checkpoint has an empty population");
  refreshFirstFront();
  front_ = individualsFromJson(state.at("front"));
  lastFrontSize_ = static_cast<std::size_t>(state.at("last_front_size").asInt());

  metric_.emplace(numbers(state.at("metric_worst")));
  hvHistory_ = numbers(state.at("hv_history"));
  bestHv_ = state.at("best_hv").asNumber();
  generations_ = static_cast<int>(state.at("generations").asInt());

  const support::Json& boundary = state.at("boundary");
  boundary_ = {numbers(boundary.at("lo")), numbers(boundary.at("hi"))};
  MOTUNE_CHECK_MSG(boundary_.lo.size() == fullBoundary_.dims() &&
                       boundary_.hi.size() == fullBoundary_.dims(),
                   "checkpoint boundary dimensionality mismatch");

  const support::Json& rng = state.at("rng");
  support::Rng::State rngState;
  const auto& words = rng.at("words").asArray();
  MOTUNE_CHECK(words.size() == rngState.words.size());
  for (std::size_t i = 0; i < words.size(); ++i)
    rngState.words[i] = support::hexWordValue(words[i]);
  rngState.cachedGaussian = rng.at("gaussian").asNumber();
  rngState.hasCachedGaussian = rng.at("has_gaussian").asBool();
  rng_.setState(rngState);

  // Absent only when the checkpointed run had no surrogate, which at
  // keep < 1 the session header already refuses to resume.
  if (options_.surrogate && state.has("surrogate"))
    options_.surrogate->restore(state.at("surrogate"));

  bestHvGauge_.set(bestHv_);
}

OptResult GDE3::release() {
  OptResult res;
  res.front = std::move(front_);
  res.population = std::move(population_);
  res.evaluations = counter_.evaluations();
  res.generations = generations_;
  res.hvHistory = std::move(hvHistory_);
  front_.clear();
  population_.clear();
  firstFront_.clear();
  hvHistory_.clear();
  return res;
}

} // namespace motune::opt
