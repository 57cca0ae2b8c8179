#include "tuning/surrogate.h"

#include "observe/metrics.h"
#include "support/check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace motune::tuning {

namespace {

/// Sign-preserving log1p: monotone everywhere, defined for any objective
/// scale (times, byte counts, synthetic negatives alike).
double signedLog(double y) {
  const double t = std::log1p(std::fabs(y));
  return y < 0.0 ? -t : t;
}

double inverseSignedLog(double t) {
  const double y = std::expm1(std::fabs(t));
  return t < 0.0 ? -y : y;
}

// The model's instruments, looked up once, on first use: a model that
// never fits or predicts leaves them out of the registry.
observe::Counter& predictionsCounter() {
  static observe::Counter& counter =
      observe::MetricsRegistry::global().counter(
          "tuning.surrogate.predictions");
  return counter;
}

} // namespace

Surrogate::Surrogate(std::vector<ParamSpec> space, std::size_t objectives,
                     SurrogateOptions options)
    : space_(std::move(space)), objectives_(objectives),
      options_(options) {
  MOTUNE_CHECK_MSG(!space_.empty(), "surrogate needs a non-empty space");
  MOTUNE_CHECK_MSG(objectives_ > 0, "surrogate needs at least one objective");
  const std::size_t d = space_.size(), m = objectives_;
  featureCount_ = 1 + 3 * d + d * (d - 1) / 2;
  const std::size_t f = featureCount_;
  for (const ParamSpec& p : space_) {
    const double lo = static_cast<double>(p.lo);
    const double hi = static_cast<double>(p.hi);
    const double span = hi > lo ? hi - lo : 1.0;
    lo_.push_back(lo);
    hi_.push_back(hi);
    span_.push_back(span);
    logSpan_.push_back(std::log1p(span));
    logCoordinates_.emplace_back(
        span <= kLogTableSpan ? static_cast<std::size_t>(span) + 1 : 0,
        std::numeric_limits<double>::quiet_NaN());
  }
  gram_.assign(f * (f + 1) / 2, 0.0);
  moment_.assign(m, std::vector<double>(f, 0.0));
  minLog_.assign(m, 0.0);
  maxLog_.assign(m, 0.0);
  phi_.resize(f);
  logY_.resize(m);
  a_.resize(f * f);
  b_.resize(m * f);
}

std::vector<double> Surrogate::features(const Config& config) const {
  std::vector<double> phi(featureCount_);
  featuresInto(config, phi.data());
  return phi;
}

void Surrogate::featuresInto(const Config& config, double* phi) const {
  MOTUNE_CHECK_MSG(config.size() == space_.size(),
                   "config/space dimension mismatch in surrogate");
  const std::size_t d = space_.size();
  double* z = phi + 1;
  double* zl = phi + 1 + 2 * d;
  phi[0] = 1.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double c =
        std::clamp(static_cast<double>(config[i]), lo_[i], hi_[i]);
    z[i] = (c - lo_[i]) / span_[i];
    zl[i] = logCoordinate(i, c - lo_[i]);
  }
  for (std::size_t i = 0; i < d; ++i) phi[1 + d + i] = z[i] * z[i];
  double* pair = phi + 1 + 3 * d;
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = i + 1; j < d; ++j) *pair++ = z[i] * z[j];
}

double Surrogate::logCoordinate(std::size_t i, double offset) const {
  if (!(logSpan_[i] > 0.0)) return 0.0;
  std::vector<double>& table = logCoordinates_[i];
  if (!(offset < static_cast<double>(table.size())))
    return std::log1p(offset) / logSpan_[i];
  double& entry = table[static_cast<std::size_t>(offset)];
  if (std::isnan(entry)) entry = std::log1p(offset) / logSpan_[i];
  return entry;
}

void Surrogate::observe(const Config& config, const Objectives& objectives) {
  MOTUNE_CHECK_MSG(objectives.size() == objectives_,
                   "objective count mismatch in surrogate observation");
  const std::size_t f = featureCount_, d = space_.size(), m = objectives_;
  featuresInto(config, phi_.data());
  const double* phi = phi_.data();
  double* g = gram_.data();
  for (std::size_t i = 0; i < f; ++i) {
    const double pi = phi[i];
    for (std::size_t j = i; j < f; ++j) *g++ += pi * phi[j];
  }

  for (std::size_t k = 0; k < m; ++k) {
    const double ly = signedLog(objectives[k]);
    logY_[k] = ly;
    double* moment = moment_[k].data();
    for (std::size_t i = 0; i < f; ++i) moment[i] += phi[i] * ly;
    if (samples_ == 0) {
      minLog_[k] = maxLog_[k] = ly;
    } else {
      minLog_[k] = std::min(minLog_[k], ly);
      maxLog_[k] = std::max(maxLog_[k], ly);
    }
  }

  // The window fills in order, then overwrites its oldest slot.
  std::size_t slot = recentCount_;
  if (recentCount_ < options_.correlationWindow) {
    ++recentCount_;
    recentConfig_.resize(recentCount_ * d);
    recentPhi_.resize(recentCount_ * f);
    recentLogY_.resize(recentCount_ * m);
  } else if (recentCount_ > 0) {
    slot = recentNext_;
    recentNext_ = (recentNext_ + 1) % recentCount_;
  }
  if (slot < recentCount_) {
    std::copy(config.begin(), config.end(), recentConfig_.begin() + slot * d);
    std::copy(phi_.begin(), phi_.end(), recentPhi_.begin() + slot * f);
    std::copy(logY_.begin(), logY_.end(), recentLogY_.begin() + slot * m);
  }
  ++samples_;

  if (samples_ >= options_.minSamples &&
      (!ready() || samples_ - samplesAtFit_ >= options_.refitEvery))
    refit();
}

support::Json Surrogate::serialize() const {
  const std::size_t f = featureCount_, d = space_.size(), m = objectives_;
  std::vector<double> gram(f * f);
  for (std::size_t i = 0, p = 0; i < f; ++i)
    for (std::size_t j = i; j < f; ++j, ++p)
      gram[i * f + j] = gram[j * f + i] = gram_[p];
  support::JsonArray recent;
  for (std::size_t s = 0; s < recentCount_; ++s) {
    const auto config = recentConfig_.begin() + s * d;
    support::JsonArray logY;
    for (std::size_t k = 0; k < m; ++k)
      logY.push_back(support::bitsToJson(recentLogY_[s * m + k]));
    recent.push_back(support::JsonObject{
        {"c", support::JsonArray(config, config + d)},
        {"y", std::move(logY)}});
  }
  return support::JsonObject{
      {"samples", samples_},
      {"gram", support::bitsToJson(gram)},
      {"moment", support::bitsToJson(moment_)},
      {"min_log", support::bitsToJson(minLog_)},
      {"max_log", support::bitsToJson(maxLog_)},
      {"recent", std::move(recent)},
      {"recent_next", recentNext_},
      {"weights", support::bitsToJson(weights_)},
      {"samples_at_fit", samplesAtFit_},
      {"fits", fits_},
      {"rank_correlation", support::bitsToJson(rankCorrelation_)},
  };
}

void Surrogate::restore(const support::Json& state) {
  const std::size_t f = featureCount_, d = space_.size(), m = objectives_;
  std::vector<double> gram;
  support::bitsFromJson(state.at("gram"), gram);
  support::bitsFromJson(state.at("moment"), moment_);
  support::bitsFromJson(state.at("min_log"), minLog_);
  support::bitsFromJson(state.at("max_log"), maxLog_);
  support::bitsFromJson(state.at("weights"), weights_);
  support::bitsFromJson(state.at("rank_correlation"), rankCorrelation_);
  const auto count = [&state](const char* key) {
    return static_cast<std::uint64_t>(state.at(key).asInt());
  };
  samples_ = count("samples");
  recentNext_ = count("recent_next");
  samplesAtFit_ = count("samples_at_fit");
  fits_ = count("fits");

  // The state comes from a journal file: check every shape the model
  // indexes by before it is used.
  const support::JsonArray& recent = state.at("recent").asArray();
  bool ok = gram.size() == f * f && moment_.size() == m &&
            (weights_.empty() || weights_.size() == m) &&
            minLog_.size() == m && maxLog_.size() == m &&
            recent.size() <= options_.correlationWindow &&
            recentNext_ < std::max<std::size_t>(recent.size(), 1);
  for (const auto& row : moment_) ok = ok && row.size() == f;
  for (const auto& row : weights_) ok = ok && row.size() == f;
  for (const support::Json& r : recent)
    ok = ok && r.at("c").asArray().size() == d &&
         r.at("y").asArray().size() == m;
  // Every Gram matrix the model writes is symmetric bit for bit; only
  // its upper triangle is kept.
  for (std::size_t i = 0; ok && i < f; ++i)
    for (std::size_t j = i + 1; j < f; ++j)
      ok = ok && std::bit_cast<std::uint64_t>(gram[i * f + j]) ==
                     std::bit_cast<std::uint64_t>(gram[j * f + i]);
  MOTUNE_CHECK_MSG(ok, "surrogate state does not match the search space");

  for (std::size_t i = 0, p = 0; i < f; ++i)
    for (std::size_t j = i; j < f; ++j) gram_[p++] = gram[i * f + j];
  // The window's feature vectors are a pure function of its configs.
  recentCount_ = recent.size();
  recentConfig_.resize(recentCount_ * d);
  recentPhi_.resize(recentCount_ * f);
  recentLogY_.resize(recentCount_ * m);
  Config config(d);
  for (std::size_t s = 0; s < recentCount_; ++s) {
    const support::Json& r = recent[s];
    for (std::size_t i = 0; i < d; ++i) config[i] = r.at("c")[i].asInt();
    std::copy(config.begin(), config.end(), recentConfig_.begin() + s * d);
    featuresInto(config, recentPhi_.data() + s * f);
    for (std::size_t k = 0; k < m; ++k)
      support::bitsFromJson(r.at("y")[k], recentLogY_[s * m + k]);
  }
}

bool Surrogate::solve(double lambda) {
  // (A + lambda*I) w_k = b_k for every objective k by one Gaussian
  // elimination with partial pivoting: the pivots and multipliers depend
  // on A alone, so each right-hand side sees exactly the operations a
  // solve of its own would apply. A's entries below the diagonal are not
  // updated once their column is done, as nothing reads them again.
  const std::size_t n = featureCount_, m = objectives_;
  double* a = a_.data();
  double* b = b_.data();
  for (std::size_t i = 0, p = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j, ++p)
      a[i * n + j] = a[j * n + i] = gram_[p];
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += lambda;
  for (std::size_t k = 0; k < m; ++k)
    std::copy(moment_[k].begin(), moment_[k].end(), b + k * n);

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row)
      if (std::fabs(a[row * n + col]) > std::fabs(a[pivot * n + col]))
        pivot = row;
    if (std::fabs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t k = col; k < n; ++k)
        std::swap(a[col * n + k], a[pivot * n + k]);
      for (std::size_t r = 0; r < m; ++r)
        std::swap(b[r * n + col], b[r * n + pivot]);
    }
    const double* top = a + col * n;
    for (std::size_t row = col + 1; row < n; ++row) {
      double* cur = a + row * n;
      const double f = cur[col] / top[col];
      if (f == 0.0) continue;
      for (std::size_t k = col + 1; k < n; ++k) cur[k] -= f * top[k];
      for (std::size_t r = 0; r < m; ++r) b[r * n + row] -= f * b[r * n + col];
    }
  }
  solved_.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<double>& out = solved_[r];
    out.resize(n);
    const double* rhs = b + r * n;
    for (std::size_t i = n; i-- > 0;) {
      double sum = rhs[i];
      for (std::size_t k = i + 1; k < n; ++k) sum -= a[i * n + k] * out[k];
      out[i] = sum / (a[i * n + i]);
    }
  }
  return true;
}

void Surrogate::ranksOf(const std::vector<double>& values,
                        std::vector<double>& ranks) {
  // Ordinal ranks, ties by index. Sorting (value, index) keys orders
  // them as a stable sort by value would. A NaN objective passed to
  // observe() leaves `<` no strict weak order, which std::sort must not
  // be given; then the stable sort decides, as it always did.
  const std::size_t n = values.size();
  rankKeys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) rankKeys_[i] = {values[i], i};
  if (std::none_of(values.begin(), values.end(),
                   [](double v) { return std::isnan(v); }))
    std::sort(rankKeys_.begin(), rankKeys_.end());
  else
    std::stable_sort(rankKeys_.begin(), rankKeys_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  ranks.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    ranks[rankKeys_[i].second] = static_cast<double>(i);
}

double Surrogate::spearman() {
  // Spearman rank correlation via ordinal ranks — an estimate, not a
  // statistic with tie correction; deterministic.
  const std::size_t n = predicted_.size();
  if (n < 2) return 0.0;
  ranksOf(predicted_, rankX_);
  ranksOf(actual_, rankY_);
  const double mean = static_cast<double>(n - 1) / 2.0;
  double cov = 0.0, vx = 0.0, vy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = rankX_[i] - mean, dy = rankY_[i] - mean;
    cov += dx * dy;
    vx += dx * dx;
    vy += dy * dy;
  }
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

void Surrogate::refit() {
  const double lambda = options_.ridgeLambda * static_cast<double>(samples_);
  if (!solve(lambda))
    return; // singular: keep previous weights, retry after more samples
  weights_.swap(solved_);
  samplesAtFit_ = samples_;
  ++fits_;

  const std::size_t f = featureCount_, m = objectives_;
  predicted_.resize(recentCount_);
  actual_.resize(recentCount_);
  for (std::size_t s = 0; s < recentCount_; ++s) {
    predictLogInto(recentPhi_.data() + s * f, logY_.data());
    predicted_[s] = scalarize(logY_.data());
    actual_[s] = scalarize(recentLogY_.data() + s * m);
  }
  rankCorrelation_ = spearman();

  static observe::Counter& fits =
      observe::MetricsRegistry::global().counter("tuning.surrogate.fits");
  static observe::Gauge& correlation =
      observe::MetricsRegistry::global().gauge(
          "tuning.surrogate.rank_correlation");
  fits.add(1);
  correlation.set(rankCorrelation_);
}

void Surrogate::predictLogInto(const double* phi, double* logY) const {
  for (std::size_t k = 0; k < objectives_; ++k) {
    const double* w = weights_[k].data();
    double sum = 0.0;
    for (std::size_t i = 0; i < featureCount_; ++i) sum += w[i] * phi[i];
    logY[k] = sum;
  }
}

double Surrogate::scalarize(const double* logY) const {
  // Normalize each objective into the observed [min, max] log range, then
  // blend the best coordinate with the mean: the min term keeps
  // single-objective specialists (front endpoints) alive through the cull,
  // the mean term orders the all-rounders between them.
  double best = 0.0, sum = 0.0;
  for (std::size_t k = 0; k < objectives_; ++k) {
    const double span = maxLog_[k] - minLog_[k];
    const double norm =
        span > 0.0 ? (logY[k] - minLog_[k]) / span : 0.0;
    if (k == 0 || norm < best) best = norm;
    sum += norm;
  }
  return best + 0.25 * (sum / static_cast<double>(objectives_));
}

Objectives Surrogate::predict(const Config& config) {
  MOTUNE_CHECK_MSG(ready(), "surrogate predict before first fit");
  ++predictions_;
  predictionsCounter().add(1);
  featuresInto(config, phi_.data());
  predictLogInto(phi_.data(), logY_.data());
  Objectives out(objectives_);
  for (std::size_t k = 0; k < objectives_; ++k)
    out[k] = inverseSignedLog(logY_[k]);
  return out;
}

double Surrogate::score(const Config& config) {
  MOTUNE_CHECK_MSG(ready(), "surrogate score before first fit");
  ++predictions_;
  predictionsCounter().add(1);
  featuresInto(config, phi_.data());
  predictLogInto(phi_.data(), logY_.data());
  return scalarize(logY_.data());
}

} // namespace motune::tuning
