#include "tuning/surrogate.h"

#include "observe/metrics.h"
#include "support/check.h"

#include <algorithm>
#include <cmath>
#include <numeric>

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

/// Solves (A + lambda*I) w = b by Gaussian elimination with partial
/// pivoting on a scratch copy. Returns false when the system is singular
/// to working precision (the caller keeps its previous weights).
bool solveRidge(std::vector<double> a, std::vector<double> b, double lambda,
                std::vector<double>& out) {
  const std::size_t n = b.size();
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += lambda;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row)
      if (std::fabs(a[row * n + col]) > std::fabs(a[pivot * n + col]))
        pivot = row;
    if (std::fabs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t k = col; k < n; ++k)
        std::swap(a[col * n + k], a[pivot * n + k]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row * n + col] / a[col * n + col];
      if (f == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) a[row * n + k] -= f * a[col * n + k];
      b[row] -= f * b[col];
    }
  }
  out.assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= a[i * n + k] * out[k];
    out[i] = sum / (a[i * n + i]);
  }
  return true;
}

/// Spearman rank correlation via ordinal ranks (stable ties by index) —
/// an estimate, not a statistic with tie correction; deterministic.
double spearman(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const auto ranks = [n](const std::vector<double>& v) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&v](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) r[order[i]] = static_cast<double>(i);
    return r;
  };
  const std::vector<double> rx = ranks(x), ry = ranks(y);
  const double mean = static_cast<double>(n - 1) / 2.0;
  double cov = 0.0, vx = 0.0, vy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = rx[i] - mean, dy = ry[i] - mean;
    cov += dx * dy;
    vx += dx * dx;
    vy += dy * dy;
  }
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

} // namespace

Surrogate::Surrogate(std::vector<ParamSpec> space, std::size_t objectives,
                     SurrogateOptions options)
    : space_(std::move(space)), objectives_(objectives),
      options_(options) {
  MOTUNE_CHECK_MSG(!space_.empty(), "surrogate needs a non-empty space");
  MOTUNE_CHECK_MSG(objectives_ > 0, "surrogate needs at least one objective");
  const std::size_t d = space_.size();
  featureCount_ = 1 + 3 * d + d * (d - 1) / 2;
  gram_.assign(featureCount_ * featureCount_, 0.0);
  moment_.assign(objectives_, std::vector<double>(featureCount_, 0.0));
  minLog_.assign(objectives_, 0.0);
  maxLog_.assign(objectives_, 0.0);
}

std::vector<double> Surrogate::features(const Config& config) const {
  MOTUNE_CHECK_MSG(config.size() == space_.size(),
                   "config/space dimension mismatch in surrogate");
  const std::size_t d = space_.size();
  std::vector<double> z(d), zl(d);
  for (std::size_t i = 0; i < d; ++i) {
    const double lo = static_cast<double>(space_[i].lo);
    const double hi = static_cast<double>(space_[i].hi);
    const double c =
        std::clamp(static_cast<double>(config[i]), lo, hi);
    const double span = hi > lo ? hi - lo : 1.0;
    z[i] = (c - lo) / span;
    const double logSpan = std::log1p(span);
    zl[i] = logSpan > 0.0 ? std::log1p(c - lo) / logSpan : 0.0;
  }
  std::vector<double> phi;
  phi.reserve(featureCount_);
  phi.push_back(1.0);
  for (std::size_t i = 0; i < d; ++i) phi.push_back(z[i]);
  for (std::size_t i = 0; i < d; ++i) phi.push_back(z[i] * z[i]);
  for (std::size_t i = 0; i < d; ++i) phi.push_back(zl[i]);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = i + 1; j < d; ++j) phi.push_back(z[i] * z[j]);
  return phi;
}

void Surrogate::observe(const Config& config, const Objectives& objectives) {
  MOTUNE_CHECK_MSG(objectives.size() == objectives_,
                   "objective count mismatch in surrogate observation");
  const std::vector<double> phi = features(config);
  for (std::size_t i = 0; i < featureCount_; ++i)
    for (std::size_t j = 0; j < featureCount_; ++j)
      gram_[i * featureCount_ + j] += phi[i] * phi[j];

  std::vector<double> logY(objectives_);
  for (std::size_t k = 0; k < objectives_; ++k) {
    const double ly = signedLog(objectives[k]);
    logY[k] = ly;
    for (std::size_t i = 0; i < featureCount_; ++i)
      moment_[k][i] += phi[i] * ly;
    if (samples_ == 0) {
      minLog_[k] = maxLog_[k] = ly;
    } else {
      minLog_[k] = std::min(minLog_[k], ly);
      maxLog_[k] = std::max(maxLog_[k], ly);
    }
  }

  if (recent_.size() < options_.correlationWindow) {
    recent_.push_back({config, std::move(logY)});
  } else if (!recent_.empty()) {
    recent_[recentNext_] = {config, std::move(logY)};
    recentNext_ = (recentNext_ + 1) % recent_.size();
  }
  ++samples_;

  if (samples_ >= options_.minSamples &&
      (!ready() || samples_ - samplesAtFit_ >= options_.refitEvery))
    refit();
}

support::Json Surrogate::serialize() const {
  support::JsonArray recent;
  for (const auto& r : recent_)
    recent.push_back(support::JsonObject{
        {"c", support::JsonArray(r.config.begin(), r.config.end())},
        {"y", support::bitsToJson(r.logY)}});
  return support::JsonObject{
      {"samples", samples_},
      {"gram", support::bitsToJson(gram_)},
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
  support::bitsFromJson(state.at("gram"), gram_);
  support::bitsFromJson(state.at("moment"), moment_);
  support::bitsFromJson(state.at("min_log"), minLog_);
  support::bitsFromJson(state.at("max_log"), maxLog_);
  support::bitsFromJson(state.at("weights"), weights_);
  support::bitsFromJson(state.at("rank_correlation"), rankCorrelation_);
  recent_.clear();
  for (const support::Json& r : state.at("recent").asArray()) {
    recent_.push_back({{}, {}});
    for (const support::Json& v : r.at("c").asArray())
      recent_.back().config.push_back(v.asInt());
    support::bitsFromJson(r.at("y"), recent_.back().logY);
  }
  const auto count = [&state](const char* key) {
    return static_cast<std::uint64_t>(state.at(key).asInt());
  };
  samples_ = count("samples");
  recentNext_ = count("recent_next");
  samplesAtFit_ = count("samples_at_fit");
  fits_ = count("fits");

  // The state comes from a journal file: check every shape the model
  // indexes by before it is used.
  const std::size_t f = featureCount_, m = objectives_;
  bool ok = gram_.size() == f * f && moment_.size() == m &&
            (weights_.empty() || weights_.size() == m) &&
            minLog_.size() == m && maxLog_.size() == m &&
            recent_.size() <= options_.correlationWindow &&
            recentNext_ < std::max<std::size_t>(recent_.size(), 1);
  for (const auto& row : moment_) ok = ok && row.size() == f;
  for (const auto& row : weights_) ok = ok && row.size() == f;
  for (const Recent& r : recent_)
    ok = ok && r.config.size() == space_.size() && r.logY.size() == m;
  MOTUNE_CHECK_MSG(ok, "surrogate state does not match the search space");
}

void Surrogate::refit() {
  std::vector<std::vector<double>> next(objectives_);
  const double lambda = options_.ridgeLambda * static_cast<double>(samples_);
  for (std::size_t k = 0; k < objectives_; ++k)
    if (!solveRidge(gram_, moment_[k], lambda, next[k]))
      return; // singular: keep previous weights, retry after more samples
  weights_ = std::move(next);
  samplesAtFit_ = samples_;
  ++fits_;

  std::vector<double> predicted, actual;
  predicted.reserve(recent_.size());
  actual.reserve(recent_.size());
  for (const auto& r : recent_) {
    predicted.push_back(scalarize(predictLog(features(r.config))));
    actual.push_back(scalarize(r.logY));
  }
  rankCorrelation_ = spearman(predicted, actual);

  auto& metrics = observe::MetricsRegistry::global();
  metrics.counter("tuning.surrogate.fits").add(1);
  metrics.gauge("tuning.surrogate.rank_correlation").set(rankCorrelation_);
}

std::vector<double> Surrogate::predictLog(
    const std::vector<double>& phi) const {
  std::vector<double> out(objectives_, 0.0);
  for (std::size_t k = 0; k < objectives_; ++k) {
    double sum = 0.0;
    for (std::size_t i = 0; i < featureCount_; ++i)
      sum += weights_[k][i] * phi[i];
    out[k] = sum;
  }
  return out;
}

double Surrogate::scalarize(const std::vector<double>& logY) const {
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
  observe::MetricsRegistry::global()
      .counter("tuning.surrogate.predictions")
      .add(1);
  const std::vector<double> logY = predictLog(features(config));
  Objectives out(objectives_);
  for (std::size_t k = 0; k < objectives_; ++k)
    out[k] = inverseSignedLog(logY[k]);
  return out;
}

double Surrogate::score(const Config& config) {
  MOTUNE_CHECK_MSG(ready(), "surrogate score before first fit");
  ++predictions_;
  observe::MetricsRegistry::global()
      .counter("tuning.surrogate.predictions")
      .add(1);
  return scalarize(predictLog(features(config)));
}

} // namespace motune::tuning
