#include "observe/metrics.h"

#include "support/table.h"

#include <cmath>

namespace motune::observe {

namespace {

// DDSketch-style relative-accuracy buckets: gamma = 1.04 bounds the
// per-bucket relative error by (gamma-1)/(gamma+1) ~ 2%.
constexpr double kGamma = 1.04;
const double kLogGamma = std::log(kGamma);

int bucketIndex(double v) {
  return static_cast<int>(std::ceil(std::log(v) / kLogGamma));
}

double bucketValue(int index) {
  // Midpoint of (gamma^(i-1), gamma^i] in the relative sense.
  return 2.0 * std::pow(kGamma, index) / (1.0 + kGamma);
}

} // namespace

void Histogram::observe(double v) {
  std::lock_guard lock(mutex_);
  record(v);
}

void Histogram::observe(std::span<const double> values) {
  if (values.empty()) return;
  std::lock_guard lock(mutex_);
  for (const double v : values) record(v);
}

void Histogram::record(double v) {
  if (!std::isfinite(v)) {
    ++nonFinite_;
    return;
  }
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  if (v > 0.0)
    ++buckets_[bucketIndex(v)];
  else
    ++nonPositive_;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot s;
  s.count = count_;
  s.sum = sum_;
  if (count_ > 0) {
    s.min = min_;
    s.max = max_;
  }
  s.nonPositive = nonPositive_;
  s.nonFinite = nonFinite_;
  s.buckets = buckets_;
  return s;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the q-quantile among `count` sorted observations; the
  // non-positive observations (all <= 0, summarized only by min) sort
  // before every bucket.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1));
  if (rank < nonPositive) return min;
  std::uint64_t seen = nonPositive;
  for (const auto& [index, n] : buckets) {
    seen += n;
    if (rank < seen)
      return std::min(max, std::max(min, bucketValue(index)));
  }
  return max;
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
  nonPositive_ = 0;
  nonFinite_ = 0;
  buckets_.clear();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

support::Json MetricsRegistry::toJson() const {
  support::JsonObject counters, gauges, histograms;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [name, c] : counters_)
      counters[name] = support::Json(c->value());
    for (const auto& [name, g] : gauges_)
      gauges[name] = support::Json(g->value());
    for (const auto& [name, h] : histograms_) {
      const Histogram::Snapshot s = h->snapshot();
      support::JsonObject obj{{"count", support::Json(s.count)},
                              {"sum", support::Json(s.sum)}};
      if (s.count > 0) {
        obj["min"] = support::Json(s.min);
        obj["max"] = support::Json(s.max);
        obj["mean"] = support::Json(s.mean());
        obj["p50"] = support::Json(s.p50());
        obj["p90"] = support::Json(s.p90());
        obj["p99"] = support::Json(s.p99());
      }
      if (s.nonFinite > 0) obj["non_finite"] = support::Json(s.nonFinite);
      histograms[name] = support::Json(std::move(obj));
    }
  }
  return support::Json(support::JsonObject{
      {"counters", support::Json(std::move(counters))},
      {"gauges", support::Json(std::move(gauges))},
      {"histograms", support::Json(std::move(histograms))}});
}

std::string MetricsRegistry::renderTable() const {
  support::TextTable table("metrics");
  table.setHeader({"kind", "name", "value"});
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_)
    table.addRow({"counter", name, std::to_string(c->value())});
  for (const auto& [name, g] : gauges_)
    table.addRow({"gauge", name, support::fmt(g->value(), 6)});
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    table.addRow({"histogram", name,
                  "n=" + std::to_string(s.count) +
                      " mean=" + support::fmt(s.mean(), 6) +
                      " max=" + support::fmt(s.count ? s.max : 0.0, 6)});
  }
  return table.render();
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& entry : counters_) entry.second->reset();
  for (auto& entry : gauges_) entry.second->reset();
  for (auto& entry : histograms_) entry.second->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

} // namespace motune::observe
