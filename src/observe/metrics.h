// Low-overhead metric instruments for the tuning pipeline.
//
// Counters are monotone (unique evaluations, memo hits, region
// invocations), gauges hold the latest value of a quantity (best
// hypervolume, reduced-boundary volume), histograms summarize a
// distribution (evaluation latency, region execution time). Instruments
// are always on: recording is a relaxed atomic op (counters/gauges) or a
// short critical section (histograms), cheap next to the work being
// measured. A MetricsRegistry names and owns instruments; handles returned
// by it stay valid for the registry's lifetime, so hot paths look the
// instrument up once and keep the reference.
#pragma once

#include "support/json.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

namespace motune::observe {

/// Monotone counter (reset() excepted). Internally striped: each thread
/// adds to its own cache-line-padded cell, so counters on hot paths (memo
/// hits under parallel batch evaluation) do not serialize the threads on
/// one contended cache line. value() sums the stripes — exact whenever the
/// writers are quiescent, which is when every reader (tests, report,
/// snapshot-at-run-end) looks.
class Counter {
public:
  void add(std::uint64_t delta = 1) {
    stripes_[stripeIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : stripes_)
      sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (auto& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

private:
  static constexpr std::size_t kStripes = 8; // power of two (mask select)
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };

  /// Stable per-thread stripe, assigned round-robin on first use; threads
  /// land on distinct cache lines until more than kStripes are live.
  static std::size_t stripeIndex() {
    static std::atomic<std::size_t> next{0};
    static thread_local std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx & (kStripes - 1);
  }

  std::array<Stripe, kStripes> stripes_;
};

/// Last-value-wins gauge.
class Gauge {
public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

/// Streaming summary of an observed distribution. Besides count/sum/min/
/// max it keeps a log-bucketed sketch (DDSketch-style, ~2% relative error)
/// of the positive values, so snapshots can answer quantile queries with
/// bounded memory — evaluation latencies span orders of magnitude, which
/// is exactly what relative-error buckets handle well.
class Histogram {
public:
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t nonPositive = 0;         ///< observations <= 0
    std::uint64_t nonFinite = 0; ///< NaN and ±inf, outside every other field
    std::map<int, std::uint64_t> buckets;  ///< log-bucket index -> count

    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    /// Value at quantile q in [0, 1], within ~2% relative error for
    /// positive observations (exact at the min/max ends). 0 when empty.
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
  };

  /// Records one value. A NaN or infinite value only counts in
  /// Snapshot::nonFinite: it would poison sum and has no bucket.
  void observe(double v);
  /// observe() of each value in order, under one lock.
  void observe(std::span<const double> values);
  Snapshot snapshot() const;
  void reset();

private:
  void record(double v); // observe() with mutex_ held

  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::uint64_t nonPositive_ = 0;
  std::uint64_t nonFinite_ = 0;
  std::map<int, std::uint64_t> buckets_;
};

/// Named instrument store. counter()/gauge()/histogram() create on first
/// use and always return the same instrument for a name afterwards.
class MetricsRegistry {
public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters":{..},"gauges":{..},"histograms":{name:{count,sum,..}}}.
  support::Json toJson() const;

  /// Human-readable dump via support::TextTable.
  std::string renderTable() const;

  /// Zeroes every instrument; existing handles remain valid.
  void reset();

  /// Process-wide registry the pipeline instrumentation reports to.
  static MetricsRegistry& global();

  /// Calls `fn(name, instrument)` for each instrument of one kind, in name
  /// order (used by Tracer::snapshotMetrics).
  template <typename Fn> void eachCounter(Fn&& fn) const {
    std::lock_guard lock(mutex_);
    for (const auto& [name, c] : counters_) fn(name, *c);
  }
  template <typename Fn> void eachGauge(Fn&& fn) const {
    std::lock_guard lock(mutex_);
    for (const auto& [name, g] : gauges_) fn(name, *g);
  }
  template <typename Fn> void eachHistogram(Fn&& fn) const {
    std::lock_guard lock(mutex_);
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace motune::observe
