// Fault-tolerant evaluation (src/tuning/fault.h): spec parsing, the
// deterministic injector, retry/backoff, timeouts, quarantine, graceful
// degradation to a fallback evaluator, and the fault.* metrics — plus an
// end-to-end search that survives injected faults without aborting.
#include "autotune/autotuner.h"
#include "core/testproblems.h"
#include "observe/metrics.h"
#include "runtime/parallel_for.h"
#include "support/check.h"
#include "tuning/fault.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

using namespace motune;

namespace {

/// Two-objective probe with scriptable behavior per configuration.
class Probe final : public tuning::ObjectiveFunction {
public:
  Probe() : space_{{"x", 0, 1000}} {}

  std::size_t numObjectives() const override { return 2; }
  const std::vector<tuning::ParamSpec>& space() const override {
    return space_;
  }

  tuning::Objectives evaluate(const tuning::Config& config) override {
    ++calls_;
    const std::int64_t x = config.front();
    if (x == kAlwaysFails)
      throw tuning::EvaluationFault("probe: configured failure");
    if (x == kHangs)
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (x == kFlaky && flakyRemaining_ > 0) {
      --flakyRemaining_;
      throw tuning::EvaluationFault("probe: transient failure");
    }
    return {static_cast<double>(x), static_cast<double>(1000 - x)};
  }

  static constexpr std::int64_t kAlwaysFails = 13;
  static constexpr std::int64_t kHangs = 14;
  static constexpr std::int64_t kFlaky = 15;

  int calls() const { return calls_; }
  void setFlakyFailures(int n) { flakyRemaining_ = n; }

private:
  std::vector<tuning::ParamSpec> space_;
  std::atomic<int> calls_{0};
  std::atomic<int> flakyRemaining_{0};
};

/// Always-working stand-in for the analytical model (degradation target).
class Fallback final : public tuning::ObjectiveFunction {
public:
  Fallback() : space_{{"x", 0, 1000}} {}
  std::size_t numObjectives() const override { return 2; }
  const std::vector<tuning::ParamSpec>& space() const override {
    return space_;
  }
  tuning::Objectives evaluate(const tuning::Config& config) override {
    ++calls_;
    return {static_cast<double>(config.front()) + 0.5, 99.0};
  }
  int calls() const { return calls_; }

private:
  std::vector<tuning::ParamSpec> space_;
  std::atomic<int> calls_{0};
};

std::uint64_t metric(const std::string& name) {
  return observe::MetricsRegistry::global().counter(name).value();
}

} // namespace

TEST(FaultSpec, ParsesTheDocumentedGrammar) {
  const tuning::FaultSpec spec =
      tuning::FaultSpec::parse("fail@17x2,hang@40:0.5,delay@*:0.004");
  ASSERT_EQ(spec.rules.size(), 3u);

  EXPECT_EQ(spec.rules[0].action, tuning::FaultRule::Action::Fail);
  EXPECT_EQ(spec.rules[0].first, 17u);
  EXPECT_EQ(spec.rules[0].count, 2u);
  EXPECT_TRUE(spec.rules[0].matches(17));
  EXPECT_TRUE(spec.rules[0].matches(18));
  EXPECT_FALSE(spec.rules[0].matches(19));

  EXPECT_EQ(spec.rules[1].action, tuning::FaultRule::Action::Hang);
  EXPECT_EQ(spec.rules[1].first, 40u);
  EXPECT_EQ(spec.rules[1].seconds, 0.5);
  EXPECT_FALSE(spec.rules[1].matches(39));

  EXPECT_EQ(spec.rules[2].action, tuning::FaultRule::Action::Delay);
  EXPECT_EQ(spec.rules[2].first, 0u) << "* = every call";
  EXPECT_TRUE(spec.rules[2].matches(1));
  EXPECT_TRUE(spec.rules[2].matches(123456));

  EXPECT_TRUE(tuning::FaultSpec::parse("").empty());
}

TEST(FaultSpec, RejectsMalformedRules) {
  EXPECT_THROW(tuning::FaultSpec::parse("explode@3"), support::CheckError);
  EXPECT_THROW(tuning::FaultSpec::parse("fail3"), support::CheckError);
  EXPECT_THROW(tuning::FaultSpec::parse("hang@5"), support::CheckError)
      << "hang needs a duration";
  EXPECT_THROW(tuning::FaultSpec::parse("fail@0"), support::CheckError)
      << "indices are 1-based";
}

TEST(FaultSpec, ReadsTheEnvironmentHook) {
  ::unsetenv("MOTUNE_FAULT_SPEC");
  EXPECT_FALSE(tuning::FaultSpec::fromEnv().has_value());
  ::setenv("MOTUNE_FAULT_SPEC", "fail@2", 1);
  const auto spec = tuning::FaultSpec::fromEnv();
  ::unsetenv("MOTUNE_FAULT_SPEC");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->rules.size(), 1u);
}

TEST(FaultInjection, FailsExactlyTheDesignatedCalls) {
  Probe probe;
  tuning::FaultInjectingEvaluator inject(probe,
                                         tuning::FaultSpec::parse("fail@2x2"));
  EXPECT_NO_THROW(inject.evaluate({1}));
  EXPECT_THROW(inject.evaluate({2}), tuning::EvaluationFault);
  EXPECT_THROW(inject.evaluate({3}), tuning::EvaluationFault);
  EXPECT_NO_THROW(inject.evaluate({4}));
  EXPECT_EQ(inject.calls(), 4u);
  EXPECT_EQ(probe.calls(), 2) << "failed calls never reach the inner fn";
}

TEST(FaultTolerant, RetriesTransientFailuresWithBackoff) {
  observe::MetricsRegistry::global().reset();
  Probe probe;
  probe.setFlakyFailures(2);
  tuning::FaultPolicy policy;
  policy.enabled = true;
  policy.maxRetries = 2;
  policy.backoffSeconds = 0.001;
  tuning::FaultTolerantEvaluator tolerant(probe, policy);

  // "fail eval twice": attempts 1 and 2 throw, attempt 3 (second retry)
  // succeeds — no exception escapes, and the real value comes back.
  const tuning::Objectives result = tolerant.evaluate({Probe::kFlaky});
  EXPECT_EQ(result.front(), static_cast<double>(Probe::kFlaky));
  EXPECT_EQ(probe.calls(), 3);
  EXPECT_EQ(metric("fault.failures"), 2u);
  EXPECT_EQ(metric("fault.retries"), 2u);
  EXPECT_EQ(metric("fault.fallbacks"), 0u);
  EXPECT_EQ(tolerant.quarantinedCount(), 0u);
}

TEST(FaultTolerant, ExhaustionWithoutFallbackRethrows) {
  observe::MetricsRegistry::global().reset();
  Probe probe;
  tuning::FaultPolicy policy;
  policy.enabled = true;
  policy.maxRetries = 1;
  tuning::FaultTolerantEvaluator tolerant(probe, policy);
  EXPECT_THROW(tolerant.evaluate({Probe::kAlwaysFails}),
               tuning::EvaluationFault);
  EXPECT_EQ(probe.calls(), 2) << "one attempt + one retry";
  EXPECT_EQ(metric("fault.failures"), 2u);
}

TEST(FaultTolerant, DegradesToFallbackAndQuarantines) {
  observe::MetricsRegistry::global().reset();
  Probe probe;
  Fallback fallback;
  tuning::FaultPolicy policy;
  policy.enabled = true;
  policy.maxRetries = 0;
  policy.quarantineAfter = 2;
  tuning::FaultTolerantEvaluator tolerant(probe, policy, &fallback);

  // First two exhausted calls degrade to the fallback; the second one
  // crosses quarantineAfter.
  const tuning::Config bad{Probe::kAlwaysFails};
  EXPECT_EQ(tolerant.evaluate(bad).back(), 99.0);
  EXPECT_FALSE(tolerant.isQuarantined(bad));
  EXPECT_EQ(tolerant.evaluate(bad).back(), 99.0);
  EXPECT_TRUE(tolerant.isQuarantined(bad));
  EXPECT_EQ(tolerant.quarantinedCount(), 1u);
  EXPECT_EQ(metric("fault.quarantined"), 1u);

  // Quarantined configurations skip the primary entirely.
  const int primaryCalls = probe.calls();
  EXPECT_EQ(tolerant.evaluate(bad).back(), 99.0);
  EXPECT_EQ(probe.calls(), primaryCalls);
  EXPECT_EQ(metric("fault.quarantine_hits"), 1u);
  EXPECT_EQ(metric("fault.fallbacks"), 3u);

  // Healthy configurations are untouched by all of this.
  EXPECT_EQ(tolerant.evaluate({5}).front(), 5.0);
  EXPECT_EQ(fallback.calls(), 3);
}

TEST(FaultTolerant, TimeoutAbandonsHangingEvaluation) {
  observe::MetricsRegistry::global().reset();
  Probe probe;
  Fallback fallback;
  tuning::FaultPolicy policy;
  policy.enabled = true;
  policy.maxRetries = 0;
  policy.quarantineAfter = 1;
  policy.timeoutSeconds = 0.02; // the hanging probe sleeps 300 ms
  const auto start = std::chrono::steady_clock::now();
  {
    tuning::FaultTolerantEvaluator tolerant(probe, policy, &fallback);
    EXPECT_EQ(tolerant.evaluate({Probe::kHangs}).back(), 99.0);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_LT(waited, 0.25) << "the caller must not wait out the hang";
    EXPECT_EQ(metric("fault.timeouts"), 1u);
    EXPECT_TRUE(tolerant.isQuarantined({Probe::kHangs}));
    // Fast evaluations under a timeout pay only the async dispatch.
    EXPECT_EQ(tolerant.evaluate({3}).front(), 3.0);
  } // destructor joins the abandoned attempt
  EXPECT_GE(probe.calls(), 2);
}

TEST(FaultTolerant, SearchSurvivesInjectedFaults) {
  // End to end: RS-GDE3 over a synthetic problem with the environment
  // fault hook failing three early evaluations — the run completes, the
  // failures are retried, and the outcome equals the fault-free run (the
  // retries succeed, so the same values flow back into the search).
  observe::MetricsRegistry::global().reset();
  autotune::TunerOptions options;
  options.gde3.seed = 11;
  options.gde3.maxGenerations = 6;

  opt::SyntheticProblem clean = opt::makeSchaffer();
  const opt::OptResult goldenResult =
      autotune::AutoTuner(options).optimize(clean);

  options.fault.enabled = true;
  options.fault.maxRetries = 2;
  ::setenv("MOTUNE_FAULT_SPEC", "fail@3,fail@10,fail@25", 1);
  opt::SyntheticProblem faulty = opt::makeSchaffer();
  const opt::OptResult survived =
      autotune::AutoTuner(options).optimize(faulty);
  ::unsetenv("MOTUNE_FAULT_SPEC");

  EXPECT_FALSE(survived.front.empty());
  EXPECT_EQ(survived.evaluations, goldenResult.evaluations);
  EXPECT_EQ(survived.generations, goldenResult.generations);
  EXPECT_GE(metric("fault.failures"), 3u);
  EXPECT_GE(metric("fault.retries"), 3u);
  EXPECT_EQ(metric("fault.quarantined"), 0u);
}

TEST(FaultTolerant, ThreadSafeUnderParallelEvaluation) {
  // Pool threads call the wrapper concurrently when a batch fans out; hammer
  // it from the pool with a mix of healthy and flaky configurations,
  // repeats included, so concurrent calls on the same config reach it too.
  observe::MetricsRegistry::global().reset();
  Probe probe;
  Fallback fallback;
  tuning::FaultPolicy policy;
  policy.enabled = true;
  policy.maxRetries = 0;
  policy.quarantineAfter = 1;
  tuning::FaultTolerantEvaluator tolerant(probe, policy, &fallback);

  runtime::ThreadPool pool(4);
  std::vector<tuning::Config> configs;
  for (int round = 0; round < 8; ++round) {
    for (std::int64_t x = 1; x <= 8; ++x) configs.push_back({x});
    configs.push_back({Probe::kAlwaysFails});
  }
  std::vector<tuning::Objectives> results(configs.size());
  runtime::parallelFor(pool, 0, static_cast<std::int64_t>(configs.size()), 4,
                       [&](std::int64_t i) {
                         const auto k = static_cast<std::size_t>(i);
                         results[k] = tolerant.evaluate(configs[k]);
                       });
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const double expected = configs[i].front() == Probe::kAlwaysFails
                                ? 99.0
                                : static_cast<double>(1000 -
                                                      configs[i].front());
    EXPECT_EQ(results[i].back(), expected) << i;
  }
  EXPECT_TRUE(tolerant.isQuarantined({Probe::kAlwaysFails}));
}
