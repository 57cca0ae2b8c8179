// Trace analysis: turns a recorded run (JSONL trace) into an explanation.
//
// PR 1 made the tuning pipeline emit structured spans/events/metrics; this
// module reads them back and answers the questions the paper answers with
// its figures: where did the tuning time go (span self-time attribution,
// collapsed stacks), how did RS-GDE3 converge (hypervolume per generation
// with stall detection — the paper's Fig. 5-style trajectory), what did
// the search produce (final Pareto front per kernel), how effective was
// evaluation memoization, which versions did the runtime pick, and how
// well the analytical cost model agrees with the cache simulator on the
// sampled configurations. `motune report` is the CLI front end.
#pragma once

#include "observe/trace.h"

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace motune::observe {

struct ReportOptions {
  std::size_t topK = 10;       ///< hot-span table size
  double stallEpsilon = 0.002; ///< relative HV gain below which a run stalled
};

/// Per-name span aggregation. Self time is the span's duration minus the
/// durations of its direct children (span nesting via id/parent).
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double totalSeconds = 0.0;
  double selfSeconds = 0.0;
};

/// One point of the convergence trajectory (a gde3.generation span).
struct GenerationPoint {
  std::int64_t gen = 0;
  double bestHv = 0.0; ///< best-so-far hypervolume (monotone)
  double genHv = 0.0;  ///< this generation's raw front hypervolume
  std::int64_t frontSize = 0;
  std::int64_t immigrants = 0;
  bool improved = false;
};

struct StallInfo {
  bool stalled = false;
  std::int64_t flatTail = 0;      ///< trailing generations without HV gain
  double totalImprovement = 0.0;  ///< relative HV gain, first -> last
  std::string verdict;            ///< human-readable one-liner
};

/// Per-thread runtime activity (from the drained ring buffers).
struct ThreadActivity {
  std::uint32_t tid = 0;
  std::uint64_t tasks = 0;
  std::uint64_t chunks = 0;
  std::uint64_t regions = 0;
  double busySeconds = 0.0; ///< task + region execution time
  double idleSeconds = 0.0;
};

struct Report {
  // Trace header.
  double wallEpochUnix = 0.0;
  std::size_t records = 0;

  // Span attribution.
  std::vector<SpanStat> hotSpans;       ///< sorted by self time, top-k
  double totalSelfSeconds = 0.0;        ///< denominator for self-time shares
  std::string collapsedStacks;          ///< flamegraph collapsed-stack dump

  // Convergence.
  std::vector<GenerationPoint> convergence;
  StallInfo stall;

  // Final Pareto front (autotune.front_version events, in emission order).
  std::vector<support::JsonObject> front;

  // Evaluator.
  std::uint64_t uniqueEvaluations = 0;
  std::uint64_t memoHits = 0;
  double memoHitRate = 0.0;
  support::JsonObject evalLatency; ///< histogram attrs (mean/p50/p90/p99/..)

  // Runtime version selection.
  std::map<std::string, std::map<std::int64_t, std::uint64_t>>
      selectionsByPolicy;                            ///< region.select
  std::map<std::int64_t, std::uint64_t> invocations; ///< rt.region by version
  std::map<std::string, std::uint64_t> adaptiveCounters; ///< rt.adaptive.*

  // Model-vs-cachesim validation (eval.validate events).
  std::vector<support::JsonObject> validations;

  // Runtime threads.
  std::vector<ThreadActivity> threads;
  std::uint64_t ringDrops = 0;
  bool sawRingDropCounter = false;
};

/// Parses a JSONL trace (as written by JsonLinesSink) back into records
/// under support::readJsonl's rules (CheckError names a malformed line).
std::vector<TraceRecord> parseTraceJsonl(std::istream& in);
std::vector<TraceRecord> parseTraceFile(const std::string& path);

/// Builds the report from parsed records.
Report buildReport(const std::vector<TraceRecord>& records,
                   const ReportOptions& options = {});

/// Renders the report as markdown (the `motune report` default).
std::string renderMarkdown(const Report& report);

/// Renders the report as a JSON document (for dashboards / diffing).
support::Json reportToJson(const Report& report);

} // namespace motune::observe
