#include "observe/report.h"

#include "support/check.h"
#include "support/files.h"
#include "support/table.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <iterator>
#include <sstream>
#include <unordered_map>

namespace motune::observe {

namespace {

TraceRecord::Kind kindFromName(const std::string& name) {
  if (name == "span") return TraceRecord::Kind::Span;
  if (name == "event") return TraceRecord::Kind::Event;
  if (name == "counter") return TraceRecord::Kind::Counter;
  if (name == "gauge") return TraceRecord::Kind::Gauge;
  if (name == "histogram") return TraceRecord::Kind::Histogram;
  MOTUNE_CHECK_MSG(false, "unknown record type: " + name);
  return TraceRecord::Kind::Event;
}

double attrNumber(const support::JsonObject& attrs, const std::string& key,
                  double fallback = 0.0) {
  const auto it = attrs.find(key);
  return it == attrs.end() ? fallback : it->second.asNumber();
}

std::int64_t attrInt(const support::JsonObject& attrs, const std::string& key,
                     std::int64_t fallback = 0) {
  const auto it = attrs.find(key);
  return it == attrs.end() ? fallback : it->second.asInt();
}

std::string attrString(const support::JsonObject& attrs,
                       const std::string& key, const std::string& fallback) {
  const auto it = attrs.find(key);
  return it == attrs.end() ? fallback : it->second.asString();
}

/// `|`-safe markdown cell.
std::string mdCell(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '|') out += "\\|";
    else out += c;
  }
  return out;
}

std::string mdRow(const std::vector<std::string>& cells) {
  std::string out = "|";
  for (const auto& c : cells) out += " " + mdCell(c) + " |";
  return out + "\n";
}

std::string mdHeader(const std::vector<std::string>& cells) {
  std::string out = mdRow(cells) + "|";
  for (std::size_t i = 0; i < cells.size(); ++i) out += "---|";
  return out + "\n";
}

std::vector<TraceRecord> traceRecords(const std::vector<support::Json>& lines) {
  std::vector<TraceRecord> records;
  for (const support::Json& json : lines) {
    MOTUNE_CHECK_MSG(json.has("type") && json.has("name"),
                     "trace record " + std::to_string(records.size() + 1) +
                         ": missing type/name");
    TraceRecord r;
    r.kind = kindFromName(json.at("type").asString());
    r.name = json.at("name").asString();
    r.start = json.has("t") ? json.at("t").asNumber() : 0.0;
    if (json.has("tid"))
      r.tid = static_cast<std::uint32_t>(json.at("tid").asInt());
    if (json.has("id")) r.id = static_cast<std::uint64_t>(json.at("id").asInt());
    if (json.has("parent"))
      r.parent = static_cast<std::uint64_t>(json.at("parent").asInt());
    if (json.has("dur")) r.duration = json.at("dur").asNumber();
    if (json.has("attrs")) r.attrs = json.at("attrs").asObject();
    records.push_back(std::move(r));
  }
  return records;
}

} // namespace

std::vector<TraceRecord> parseTraceJsonl(std::istream& in) {
  const std::string text(std::istreambuf_iterator<char>(in), {});
  return traceRecords(support::parseJsonl(text, "trace"));
}

std::vector<TraceRecord> parseTraceFile(const std::string& path) {
  return traceRecords(support::readJsonl(path));
}

Report buildReport(const std::vector<TraceRecord>& records,
                   const ReportOptions& options) {
  Report report;
  report.records = records.size();

  // ---------------------------------------------------- span attribution
  std::unordered_map<std::uint64_t, const TraceRecord*> spanById;
  std::unordered_map<std::uint64_t, double> childSeconds;
  for (const auto& r : records)
    if (r.kind == TraceRecord::Kind::Span && r.id != 0) spanById[r.id] = &r;
  for (const auto& r : records)
    if (r.kind == TraceRecord::Kind::Span && r.parent != 0 &&
        spanById.count(r.parent))
      childSeconds[r.parent] += r.duration;

  std::map<std::string, SpanStat> byName;
  std::map<std::string, std::uint64_t> collapsed; // path -> self microseconds
  for (const auto& r : records) {
    if (r.kind != TraceRecord::Kind::Span || r.id == 0) continue;
    const auto childIt = childSeconds.find(r.id);
    const double self = std::max(
        0.0, r.duration - (childIt == childSeconds.end() ? 0.0
                                                         : childIt->second));
    SpanStat& stat = byName[r.name];
    stat.name = r.name;
    ++stat.count;
    stat.totalSeconds += r.duration;
    stat.selfSeconds += self;
    report.totalSelfSeconds += self;

    // Collapsed stack: names from root to this span (cycle-guarded).
    std::vector<const TraceRecord*> chain{&r};
    const TraceRecord* cur = &r;
    for (int depth = 0; depth < 64 && cur->parent != 0; ++depth) {
      const auto it = spanById.find(cur->parent);
      if (it == spanById.end()) break;
      cur = it->second;
      chain.push_back(cur);
    }
    std::string path;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
      path += (path.empty() ? "" : ";") + (*it)->name;
    collapsed[path] += static_cast<std::uint64_t>(std::llround(self * 1e6));
  }
  for (const auto& [name, stat] : byName) report.hotSpans.push_back(stat);
  std::sort(report.hotSpans.begin(), report.hotSpans.end(),
            [](const SpanStat& a, const SpanStat& b) {
              return a.selfSeconds != b.selfSeconds
                         ? a.selfSeconds > b.selfSeconds
                         : a.name < b.name;
            });
  if (report.hotSpans.size() > options.topK)
    report.hotSpans.resize(options.topK);
  for (const auto& [path, micros] : collapsed)
    report.collapsedStacks += path + " " + std::to_string(micros) + "\n";

  // --------------------------------------------- everything record-driven
  for (const auto& r : records) {
    if (r.name == "trace.header") {
      report.wallEpochUnix = attrNumber(r.attrs, "wall_epoch_unix");
    } else if (r.kind == TraceRecord::Kind::Span &&
               r.name == "gde3.generation") {
      GenerationPoint p;
      p.gen = attrInt(r.attrs, "gen");
      p.bestHv = attrNumber(r.attrs, "hv");
      p.genHv = attrNumber(r.attrs, "gen_hv");
      p.frontSize = attrInt(r.attrs, "front_size");
      p.immigrants = attrInt(r.attrs, "immigrants");
      const auto it = r.attrs.find("improved");
      p.improved = it != r.attrs.end() && it->second.asBool();
      report.convergence.push_back(p);
    } else if (r.name == "autotune.front_version") {
      report.front.push_back(r.attrs);
    } else if (r.name == "eval.validate") {
      report.validations.push_back(r.attrs);
    } else if (r.kind == TraceRecord::Kind::Counter) {
      if (r.name == "tuning.evaluations.unique")
        report.uniqueEvaluations =
            static_cast<std::uint64_t>(attrInt(r.attrs, "value"));
      else if (r.name == "tuning.evaluations.memo_hits")
        report.memoHits = static_cast<std::uint64_t>(attrInt(r.attrs, "value"));
      else if (r.name == "rt.ring.dropped") {
        report.sawRingDropCounter = true;
        report.ringDrops = static_cast<std::uint64_t>(attrInt(r.attrs, "value"));
      } else if (r.name.rfind("rt.adaptive.", 0) == 0) {
        report.adaptiveCounters[r.name] =
            static_cast<std::uint64_t>(attrInt(r.attrs, "value"));
      }
    } else if (r.kind == TraceRecord::Kind::Histogram &&
               r.name == "tuning.evaluation.seconds") {
      report.evalLatency = r.attrs;
    } else if (r.kind == TraceRecord::Kind::Event &&
               r.name == "region.select") {
      ++report.selectionsByPolicy[attrString(r.attrs, "policy", "?")]
            [attrInt(r.attrs, "version")];
    }
  }
  // A daemon job's trace.jsonl accumulates runs (appended across restarts),
  // so generations can arrive out of order and a generation interrupted at
  // a checkpoint boundary can appear twice. Order by generation keeping
  // file order within ties, then keep only the last record of each
  // generation — the resumed run's version of it.
  std::stable_sort(report.convergence.begin(), report.convergence.end(),
                   [](const GenerationPoint& a, const GenerationPoint& b) {
                     return a.gen < b.gen;
                   });
  {
    std::vector<GenerationPoint> unique;
    unique.reserve(report.convergence.size());
    for (const GenerationPoint& p : report.convergence) {
      if (!unique.empty() && unique.back().gen == p.gen)
        unique.back() = p;
      else
        unique.push_back(p);
    }
    report.convergence = std::move(unique);
  }

  // ------------------------------------------------------ runtime threads
  std::map<std::uint32_t, ThreadActivity> threads;
  std::map<std::uint32_t, double> taskSeconds, chunkSeconds;
  for (const auto& r : records) {
    if (r.kind != TraceRecord::Kind::Span) continue;
    const bool isTask = r.name == "rt.task";
    const bool isChunk = r.name == "rt.chunk";
    const bool isRegion = r.name == "rt.region";
    const bool isIdle = r.name == "rt.idle";
    if (!isTask && !isChunk && !isRegion && !isIdle) continue;
    ThreadActivity& t = threads[r.tid];
    t.tid = r.tid;
    if (isTask) {
      ++t.tasks;
      taskSeconds[r.tid] += r.duration;
    } else if (isChunk) {
      ++t.chunks;
      chunkSeconds[r.tid] += r.duration;
    } else if (isRegion) {
      ++t.regions;
      t.busySeconds += r.duration;
      ++report.invocations[attrInt(r.attrs, "version")];
    } else {
      t.idleSeconds += r.duration;
    }
  }
  for (auto& [tid, t] : threads) {
    // Pooled chunks nest inside their task's window, so summing both would
    // double-count; inline chunks (single-worker runs) have no task at all.
    // The larger of the two covers both paths.
    t.busySeconds += std::max(taskSeconds[tid], chunkSeconds[tid]);
    report.threads.push_back(t);
  }

  // ---------------------------------------------------------- evaluator
  const std::uint64_t lookups = report.uniqueEvaluations + report.memoHits;
  report.memoHitRate =
      lookups == 0 ? 0.0
                   : static_cast<double>(report.memoHits) /
                         static_cast<double>(lookups);

  // ------------------------------------------------------ stall detection
  StallInfo& stall = report.stall;
  if (report.convergence.size() >= 2) {
    const double first = report.convergence.front().bestHv;
    const double last = report.convergence.back().bestHv;
    stall.totalImprovement = first > 0.0 ? (last - first) / first : 0.0;
    for (auto it = report.convergence.rbegin();
         std::next(it) != report.convergence.rend(); ++it) {
      if (it->bestHv > std::next(it)->bestHv * (1.0 + 1e-12)) break;
      ++stall.flatTail;
    }
    stall.stalled = stall.totalImprovement < options.stallEpsilon;
    std::ostringstream verdict;
    if (stall.stalled)
      verdict << "STALLED: hypervolume improved only "
              << support::fmtPercent(stall.totalImprovement)
              << " over " << report.convergence.size()
              << " generations (threshold "
              << support::fmtPercent(options.stallEpsilon) << ")";
    else
      verdict << "converged: hypervolume improved "
              << support::fmtPercent(stall.totalImprovement) << " over "
              << report.convergence.size() << " generations ("
              << stall.flatTail << " flat at the tail)";
    stall.verdict = verdict.str();
  } else if (report.convergence.size() == 1) {
    stall.verdict = "single generation: no trajectory to judge";
  } else {
    stall.verdict = "no generation spans in trace";
  }

  return report;
}

std::string renderMarkdown(const Report& report) {
  std::ostringstream out;
  out << "# motune run report\n\n";
  out << "- records: " << report.records << "\n";
  if (report.wallEpochUnix > 0.0)
    out << "- wall epoch (unix): " << support::fmt(report.wallEpochUnix, 3)
        << " (all trace times are steady-clock seconds from this instant)\n";
  out << "\n";

  // Where did the time go.
  out << "## Hot spans (self time)\n\n";
  if (report.hotSpans.empty()) {
    out << "no spans in trace\n\n";
  } else {
    out << mdHeader({"span", "count", "total", "self", "self share"});
    for (const auto& s : report.hotSpans) {
      const double share = report.totalSelfSeconds > 0.0
                               ? s.selfSeconds / report.totalSelfSeconds
                               : 0.0;
      out << mdRow({s.name, std::to_string(s.count),
                    support::fmtSeconds(s.totalSeconds),
                    support::fmtSeconds(s.selfSeconds),
                    support::fmtPercent(share)});
    }
    out << "\n";
  }

  // Convergence.
  out << "## Convergence\n\n";
  if (report.convergence.empty()) {
    out << report.stall.verdict << "\n\n";
  } else {
    out << report.stall.verdict << "\n\n";
    out << mdHeader({"gen", "best V(S)", "gen V(S)", "front", "immigrants",
                     "improved", "curve"});
    double maxHv = 0.0;
    for (const auto& p : report.convergence) maxHv = std::max(maxHv, p.bestHv);
    for (const auto& p : report.convergence) {
      const int bars =
          maxHv > 0.0
              ? static_cast<int>(std::lround(30.0 * p.bestHv / maxHv))
              : 0;
      out << mdRow({std::to_string(p.gen), support::fmt(p.bestHv, 4),
                    support::fmt(p.genHv, 4), std::to_string(p.frontSize),
                    std::to_string(p.immigrants), p.improved ? "yes" : "no",
                    std::string(static_cast<std::size_t>(bars), '#')});
    }
    out << "\n";
  }

  // Pareto front.
  out << "## Final Pareto front\n\n";
  if (report.front.empty()) {
    out << "no front recorded (autotune.front_version events missing)\n\n";
  } else {
    out << mdHeader({"version", "tiles", "threads", "est. time", "resources",
                     "energy"});
    for (std::size_t v = 0; v < report.front.size(); ++v) {
      const auto& a = report.front[v];
      const double joules = attrNumber(a, "joules");
      out << mdRow(
          {"v" + std::to_string(v), attrString(a, "tiles", "?"),
           std::to_string(attrInt(a, "threads")),
           support::fmtSeconds(attrNumber(a, "time_s")),
           support::fmt(attrNumber(a, "resources"), 3) + " core-s",
           joules > 0.0 ? support::fmt(joules, 1) + " J" : "-"});
    }
    out << "\n";
  }

  // Evaluator.
  out << "## Evaluation cache\n\n";
  out << "- unique evaluations: " << report.uniqueEvaluations << "\n";
  out << "- memo hits: " << report.memoHits << "\n";
  out << "- memo hit rate: " << support::fmtPercent(report.memoHitRate)
      << "\n\n";

  if (!report.evalLatency.empty()) {
    out << "## Evaluation latency\n\n";
    out << mdHeader({"count", "mean", "p50", "p90", "p99", "max"});
    out << mdRow({std::to_string(attrInt(report.evalLatency, "count")),
                  support::fmtSeconds(attrNumber(report.evalLatency, "mean")),
                  support::fmtSeconds(attrNumber(report.evalLatency, "p50")),
                  support::fmtSeconds(attrNumber(report.evalLatency, "p90")),
                  support::fmtSeconds(attrNumber(report.evalLatency, "p99")),
                  support::fmtSeconds(attrNumber(report.evalLatency, "max"))});
    out << "\n";
  }

  // Version selection.
  out << "## Runtime version selection\n\n";
  if (report.selectionsByPolicy.empty() && report.invocations.empty()) {
    out << "no region activity in trace\n\n";
  } else {
    if (!report.selectionsByPolicy.empty()) {
      out << mdHeader({"policy", "version", "selections"});
      for (const auto& [policy, versions] : report.selectionsByPolicy)
        for (const auto& [version, n] : versions)
          out << mdRow({policy, "v" + std::to_string(version),
                        std::to_string(n)});
      out << "\n";
    }
    if (!report.invocations.empty()) {
      out << mdHeader({"version", "invocations"});
      for (const auto& [version, n] : report.invocations)
        out << mdRow({"v" + std::to_string(version), std::to_string(n)});
      out << "\n";
    }
  }
  if (!report.adaptiveCounters.empty()) {
    out << mdHeader({"adaptive counter", "value"});
    for (const auto& [counter, n] : report.adaptiveCounters)
      out << mdRow({counter, std::to_string(n)});
    out << "\n";
  }

  // Model validation.
  out << "## Cost model vs. cache simulator\n\n";
  if (report.validations.empty()) {
    out << "no validation samples (run `motune tune --validate`)\n\n";
  } else {
    out << mdHeader({"config", "model DRAM", "sim DRAM", "ratio",
                     "model time", "sim time"});
    for (const auto& a : report.validations) {
      out << mdRow({attrString(a, "config", "?"),
                    support::fmt(attrNumber(a, "model_dram_mb"), 3) + " MB",
                    support::fmt(attrNumber(a, "sim_dram_mb"), 3) + " MB",
                    support::fmt(attrNumber(a, "dram_ratio"), 2) + "x",
                    support::fmtSeconds(attrNumber(a, "model_seconds")),
                    support::fmtSeconds(attrNumber(a, "sim_seconds"))});
    }
    out << "\n";
  }

  // Runtime threads.
  out << "## Runtime threads\n\n";
  if (report.threads.empty()) {
    out << "no runtime ring events in trace\n\n";
  } else {
    out << mdHeader({"tid", "tasks", "chunks", "regions", "busy", "idle"});
    for (const auto& t : report.threads)
      out << mdRow({std::to_string(t.tid), std::to_string(t.tasks),
                    std::to_string(t.chunks), std::to_string(t.regions),
                    support::fmtSeconds(t.busySeconds),
                    support::fmtSeconds(t.idleSeconds)});
    out << "\n";
  }
  out << "- ring events dropped: " << report.ringDrops
      << (report.sawRingDropCounter ? "" : " (counter missing from trace!)")
      << "\n\n";

  // Collapsed stacks last: machine-consumable tail (flamegraph.pl format).
  out << "## Collapsed stacks (flamegraph format, microseconds)\n\n";
  out << "```\n" << report.collapsedStacks << "```\n";
  return out.str();
}

support::Json reportToJson(const Report& report) {
  support::JsonObject root;
  root["records"] = support::Json(report.records);
  root["wall_epoch_unix"] = support::Json(report.wallEpochUnix);

  support::JsonArray hot;
  for (const auto& s : report.hotSpans)
    hot.push_back(support::Json(support::JsonObject{
        {"name", support::Json(s.name)},
        {"count", support::Json(s.count)},
        {"total_seconds", support::Json(s.totalSeconds)},
        {"self_seconds", support::Json(s.selfSeconds)}}));
  root["hot_spans"] = support::Json(std::move(hot));

  support::JsonArray conv;
  for (const auto& p : report.convergence)
    conv.push_back(support::Json(support::JsonObject{
        {"gen", support::Json(p.gen)},
        {"best_hv", support::Json(p.bestHv)},
        {"gen_hv", support::Json(p.genHv)},
        {"front_size", support::Json(p.frontSize)},
        {"immigrants", support::Json(p.immigrants)},
        {"improved", support::Json(p.improved)}}));
  root["convergence"] = support::Json(std::move(conv));

  root["stall"] = support::Json(support::JsonObject{
      {"stalled", support::Json(report.stall.stalled)},
      {"flat_tail", support::Json(report.stall.flatTail)},
      {"total_improvement", support::Json(report.stall.totalImprovement)},
      {"verdict", support::Json(report.stall.verdict)}});

  support::JsonArray front;
  for (const auto& a : report.front) front.push_back(support::Json(a));
  root["front"] = support::Json(std::move(front));

  root["evaluator"] = support::Json(support::JsonObject{
      {"unique", support::Json(report.uniqueEvaluations)},
      {"memo_hits", support::Json(report.memoHits)},
      {"memo_hit_rate", support::Json(report.memoHitRate)},
      {"latency", support::Json(report.evalLatency)}});

  support::JsonObject selections;
  for (const auto& [policy, versions] : report.selectionsByPolicy) {
    support::JsonObject byVersion;
    for (const auto& [version, n] : versions)
      byVersion["v" + std::to_string(version)] = support::Json(n);
    selections[policy] = support::Json(std::move(byVersion));
  }
  root["selections"] = support::Json(std::move(selections));

  support::JsonObject invocations;
  for (const auto& [version, n] : report.invocations)
    invocations["v" + std::to_string(version)] = support::Json(n);
  root["invocations"] = support::Json(std::move(invocations));

  // Only present when the trace carries adaptive-selection counters, so
  // tuning-only report JSON is unchanged.
  if (!report.adaptiveCounters.empty()) {
    support::JsonObject adaptive;
    for (const auto& [counter, n] : report.adaptiveCounters)
      adaptive[counter] = support::Json(n);
    root["adaptive"] = support::Json(std::move(adaptive));
  }

  support::JsonArray validations;
  for (const auto& a : report.validations)
    validations.push_back(support::Json(a));
  root["validations"] = support::Json(std::move(validations));

  support::JsonArray threads;
  for (const auto& t : report.threads)
    threads.push_back(support::Json(support::JsonObject{
        {"tid", support::Json(static_cast<std::uint64_t>(t.tid))},
        {"tasks", support::Json(t.tasks)},
        {"chunks", support::Json(t.chunks)},
        {"regions", support::Json(t.regions)},
        {"busy_seconds", support::Json(t.busySeconds)},
        {"idle_seconds", support::Json(t.idleSeconds)}}));
  root["threads"] = support::Json(std::move(threads));
  root["ring_drops"] = support::Json(report.ringDrops);

  root["collapsed_stacks"] = support::Json(report.collapsedStacks);
  return support::Json(std::move(root));
}

} // namespace motune::observe
