// motune — command-line front end to the auto-tuning framework. Every
// command and flag is declared once, in commandHelp(): it prints `motune
// [CMD] --help`, parseArgs() refuses flags it lacks, check_cli_docs.py
// holds docs/cli.md to it; tune/submit share serve::specOptions().
#include "analyzer/dependence.h"
#include "analyzer/region.h"
#include "autotune/artifact.h"
#include "autotune/autotuner.h"
#include "autotune/backend.h"
#include "ir/parse.h"
#include "ir/print.h"
#include "kernels/kernel.h"
#include "machine/machine.h"
#include "observe/metrics.h"
#include "observe/report.h"
#include "observe/trace.h"
#include "runtime/adaptive.h"
#include "runtime/traffic.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/job.h"
#include "support/check.h"
#include "support/number.h"
#include "support/table.h"
#include "verify/fuzz.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace motune;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }

  /// A numeric option, parsed strictly: the whole value must be one T in
  /// [lo, hi]. `fallback` when the option is absent.
  template <class T>
  T number(const std::string& key, T fallback,
           T lo = std::numeric_limits<T>::lowest(),
           T hi = std::numeric_limits<T>::max()) const {
    if (!has(key)) return fallback;
    const std::optional<T> v = support::parseNumber<T>(options.at(key));
    if (v && *v >= lo && *v <= hi) return *v;
    std::ostringstream msg;
    msg << "--" << key << ": invalid value '" << options.at(key) << "'";
    if (hi != std::numeric_limits<T>::max())
      msg << " (must be in [" << +lo << ", " << +hi << "])";
    else if (lo != std::numeric_limits<T>::lowest())
      msg << " (must be >= " << +lo << ")";
    MOTUNE_CHECK_MSG(false, msg.str());
    return fallback;
  }
};

// ---------------------------------------------------------------------------
// Help. One table drives `motune --help`, `motune CMD --help` and the
// docs-drift check (tools/check_cli_docs.py asserts every flag printed here
// is documented in docs/cli.md).

struct FlagHelp {
  std::string flag;  ///< without the leading "--"
  std::string value; ///< value placeholder; "" for pure (valueless) flags
  std::string text;
  /// Feature area ("search", "checkpoint", "surrogate", "fault"); flags
  /// sharing a group are printed together under a group heading, "" flags
  /// lead the list. Purely presentational — parsing ignores it.
  std::string group = "";
};

struct CommandHelp {
  const char* name;
  const char* summary; ///< one line for the global listing
  const char* usage;
  std::vector<FlagHelp> flags;
};

/// `before`, the JobSpec option rows that tune and submit share
/// (serve::specOptions()), then `after`.
std::vector<FlagHelp> withSpecFlags(std::vector<FlagHelp> before,
                                    const std::vector<FlagHelp>& after) {
  for (const serve::SpecOption& o : serve::specOptions())
    before.push_back({o.flag, o.value,
                      std::string(o.help) + " (default: " +
                          serve::specFlagText(serve::JobSpec{}, o) + ")",
                      o.group});
  before.insert(before.end(), after.begin(), after.end());
  return before;
}

const std::vector<CommandHelp>& commandHelp() {
  static const std::vector<CommandHelp> table = {
      {"list", "print the built-in kernels and machine models",
       "motune list", {}},
      {"tune", "run the static optimizer and print the Pareto set",
       "motune tune [--kernel NAME | --source FILE] [options]",
       withSpecFlags({}, {
           {"source", "FILE", "tune a textual kernel instead (ir/parse.h)"},
           {"out", "FILE", "save the tuning artifact as JSON"},
           {"trace", "FILE", "stream the structured run trace; - = stdout"},
           {"trace-format", "FMT", "jsonl (default) or chrome"},
           {"metrics", "FILE", "write the final metric registry as JSON"},
           {"validate", "0|1",
            "replay the front through the cache simulator"},
           {"migrate-every", "N",
            "generations between island migration rounds (default: 5)",
            "search"},
           {"migrants", "M",
            "emigrants per island per migration round (default: 3)",
            "search"},
           {"island-index", "K",
            "worker mode: run only island K against the shared --checkpoint "
            "directory; merge later with --islands N --resume DIR",
            "search"},
           {"checkpoint", "DIR",
            "journal the session to DIR/session.jsonl (crash-safe)",
            "checkpoint"},
           {"checkpoint-every", "N",
            "generations between engine checkpoints (default: 1)",
            "checkpoint"},
           {"resume", "DIR",
            "continue a killed session from DIR (bit-identical)",
            "checkpoint"},
           {"warm-start", "DIRS",
            "comma list of session directories whose journals pre-train "
            "the surrogate (incompatible journals are skipped)",
            "surrogate"},
           {"fault-tolerant", "0|1",
            "retry/quarantine failing evaluations instead of aborting",
            "fault"},
           {"eval-retries", "N",
            "retries per configuration after the first attempt (default: 2)",
            "fault"},
           {"eval-timeout", "S",
            "per-attempt wall-clock limit in seconds; 0 = none", "fault"},
           {"eval-backoff", "S",
            "base backoff between retries, doubled per attempt (default: 0)",
            "fault"},
           {"quarantine-after", "N",
            "exhausted attempts before a configuration is banned "
            "(default: 3)", "fault"},
       })},
      {"report", "analyze a JSONL trace into a Markdown/JSON report",
       "motune report --trace FILE.jsonl [options]",
       {
           {"trace", "FILE", "JSONL trace to analyze (required)"},
           {"out", "FILE", "write the Markdown report here (default: stdout)"},
           {"json", "FILE", "additionally write the machine-readable report"},
           {"top", "N", "rows per ranking section (default: 10)"},
           {"stall-epsilon", "X",
            "relative HV gain below which a generation counts as stalled"},
           {"fail-on-stall", "0|1", "exit 3 when the stall detector fires"},
       }},
      {"analyze", "parse a textual kernel and print its analysis",
       "motune analyze --source FILE",
       {
           {"source", "FILE", "textual kernel to analyze (required)"},
       }},
      {"show", "print a saved tuning artifact",
       "motune show FILE", {}},
      {"codegen", "emit the multi-versioned C module for an artifact",
       "motune codegen FILE [--out FILE.c]",
       {
           {"out", "FILE", "write the C module here (default: stdout)"},
       }},
      {"predict", "cost-model breakdown for one configuration",
       "motune predict --tiles T1,T2[,T3] --threads P [options]",
       {
           {"kernel", "NAME", "built-in kernel (default: mm)"},
           {"machine", "NAME", "westmere or barcelona (default: westmere)"},
           {"n", "N", "problem size; 0 = the kernel's paper size"},
           {"tiles", "LIST", "comma list of tile sizes (required)"},
           {"threads", "P", "thread count (required)"},
       }},
      {"fuzz", "differential correctness fuzzing of the transform/codegen "
               "pipeline",
       "motune fuzz [options] | motune fuzz --repro FILE [--no-native]",
       {
           {"seed", "S", "fuzzer RNG seed (default: 1)"},
           {"iters", "N", "iteration cap (default: 1000)"},
           {"time-budget", "S", "stop after S seconds; 0 = no budget"},
           {"max-steps", "N", "transform steps per case (default: 3)"},
           {"no-native", "", "skip the compile-and-run leg"},
           {"use-bytecode", "0|1",
            "transformed leg runs the bytecode engine (default: 1; 0 = tree "
            "walker)"},
           {"out-dir", "DIR", "where repro files are written (default: .)"},
           {"repro", "FILE", "replay a repro file instead of fuzzing"},
           {"trace", "FILE", "stream the structured run trace; - = stdout"},
           {"trace-format", "FMT", "jsonl (default) or chrome"},
           {"metrics", "FILE", "write the final metric registry as JSON"},
       }},
      {"replay", "drive the adaptive policy through deterministic synthetic "
                 "traffic",
       "motune replay [--scenario NAME | --spec FILE] [options]",
       {
           {"scenario", "NAME",
            "built-in scenario: steady, size-ramp, thread-drop, "
            "pressure-burst or mix (default: mix)"},
           {"spec", "FILE", "replay a traffic spec file instead "
                            "(docs/adaptive.md has the grammar)"},
           {"list", "", "print the built-in scenarios and exit"},
           {"seed", "S",
            "seed for traffic noise and exploration (default: the spec's)"},
           {"invocations", "N",
            "rescale the spec to ~N total invocations; 0 = as declared"},
           {"versions", "N", "arms in the synthetic version table "
                             "(default: 6)"},
           {"window", "N", "sliding-window samples per arm (default: 16)"},
           {"epsilon", "X", "exploration rate (default: 0.03)"},
           {"explore", "KIND", "epsilon-greedy (default) or ucb"},
           {"min-dwell", "N",
            "invocations between committed switches (default: 50)"},
           {"switch-margin", "X",
            "relative gain required to switch (default: 0.05)"},
           {"min-ratio", "X",
            "fail (exit 1) when best-static/adaptive falls below X "
            "(default: 0 = report only)"},
           {"log", "FILE", "write the JSONL selection log here"},
           {"metrics", "FILE", "write the final metric registry as JSON"},
       }},
      {"serve", "run the multi-tenant tuning daemon",
       "motune serve --dir STATE [options]",
       {
           {"dir", "STATE",
            "durable state directory; jobs resume from it after a crash "
            "(required)"},
           {"host", "ADDR", "bind address (default: 127.0.0.1)"},
           {"port", "P", "TCP port; 0 = pick an ephemeral port (default: 0)"},
           {"workers", "N", "concurrent tuning jobs (default: 2)"},
           {"queue-capacity", "N",
            "queued jobs admitted before submits are shed (default: 64)"},
           {"job-threads", "N",
            "evaluation workers per job; random search uses them (default: 1)"},
           {"checkpoint-every", "N",
            "generations between job checkpoints (default: 1)"},
           {"retry-after", "S",
            "retry hint returned with queue-full rejections (default: 0.5)"},
           {"stream-buffer", "N",
            "frames buffered per subscribe stream before best-effort "
            "drops (default: 256)"},
       }},
      {"submit", "submit one tuning job to a running daemon",
       "motune submit [--port P] [tune flags] [--priority N] [--wait]",
       withSpecFlags({
           {"host", "ADDR", "daemon address (default: 127.0.0.1)"},
           {"port", "P", "daemon TCP port (required)"},
       }, {
           {"priority", "N",
            "scheduling priority; higher runs first (default: 0)"},
           {"no-cache",
            "", "force a real run even when an identical spec already "
                "finished (skip the daemon's result cache)"},
           {"wait", "", "block until the job finishes and print the front; "
                        "exits 5 if the job failed, 6 if it was cancelled"},
           {"out", "FILE", "with --wait: save the artifact here"},
       })},
      {"jobs", "inspect or control a running daemon",
       "motune jobs [--port P] [--id ID | --result ID | --cancel ID | "
       "--stats | --shutdown]",
       {
           {"host", "ADDR", "daemon address (default: 127.0.0.1)"},
           {"port", "P", "daemon TCP port (required)"},
           {"id", "ID", "show one job instead of the full listing"},
           {"result", "ID", "fetch a finished job's artifact JSON"},
           {"out", "FILE", "with --result: save the artifact here"},
           {"cancel", "ID", "cancel a queued or running job"},
           {"stats", "", "dump the daemon's metrics snapshot as JSON"},
           {"format", "FMT",
            "with --stats: json (default) or prometheus text exposition"},
           {"shutdown", "", "ask the daemon to shut down gracefully"},
       }},
      {"top", "live dashboard of a running daemon",
       "motune top --port P [--interval S] [--iterations N] [--plain]",
       {
           {"host", "ADDR", "daemon address (default: 127.0.0.1)"},
           {"port", "P", "daemon TCP port (required)"},
           {"interval", "S", "refresh period in seconds (default: 1)"},
           {"iterations", "N",
            "stop after N refreshes; 0 = run until interrupted (default: 0)"},
           {"plain", "",
            "append snapshots instead of redrawing the screen (logs, CI)"},
       }},
  };
  return table;
}

int printGlobalHelp() {
  std::cout << "usage: motune COMMAND [options]\n\n"
               "multi-objective auto-tuning for parallel loop nests "
               "(see README.md)\n\ncommands:\n";
  for (const CommandHelp& c : commandHelp()) {
    std::cout << "  ";
    std::cout.width(10);
    std::cout << std::left << c.name;
    std::cout << c.summary << "\n";
  }
  std::cout << "\nrun `motune COMMAND --help` for the options of one "
               "command;\nfull reference: docs/cli.md\n";
  return 0;
}

const CommandHelp* findCommand(const std::string& name) {
  for (const CommandHelp& c : commandHelp())
    if (name == c.name) return &c;
  return nullptr;
}

int printCommandHelp(const std::string& name) {
  const auto printFlag = [](const FlagHelp& f) {
    std::string head = "--" + f.flag;
    if (!f.value.empty()) head += " " + f.value;
    std::cout << "  ";
    std::cout.width(24);
    std::cout << std::left << head;
    std::cout << f.text << "\n";
  };
  const CommandHelp* c = findCommand(name);
  if (c == nullptr) {
    std::cerr << "unknown command: " << name << "\n";
    return 2;
  }
  std::cout << "usage: " << c->usage << "\n\n" << c->summary << "\n";
  if (!c->flags.empty()) {
    // Ungrouped flags lead under "options:"; grouped flags follow under
    // one heading per feature area, in first-appearance order.
    std::cout << "\noptions:\n";
    for (const FlagHelp& f : c->flags)
      if (f.group.empty()) printFlag(f);
    std::vector<std::string> groups;
    for (const FlagHelp& f : c->flags) {
      if (f.group.empty()) continue;
      if (std::find(groups.begin(), groups.end(), f.group) == groups.end())
        groups.push_back(f.group);
    }
    for (const std::string& group : groups) {
      std::cout << "\n" << group << " options:\n";
      for (const FlagHelp& f : c->flags)
        if (group == f.group) printFlag(f);
    }
  }
  return 0;
}

/// Splits argv by the command's help table: unlisted flags are errors and
/// placeholder-less flags take no value (main() reports unknown commands).
Args parseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  const CommandHelp* command = findCommand(args.command);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(2);
    const FlagHelp* flag = nullptr;
    if (command != nullptr)
      for (const FlagHelp& f : command->flags)
        if (f.flag == key) flag = &f;
    MOTUNE_CHECK_MSG(flag != nullptr || key == "help" || command == nullptr,
                     "unknown option --" + key + " for motune " +
                         args.command + " (see motune " + args.command +
                         " --help)");
    if (flag == nullptr || flag->value.empty()) {
      args.options[key] = "1";
      continue;
    }
    MOTUNE_CHECK_MSG(i + 1 < argc, "missing value for --" + key);
    args.options[key] = argv[++i];
  }
  return args;
}

std::vector<std::int64_t> parseIntList(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::optional<std::int64_t> v =
        support::parseNumber<std::int64_t>(item);
    MOTUNE_CHECK_MSG(v.has_value(), "invalid integer list: " + csv);
    out.push_back(*v);
  }
  return out;
}

void printFront(const std::vector<mv::VersionMeta>& front) {
  support::TextTable table;
  table.setHeader({"version", "tiles", "threads", "est. time", "resources",
                   "energy"});
  for (std::size_t v = 0; v < front.size(); ++v) {
    const auto& m = front[v];
    std::string tiles = "(";
    for (std::size_t t = 0; t < m.tileSizes.size(); ++t)
      tiles += (t ? "," : "") + std::to_string(m.tileSizes[t]);
    tiles += ")";
    table.addRow({"v" + std::to_string(v), tiles, std::to_string(m.threads),
                  support::fmtSeconds(m.timeSeconds),
                  support::fmt(m.resources, 3) + " core-s",
                  m.joules > 0 ? support::fmt(m.joules, 1) + " J" : "-"});
  }
  std::cout << table.render();
}

int cmdList() {
  std::cout << "kernels:\n";
  support::TextTable kt;
  kt.setHeader({"name", "compute", "memory", "tile dims", "default N"});
  for (const auto& k : kernels::allKernels())
    kt.addRow({k.name, k.computeComplexity, k.memoryComplexity,
               std::to_string(k.tileDims), std::to_string(k.paperN)});
  std::cout << kt.render() << "\nmachines:\n";
  support::TextTable mt;
  mt.setHeader({"name", "cores", "L3/socket", "GHz"});
  for (const machine::MachineModel& m : machine::allMachines())
    mt.addRow({m.name, std::to_string(m.totalCores()),
               std::to_string(m.caches.back().capacityBytes / 1024 / 1024) +
                   "M",
               support::fmt(m.freqGHz, 1)});
  std::cout << mt.render();
  return 0;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  MOTUNE_CHECK_MSG(in.good(), "cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes `text` to `path` and reports "<what> written to <path>".
void writeFile(const std::string& path, const std::string& text,
               const std::string& what) {
  std::ofstream out(path);
  MOTUNE_CHECK_MSG(out.good(), "cannot write " + path);
  out << text;
  std::cout << what << " written to " << path << "\n";
}

/// Builds a KernelSpec from a textual kernel (see ir/parse.h); the problem
/// size is baked into the source, so buildIR ignores its argument.
kernels::KernelSpec specFromSource(const std::string& path) {
  const std::string source = readFile(path);
  const ir::Program probe = ir::parseProgram(source, path);
  const analyzer::RegionInfo info = analyzer::analyzeRegion(probe);
  MOTUNE_CHECK_MSG(info.tileableDepth >= 1 && info.outerParallelizable,
                   "kernel in " + path + " is not tunable (no parallel "
                   "tileable band)");
  kernels::KernelSpec spec;
  spec.name = path;
  spec.tileDims = info.tileableDepth;
  spec.computeComplexity = "user";
  spec.memoryComplexity = "user";
  spec.paperN = info.bandTrips.front();
  spec.testN = info.bandTrips.front();
  spec.buildIR = [source, path](std::int64_t) {
    return ir::parseProgram(source, path);
  };
  return spec;
}

int cmdAnalyze(const Args& args) {
  MOTUNE_CHECK_MSG(args.has("source"),
                   "usage: motune analyze --source FILE");
  const ir::Program p =
      ir::parseProgram(readFile(args.options.at("source")));
  const auto deps = analyzer::computeDependences(p);
  std::cout << "dependences:\n";
  if (deps->empty()) std::cout << "  (none)\n";
  for (const auto& d : *deps) {
    std::cout << "  " << d.array << ": (";
    for (std::size_t i = 0; i < d.distance.size(); ++i) {
      if (i) std::cout << ", ";
      if (d.distance[i].isExact())
        std::cout << d.distance[i].value;
      else
        std::cout << "*";
    }
    std::cout << ")\n";
  }
  const analyzer::RegionInfo info = analyzer::analyzeRegion(p);
  std::cout << "nest depth " << info.nestDepth << ", tileable band "
            << info.tileableDepth << ", outer parallelizable: "
            << (info.outerParallelizable ? "yes" : "no") << "\n\n"
            << "normalized region:\n"
            << ir::toC(p, /*emitPragmas=*/false);
  return 0;
}

/// Attaches the --trace sink (if requested) to the global tracer; shared by
/// the tune and fuzz commands.
void attachTraceSink(const Args& args) {
  if (!args.has("trace")) return;
  const std::string path = args.options.at("trace");
  const std::string format = args.get("trace-format", "jsonl");
  std::shared_ptr<observe::Sink> sink;
  if (format == "chrome")
    sink = path == "-" ? std::make_shared<observe::ChromeTraceSink>(std::cout)
                       : std::make_shared<observe::ChromeTraceSink>(path);
  else if (format == "jsonl")
    sink = path == "-" ? std::make_shared<observe::JsonLinesSink>(std::cout)
                       : std::make_shared<observe::JsonLinesSink>(path);
  else
    MOTUNE_CHECK_MSG(false, "unknown trace format: " + format +
                                " (available: jsonl, chrome)");
  observe::Tracer::global().addSink(std::move(sink));
}

/// Snapshots metrics into the trace, detaches the sink, and writes the
/// --metrics JSON file when requested.
void finishObservability(const Args& args,
                         observe::MetricsRegistry& metrics) {
  observe::Tracer& tracer = observe::Tracer::global();
  if (args.has("trace")) {
    tracer.snapshotMetrics(metrics);
    tracer.clearSinks();
    if (args.options.at("trace") != "-")
      std::cout << "trace written to " << args.options.at("trace") << "\n";
  }
  if (args.has("metrics"))
    writeFile(args.options.at("metrics"), metrics.toJson().dump(2) + "\n",
              "metrics");
}

/// The validated JobSpec of a tune or submit command line.
serve::JobSpec specFromArgs(const Args& args) {
  serve::JobSpec spec;
  for (const serve::SpecOption& o : serve::specOptions())
    if (args.has(o.flag))
      serve::parseSpecFlag(spec, o, args.options.at(o.flag));
  serve::validateSpec(spec);
  return spec;
}

int cmdTune(const Args& args) {
  const serve::JobSpec spec = specFromArgs(args);
  tuning::KernelTuningProblem problem =
      args.has("source")
          ? tuning::KernelTuningProblem(
                specFromSource(args.options.at("source")),
                machine::machineByName(spec.machine), spec.n, {},
                spec.objectives)
          : serve::problemFromSpec(spec);

  // The spec's options, then the tune-only flags: random search evaluates
  // on every hardware thread, and sessions are explicit (--resume, not
  // auto-detected).
  autotune::TunerOptions options = serve::tunerOptionsFromSpec(spec, "", 1, 1);
  options.evaluationWorkers = 0;
  options.validateFront = args.number<int>("validate", 0, 0, 1) != 0;
  options.session.directory = args.get("resume", args.get("checkpoint", ""));
  options.session.resume = args.has("resume");
  MOTUNE_CHECK_MSG(args.get("checkpoint", options.session.directory) ==
                       options.session.directory,
                   "--checkpoint and --resume point at different directories");
  options.session.checkpointEvery = args.number("checkpoint-every", 1, 1);
  if (args.has("warm-start")) {
    std::stringstream dirs(args.options.at("warm-start"));
    std::string dir;
    while (std::getline(dirs, dir, ','))
      if (!dir.empty()) options.warmStartDirs.push_back(dir);
  }
  options.migrateEvery = args.number("migrate-every", 5, 1);
  options.islandMigrants = args.number<std::size_t>("migrants", 3, 1);
  options.islandIndex = args.number("island-index", -1, 0);
  options.fault.enabled = args.number<int>("fault-tolerant", 0, 0, 1) != 0;
  options.fault.maxRetries = args.number("eval-retries", 2, 0);
  options.fault.timeoutSeconds = args.number("eval-timeout", 0.0, 0.0);
  options.fault.backoffSeconds = args.number("eval-backoff", 0.0, 0.0);
  options.fault.quarantineAfter = args.number("quarantine-after", 3, 0);

  // Observability: fresh per-run metrics, optional JSONL trace. The final
  // metric snapshot is stitched into the trace so one file carries the
  // full run record (per-generation spans + end-of-run counters).
  observe::MetricsRegistry& metrics = observe::MetricsRegistry::global();
  metrics.reset();
  attachTraceSink(args);

  std::cout << "tuning " << problem.kernel().name << " (N="
            << problem.problemSize() << ") on " << problem.machine().name
            << " with " << spec.algorithm << " ...\n";
  autotune::AutoTuner tuner(options);
  const autotune::TuningResult result = tuner.tune(problem);

  finishObservability(args, metrics);

  std::cout << result.evaluations << " evaluations, V(S) = "
            << support::fmt(result.hypervolume, 3) << ", "
            << result.front.size() << " Pareto-optimal versions:\n";
  printFront(result.front);
  if (result.session.has_value())
    std::cout << "session journal " << result.session->journal << " ("
              << result.session->recordedEvaluations << " evaluations, "
              << result.session->checkpoints << " checkpoints, "
              << result.session->resumes << " resumes)\n";

  if (args.has("out")) {
    autotune::saveArtifact(autotune::makeArtifact(result, problem),
                           args.options.at("out"));
    std::cout << "artifact written to " << args.options.at("out") << "\n";
  }
  return 0;
}

int cmdReport(const Args& args) {
  MOTUNE_CHECK_MSG(args.has("trace"), "report needs --trace FILE.jsonl");
  observe::ReportOptions options;
  options.topK = args.number<std::size_t>("top", 10);
  options.stallEpsilon = args.number("stall-epsilon", 0.002, 0.0);
  const auto records =
      observe::parseTraceFile(args.options.at("trace"));
  const observe::Report report = observe::buildReport(records, options);

  const std::string markdown = observe::renderMarkdown(report);
  if (args.has("out"))
    writeFile(args.options.at("out"), markdown, "report");
  else
    std::cout << markdown;
  if (args.has("json"))
    writeFile(args.options.at("json"),
              observe::reportToJson(report).dump(2) + "\n", "json report");
  if (args.number("fail-on-stall", 0, 0, 1) != 0 && report.stall.stalled) {
    std::cerr << "stall detector fired: " << report.stall.verdict << "\n";
    return 3;
  }
  return 0;
}

int cmdShow(const Args& args) {
  MOTUNE_CHECK_MSG(!args.positional.empty(), "usage: motune show FILE");
  const autotune::TunedArtifact a =
      autotune::loadArtifact(args.positional.front());
  std::cout << "kernel " << a.kernel << ", machine " << a.machineName
            << ", N = " << a.problemSize << "\n"
            << a.evaluations << " evaluations, V(S) = "
            << support::fmt(a.hypervolume, 3)
            << ", untiled serial baseline "
            << support::fmtSeconds(a.untiledSerialSeconds) << "\n";
  if (a.session.has_value())
    std::cout << "session: " << a.session->journal << " ("
              << a.session->checkpoints << " checkpoints, "
              << a.session->resumes << " resumes)\n";
  printFront(a.front);
  return 0;
}

int cmdCodegen(const Args& args) {
  MOTUNE_CHECK_MSG(!args.positional.empty(),
                   "usage: motune codegen FILE [--out FILE.c]");
  const autotune::TunedArtifact a =
      autotune::loadArtifact(args.positional.front());
  std::string machineName = a.machineName; // "Westmere" -> "westmere"
  std::transform(machineName.begin(), machineName.end(), machineName.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  tuning::KernelTuningProblem problem(kernels::kernelByName(a.kernel),
                                      machine::machineByName(machineName),
                                      a.problemSize);
  autotune::TuningResult result;
  result.front = a.front;
  const std::string module = autotune::emitMultiVersionedC(result, problem);
  if (args.has("out"))
    writeFile(args.options.at("out"), module,
              std::to_string(module.size()) + " bytes");
  else
    std::cout << module;
  return 0;
}

int cmdPredict(const Args& args) {
  const auto& spec = kernels::kernelByName(args.get("kernel", "mm"));
  const machine::MachineModel& machine =
      machine::machineByName(args.get("machine", "westmere"));
  tuning::KernelTuningProblem problem(spec, machine,
                                      args.number<std::int64_t>("n", 0, 0));

  MOTUNE_CHECK_MSG(args.has("tiles") && args.has("threads"),
                   "predict needs --tiles t1,t2[,t3] and --threads P");
  tuning::Config config = parseIntList(args.options.at("tiles"));
  config.push_back(args.number<std::int64_t>("threads", 1, 1));

  const perf::Prediction p = problem.predictFull(config);
  support::TextTable table("prediction for " + spec.name + " on " +
                           machine.name);
  table.setHeader({"metric", "value"});
  table.addRow({"wall time", support::fmtSeconds(p.seconds)});
  table.addRow({"resources", support::fmt(p.resources, 3) + " core-s"});
  table.addRow({"energy", support::fmt(p.joules, 1) + " J"});
  table.addRow({"compute", support::fmtSeconds(p.computeSeconds)});
  table.addRow({"memory", support::fmtSeconds(p.memorySeconds)});
  table.addRow({"bandwidth bound", support::fmtSeconds(p.bandwidthSeconds)});
  table.addRow({"imbalance", support::fmt(p.imbalance, 3)});
  table.addRow({"DRAM traffic",
                support::fmt(p.trafficBytes.back() / 1e6, 1) + " MB"});
  std::cout << table.render();
  return 0;
}

int cmdFuzz(const Args& args) {
  observe::MetricsRegistry& metrics = observe::MetricsRegistry::global();
  metrics.reset();
  attachTraceSink(args);

  verify::OracleOptions oracle;
  oracle.runNative = !args.has("no-native");
  oracle.useBytecode = args.number("use-bytecode", 1, 0, 1) != 0;
  if (oracle.runNative && verify::hostCompiler().empty()) {
    std::cout << "no host C compiler found; falling back to --no-native\n";
    oracle.runNative = false;
  }

  if (args.has("repro")) {
    const verify::FuzzCase c =
        verify::parseRepro(readFile(args.options.at("repro")));
    std::cout << "replaying " << args.options.at("repro") << " ("
              << c.steps.size() << " transform step"
              << (c.steps.size() == 1 ? "" : "s") << ")\n";
    for (const auto& step : c.steps) std::cout << "  " << step.str() << "\n";
    const verify::OracleVerdict verdict = verify::replayRepro(c, oracle);
    finishObservability(args, metrics);
    std::cout << verdict.describe() << "\n";
    return verdict.agree ? 0 : 1;
  }

  verify::FuzzOptions options;
  options.seed = args.number<std::uint64_t>("seed", 1);
  options.iters = args.number<std::uint64_t>("iters", 1000);
  options.timeBudgetSeconds = args.number("time-budget", 0.0, 0.0);
  options.sampler.maxSteps = args.number("max-steps", 3, 1);
  options.outDir = args.get("out-dir", ".");
  options.oracle = oracle;

  std::cout << "fuzzing: seed " << options.seed << ", up to " << options.iters
            << " iterations"
            << (options.timeBudgetSeconds > 0
                    ? ", " + args.get("time-budget", "0") + "s budget"
                    : std::string())
            << (oracle.runNative ? "" : ", interpreter-only") << " ...\n";
  const verify::FuzzReport report = verify::runFuzz(options);
  finishObservability(args, metrics);

  std::cout << report.iterations << " iterations: " << report.programs
            << " programs, " << report.comparisons << " oracle comparisons ("
            << report.nativeRuns << " native), " << report.rejectedDraws
            << " rejected transform draws\n";
  if (!report.failed) {
    std::cout << "no disagreements found\n";
    return 0;
  }
  std::cerr << "DISAGREEMENT at iteration " << report.failingIteration << ": "
            << report.detail << "\n";
  if (report.minimized) {
    std::cerr << "minimized to " << report.minimized->steps.size()
              << " transform step"
              << (report.minimized->steps.size() == 1 ? "" : "s") << ":\n"
              << verify::serializeRepro(*report.minimized, options.seed,
                                        report.failingIteration);
  }
  if (!report.reproPath.empty())
    std::cerr << "repro written to " << report.reproPath << " (replay with "
              << "`motune fuzz --repro " << report.reproPath << "`)\n";
  return 1;
}

// ---------------------------------------------------------------------------
// Deterministic traffic replay through the adaptive policy
// (docs/adaptive.md).

int cmdReplay(const Args& args) {
  if (args.has("list")) {
    for (const auto& name : runtime::builtinScenarioNames())
      std::cout << name << "\n";
    return 0;
  }

  observe::MetricsRegistry& metrics = observe::MetricsRegistry::global();
  metrics.reset();

  runtime::TrafficSpec spec;
  std::string scenario;
  if (args.has("spec")) {
    MOTUNE_CHECK_MSG(!args.has("scenario"),
                     "--spec and --scenario are mutually exclusive");
    scenario = args.options.at("spec");
    spec = runtime::parseTrafficSpec(readFile(scenario));
    spec.seed = args.number<std::uint64_t>("seed", spec.seed);
  } else {
    scenario = args.get("scenario", "mix");
    spec = runtime::builtinScenario(scenario,
                                    args.number<std::uint64_t>("seed", 1));
  }
  const auto rescale = args.number<std::uint64_t>("invocations", 0);
  if (rescale > 0) spec.scaleTo(rescale);

  const auto versions = args.number<std::size_t>("versions", 6, 1);
  const mv::VersionTable table =
      runtime::syntheticTable(versions, spec.seed, spec.defaultThreads);

  runtime::AdaptiveOptions options;
  options.seed = spec.seed;
  options.window = args.number<std::size_t>("window", 16, 1);
  options.epsilon = args.number("epsilon", 0.03, 0.0, 1.0);
  options.minDwell = args.number<std::size_t>("min-dwell", 50);
  options.switchMargin = args.number("switch-margin", 0.05, 0.0);
  const std::string explore = args.get("explore", "epsilon-greedy");
  if (explore == "ucb")
    options.explore = runtime::ExploreKind::Ucb;
  else
    MOTUNE_CHECK_MSG(explore == "epsilon-greedy",
                     "unknown --explore: " + explore +
                         " (available: epsilon-greedy, ucb)");
  runtime::AdaptivePolicy policy(options);

  runtime::ReplayOptions replay;
  replay.scenario = scenario;
  std::ofstream logFile;
  if (args.has("log")) {
    logFile.open(args.options.at("log"));
    MOTUNE_CHECK_MSG(logFile.good(),
                     "cannot write " + args.options.at("log"));
    replay.log = &logFile;
  }

  const runtime::ReplayOutcome outcome =
      runtime::replayTraffic(spec, table, policy, replay);

  support::TextTable phaseTable("replay of " + scenario + " (seed " +
                                std::to_string(spec.seed) + ", " +
                                std::to_string(versions) + " versions)");
  phaseTable.setHeader({"phase", "invocations", "best static", "static cost",
                        "adaptive cost", "ratio", "switches"});
  for (const auto& phase : outcome.phases) {
    const double ratio = phase.adaptiveCost > 0
                             ? phase.bestStaticCost / phase.adaptiveCost
                             : 1.0;
    phaseTable.addRow({phase.name, std::to_string(phase.invocations),
                       "v" + std::to_string(phase.bestStaticArm),
                       support::fmt(phase.bestStaticCost, 3),
                       support::fmt(phase.adaptiveCost, 3),
                       support::fmt(ratio, 3),
                       std::to_string(phase.switches)});
  }
  std::cout << phaseTable.render();

  std::cout << outcome.invocations << " invocations: convergence ratio "
            << support::fmt(outcome.convergenceRatio(), 3) << " (oracle bill "
            << support::fmt(outcome.oracleCost, 3) << "), "
            << outcome.switches << " switches, " << outcome.explorations
            << " explorations, " << outcome.contextShifts
            << " context shifts\n";
  std::cout << "selections:";
  for (std::size_t i = 0; i < outcome.selectionCounts.size(); ++i)
    std::cout << " v" << i << "=" << outcome.selectionCounts[i];
  std::cout << "\n";
  if (args.has("log"))
    std::cout << "selection log written to " << args.options.at("log")
              << "\n";

  finishObservability(args, metrics);

  const double minRatio = args.number("min-ratio", 0.0, 0.0);
  if (outcome.convergenceRatio() < minRatio) {
    std::cerr << "FAIL: convergence ratio "
              << support::fmt(outcome.convergenceRatio(), 3) << " < "
              << support::fmt(minRatio, 3) << "\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The tuning daemon (docs/serve.md).

std::atomic<bool> g_interrupted{false};
void onSignal(int) { g_interrupted.store(true); }

int cmdServe(const Args& args) {
  MOTUNE_CHECK_MSG(args.has("dir"), "serve needs --dir STATE");
  serve::DaemonOptions options;
  options.stateDir = args.options.at("dir");
  options.host = args.get("host", "127.0.0.1");
  options.port = args.number("port", 0, 0, 65535);
  options.scheduler.workers = args.number<unsigned>("workers", 2, 1);
  options.scheduler.queueCapacity =
      args.number<std::size_t>("queue-capacity", 64);
  options.scheduler.jobThreads = args.number<unsigned>("job-threads", 1);
  options.scheduler.checkpointEvery = args.number("checkpoint-every", 1, 1);
  options.scheduler.retryAfterSeconds = args.number("retry-after", 0.5, 0.0);
  options.streamBufferFrames = args.number<std::size_t>("stream-buffer", 256);

  serve::Daemon daemon(options);
  daemon.start();
  std::cout << "motune daemon on " << options.host << ":" << daemon.port()
            << ", state dir " << options.stateDir << ", "
            << options.scheduler.workers << " worker"
            << (options.scheduler.workers == 1 ? "" : "s") << "\n"
            << std::flush;

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  while (!daemon.waitForShutdown(0.1))
    if (g_interrupted.load()) break;
  std::cout << "shutting down (running jobs finish first) ...\n";
  daemon.stop();
  return 0;
}

int cmdSubmit(const Args& args) {
  MOTUNE_CHECK_MSG(args.has("port"), "submit needs --port P");
  const serve::JobSpec spec = specFromArgs(args);
  const int priority = args.number("priority", 0);
  serve::Client client(args.get("host", "127.0.0.1"),
                       args.number("port", 0, 1, 65535));
  const serve::SubmitOutcome outcome =
      client.submit(spec, priority, args.has("no-cache"));
  if (!outcome.accepted) {
    std::cerr << "rejected: " << outcome.error;
    if (outcome.retryAfterSeconds > 0)
      std::cerr << " (retry after " << outcome.retryAfterSeconds << "s)";
    std::cerr << "\n";
    return 4; // distinct exit code: backpressure, not an error in the spec
  }
  std::cout << outcome.id << "\n";
  if (outcome.cached)
    std::cerr << "cached: identical spec already finished as " << outcome.id
              << "\n";
  if (!args.has("wait")) return 0;

  const serve::JobInfo info = client.await(outcome.id);
  if (info.state == serve::JobState::Failed) {
    std::cerr << "job " << info.id << " failed: " << info.error << "\n";
    return 5; // distinct from transport errors (1) and backpressure (4)
  }
  if (info.state == serve::JobState::Cancelled) {
    std::cerr << "job " << info.id << " was cancelled\n";
    return 6;
  }
  std::cout << info.evaluations << " evaluations, V(S) = "
            << support::fmt(info.hypervolume, 3) << ", " << info.frontSize
            << " Pareto-optimal versions ("
            << support::fmt(info.runSeconds, 2) << "s run)\n";
  if (args.has("out"))
    writeFile(args.options.at("out"), client.result(info.id).dump(2) + "\n",
              "artifact");
  return 0;
}

int cmdJobs(const Args& args) {
  MOTUNE_CHECK_MSG(args.has("port"), "jobs needs --port P");
  serve::Client client(args.get("host", "127.0.0.1"),
                       args.number("port", 0, 1, 65535));

  if (args.has("shutdown")) {
    client.shutdown();
    std::cout << "shutdown requested\n";
    return 0;
  }
  if (args.has("stats")) {
    const std::string format = args.get("format", "json");
    if (format == "prometheus") {
      std::cout << client.statsPrometheus();
    } else {
      MOTUNE_CHECK_MSG(format == "json", "unknown stats format: " + format +
                                             " (available: json, prometheus)");
      std::cout << client.stats().dump(2) << "\n";
    }
    return 0;
  }
  if (args.has("cancel")) {
    std::cout << client.cancel(args.options.at("cancel")) << "\n";
    return 0;
  }
  if (args.has("result")) {
    const support::Json artifact = client.result(args.options.at("result"));
    if (args.has("out"))
      writeFile(args.options.at("out"), artifact.dump(2) + "\n", "artifact");
    else
      std::cout << artifact.dump(2) << "\n";
    return 0;
  }

  const std::vector<serve::JobInfo> jobs =
      args.has("id") ? std::vector<serve::JobInfo>{client.status(
                           args.options.at("id"))}
                     : client.list();
  support::TextTable table;
  table.setHeader({"id", "state", "kernel", "n", "algorithm", "seed", "prio",
                   "queue", "run", "evals", "V(S)"});
  for (const serve::JobInfo& job : jobs) {
    const bool done = job.state == serve::JobState::Done;
    table.addRow({job.id, serve::jobStateName(job.state), job.spec.kernel,
                  std::to_string(job.spec.n), job.spec.algorithm,
                  std::to_string(job.spec.seed),
                  std::to_string(job.priority),
                  support::fmt(job.queueSeconds, 2) + "s",
                  support::fmt(job.runSeconds, 2) + "s",
                  done ? std::to_string(job.evaluations) : "-",
                  done ? support::fmt(job.hypervolume, 3) : "-"});
  }
  std::cout << table.render();
  for (const serve::JobInfo& job : jobs)
    if (job.state == serve::JobState::Failed)
      std::cout << job.id << " error: " << job.error << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// motune top: a refreshing dashboard over the subscribe stream.

/// Last `width` samples rendered as a unicode sparkline, scaled to the
/// window's own min/max (a flat window renders as all-low).
std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* const levels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇",
                                       "█"};
  if (values.empty()) return "";
  const std::size_t start = values.size() > width ? values.size() - width : 0;
  double lo = values[start], hi = values[start];
  for (std::size_t i = start; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (std::size_t i = start; i < values.size(); ++i) {
    int idx = 0;
    if (hi > lo)
      idx = static_cast<int>((values[i] - lo) / (hi - lo) * 7.0 + 0.5);
    out += levels[idx];
  }
  return out;
}

/// What the watcher threads learn about one job from its subscribe stream.
struct TopJobLive {
  std::vector<double> hv; ///< hypervolume per progress frame
  int generation = -1;
  std::uint64_t evaluations = 0;
  std::uint64_t dropped = 0;
  bool ended = false;
  std::string endState;
};

int cmdTop(const Args& args) {
  MOTUNE_CHECK_MSG(args.has("port"), "top needs --port P");
  const std::string host = args.get("host", "127.0.0.1");
  const int port = args.number("port", 0, 1, 65535);
  const double interval = args.number("interval", 1.0, 1e-3);
  const long iterations = args.number("iterations", 0L, 0L);
  const bool plain = args.has("plain");

  serve::Client poll(host, port);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // One watcher thread (and connection) per non-terminal job: it holds the
  // subscribe stream and folds progress frames into `live`. The polling
  // connection only fetches list/stats snapshots for the frame.
  std::mutex liveMutex;
  std::map<std::string, TopJobLive> live;
  std::vector<std::thread> watchers;
  std::vector<std::shared_ptr<serve::Client>> watcherClients;
  std::map<std::string, bool> watched;

  auto spawnWatcher = [&](const std::string& id) {
    auto sub = std::make_shared<serve::Client>(host, port);
    watcherClients.push_back(sub);
    watchers.emplace_back([sub, id, &liveMutex, &live] {
      try {
        const serve::StreamEnd end =
            sub->subscribe(id, [&](const support::Json& frame) {
              if (!frame.has("stream") ||
                  frame.at("stream").asString() != "progress")
                return;
              std::lock_guard lock(liveMutex);
              TopJobLive& j = live[id];
              j.hv.push_back(frame.at("hypervolume").asNumber());
              j.generation =
                  static_cast<int>(frame.at("generation").asInt());
              j.evaluations =
                  std::stoull(frame.at("evaluations").asString());
            });
        std::lock_guard lock(liveMutex);
        live[id].ended = true;
        live[id].endState = end.state;
        live[id].dropped = end.dropped;
      } catch (const std::exception&) {
        std::lock_guard lock(liveMutex);
        live[id].ended = true; // daemon gone or teardown
      }
    });
  };

  long tick = 0;
  bool daemonGone = false;
  while (!g_interrupted.load() && (iterations <= 0 || tick < iterations)) {
    support::Json stats;
    std::vector<serve::JobInfo> jobs;
    try {
      stats = poll.stats();
      jobs = poll.list();
    } catch (const std::exception&) {
      daemonGone = true;
      break;
    }
    for (const serve::JobInfo& job : jobs) {
      const bool terminal = job.state == serve::JobState::Done ||
                            job.state == serve::JobState::Failed ||
                            job.state == serve::JobState::Cancelled;
      if (!terminal && !watched[job.id]) {
        watched[job.id] = true;
        spawnWatcher(job.id);
      }
    }

    std::ostringstream frame;
    frame << "motune top — " << host << ":" << port << "   queue "
          << stats.at("queue_depth").asInt() << "/"
          << stats.at("queue_capacity").asInt() << "   active "
          << stats.at("active_jobs").asInt() << "/"
          << stats.at("workers").asInt() << "   done "
          << stats.at("completed").asString() << "   failed "
          << stats.at("failed").asString() << "   cancelled "
          << stats.at("cancelled").asString() << "   shed "
          << stats.at("admission_rejects").asString() << "\n"
          << "run seconds p50 "
          << support::fmt(stats.at("run_seconds").at("p50").asNumber(), 3)
          << "  p99 "
          << support::fmt(stats.at("run_seconds").at("p99").asNumber(), 3)
          << "   queue seconds p50 "
          << support::fmt(stats.at("queue_seconds").at("p50").asNumber(), 3)
          << "  p99 "
          << support::fmt(stats.at("queue_seconds").at("p99").asNumber(), 3)
          << "\n";
    support::TextTable table;
    table.setHeader({"id", "state", "kernel", "algorithm", "gen", "evals",
                     "V(S)", "drops", "trend"});
    {
      std::lock_guard lock(liveMutex);
      for (const serve::JobInfo& job : jobs) {
        const TopJobLive& l = live[job.id];
        const double hv = !l.hv.empty() ? l.hv.back() : job.hypervolume;
        const std::uint64_t evals =
            l.evaluations != 0 ? l.evaluations : job.evaluations;
        table.addRow(
            {job.id, serve::jobStateName(job.state), job.spec.kernel,
             job.spec.algorithm,
             l.generation >= 0 ? std::to_string(l.generation) : "-",
             evals != 0 ? std::to_string(evals) : "-",
             hv != 0.0 ? support::fmt(hv, 3) : "-",
             l.dropped != 0 ? std::to_string(l.dropped) : "-",
             sparkline(l.hv, 32)});
      }
    }
    frame << table.render();
    if (!plain) std::cout << "\x1b[H\x1b[2J";
    std::cout << frame.str() << std::flush;
    if (plain) std::cout << "\n";

    ++tick;
    if (iterations > 0 && tick >= iterations) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }

  // Teardown: half-close the watcher sockets so blocked subscribe() calls
  // error out, then join.
  for (const auto& client : watcherClients) client->shutdownConnection();
  for (std::thread& t : watchers)
    if (t.joinable()) t.join();
  if (daemonGone) {
    std::cerr << "daemon is gone\n";
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    if (args.command.empty() || args.command == "help" ||
        args.command == "--help" || args.command == "-h") {
      if (args.command == "help" && !args.positional.empty())
        return printCommandHelp(args.positional.front());
      printGlobalHelp();
      return args.command.empty() ? 1 : 0;
    }
    if (args.has("help")) return printCommandHelp(args.command);
    if (args.command == "list") return cmdList();
    if (args.command == "tune") return cmdTune(args);
    if (args.command == "report") return cmdReport(args);
    if (args.command == "analyze") return cmdAnalyze(args);
    if (args.command == "show") return cmdShow(args);
    if (args.command == "codegen") return cmdCodegen(args);
    if (args.command == "predict") return cmdPredict(args);
    if (args.command == "fuzz") return cmdFuzz(args);
    if (args.command == "replay") return cmdReplay(args);
    if (args.command == "serve") return cmdServe(args);
    if (args.command == "submit") return cmdSubmit(args);
    if (args.command == "jobs") return cmdJobs(args);
    if (args.command == "top") return cmdTop(args);
    std::cerr << "unknown command: " << args.command << "\n";
    printGlobalHelp();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
