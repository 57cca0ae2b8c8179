// Structured tracing for the tuning pipeline.
//
// The paper's headline results are trajectories — hypervolume per
// generation, evaluation counts (Table VI), runtime version-selection
// decisions — so the pipeline emits them as structured records instead of
// computing them internally and throwing them away. A Tracer produces
// spans (named, timed, nested, attributed) and events (instantaneous);
// pluggable Sinks consume the records: JSON-lines for machines (CI
// regression gates, dashboards), a summary table for humans, an in-memory
// buffer for tests.
//
// Overhead discipline: a Tracer with no sinks is disabled; span()/event()
// then cost one relaxed atomic load and produce nothing. Instrumented code
// therefore calls the process-wide Tracer::global() unconditionally.
#pragma once

#include "support/files.h"
#include "support/json.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace motune::observe {

class MetricsRegistry;

/// Small sequential id of the calling OS thread (1 = first thread that
/// asked). Shared by spans, events and the runtime ring buffers so every
/// trace record can be attributed to a worker.
std::uint32_t currentThreadId();

/// One trace record. Spans carry a duration and an id/parent pair encoding
/// nesting; events are instantaneous; metric kinds are registry snapshots
/// stitched into the trace at flush time.
struct TraceRecord {
  enum class Kind { Span, Event, Counter, Gauge, Histogram };

  Kind kind = Kind::Event;
  std::string name;
  std::uint64_t id = 0;     ///< span id (0 for non-spans)
  std::uint64_t parent = 0; ///< enclosing span id (0 = root)
  std::uint32_t tid = 0;    ///< emitting thread (currentThreadId())
  double start = 0.0;       ///< seconds since the tracer's epoch
  double duration = 0.0;    ///< span duration in seconds (0 otherwise)
  support::JsonObject attrs;

  /// JSONL line payload: {"type":..,"name":..,"t":..,...,"attrs":{..}}.
  support::Json toJson() const;
  static const char* kindName(Kind kind);
};

/// Attributes a tracer merges into every record it emits (Tracer::setStamp),
/// each kept with its `"key":value` JSON text, encoded once.
class TraceStamp {
public:
  struct Member {
    std::string key;
    support::Json value;
    std::string text; ///< `"key":value` as Json::dump(-1) writes it
  };

  TraceStamp() = default;
  explicit TraceStamp(const support::JsonObject& attrs);

  bool empty() const { return members_.empty(); }
  const std::vector<Member>& members() const { return members_; } ///< key order

  /// `record` with the stamp merged into its attrs; record-local keys win.
  TraceRecord applyTo(const TraceRecord& record) const;

private:
  std::vector<Member> members_;
};

/// Consumer of trace records. Implementations must tolerate concurrent
/// write() calls being serialized by the Tracer (the Tracer holds its sink
/// lock around write), i.e. they need no locking of their own for that.
/// A record arrives unstamped, with its tracer's stamp beside it: a sink
/// that keeps or renders the record merges them (TraceStamp::applyTo).
class Sink {
public:
  virtual ~Sink() = default;
  virtual void write(const TraceRecord& record, const TraceStamp& stamp) = 0;
  virtual void flush() {}
};

/// Machine-readable backend: one compact JSON object per line, the bytes
/// of the stamped record's toJson().dump(-1), encoded straight into text
/// without building the tree. A stream gets each line as it is written; a
/// file gets them in one write on flush() and whenever 8 KiB are pending,
/// so a kill loses at most that much of the trace.
class JsonLinesSink final : public Sink {
public:
  /// Files go through support::JsonlWriter and are created if missing;
  /// Append keeps a previous run's records (daemon restarts after SIGKILL).
  enum class Mode { Truncate, Append };

  explicit JsonLinesSink(std::ostream& out); ///< not owned
  explicit JsonLinesSink(const std::string& path,
                         Mode mode = Mode::Truncate);
  ~JsonLinesSink() override;
  void write(const TraceRecord& record, const TraceStamp& stamp) override;
  void flush() override;

private:
  std::ostream* out_ = nullptr;                ///< stream mode
  std::unique_ptr<support::JsonlWriter> file_; ///< file mode
  std::string pending_;                        ///< lines not yet handed over
};

/// Human-readable backend: buffers records and renders a support::TextTable
/// on flush (spans with timing, then metric snapshots).
class TableSink final : public Sink {
public:
  explicit TableSink(std::ostream& out) : out_(&out) {}
  void write(const TraceRecord& record, const TraceStamp& stamp) override;
  void flush() override;

private:
  std::ostream* out_;
  std::vector<TraceRecord> records_;
};

/// Chrome trace-event sink: emits the JSON array format understood by
/// Perfetto / chrome://tracing. Spans become complete events (`ph:"X"`,
/// microsecond timestamps), events become instants (`ph:"i"`), counters
/// and gauges become counter samples (`ph:"C"`); every event carries
/// pid/tid. The closing `]` is written on destruction (Tracer::clearSinks
/// drops the sink); the array format tolerates a truncated tail, so a
/// crashed run still loads.
class ChromeTraceSink final : public Sink {
public:
  explicit ChromeTraceSink(std::ostream& out); ///< not owned
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;
  void write(const TraceRecord& record, const TraceStamp& stamp) override;
  void flush() override;

private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_;
  bool first_ = true;
};

/// Test/introspection backend: keeps every record.
class MemorySink final : public Sink {
public:
  void write(const TraceRecord& record, const TraceStamp& stamp) override;
  std::vector<TraceRecord> records() const;
  void clear();

private:
  mutable std::mutex mutex_;
  std::vector<TraceRecord> records_;
};

class Tracer;

/// RAII handle for an in-flight span. Inactive (default-constructed or
/// produced by a disabled tracer) handles no-op. End on the thread that
/// started the span — nesting is tracked per thread.
class Span {
public:
  Span() = default;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  bool active() const { return tracer_ != nullptr; }
  std::uint64_t id() const { return record_.id; }

  /// Attaches/overwrites an attribute; recorded when the span ends.
  void setAttr(const std::string& key, support::Json value);

  /// Ends the span now (destructor otherwise ends it).
  void end();

private:
  friend class Tracer;
  Span(Tracer* tracer, std::string name, support::JsonObject attrs);

  Tracer* tracer_ = nullptr;
  TraceRecord record_;
};

/// Thread-safe span/event producer. Disabled until a sink is attached.
///
/// Clock discipline: all timestamps are steady_clock seconds since the
/// tracer's epoch (construction time), so spans never go backwards. The
/// wall-clock anchor is recorded exactly once per sink as a `trace.header`
/// event (attr `wall_epoch_unix`), letting consumers print absolute times.
class Tracer {
public:
  Tracer();

  void addSink(std::shared_ptr<Sink> sink);
  /// Flushes and detaches all sinks (tracer becomes disabled again).
  void clearSinks();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span; the returned handle records nesting for this thread.
  Span span(std::string name, support::JsonObject attrs = {});

  /// Emits an instantaneous event under the current thread's span.
  void event(std::string name, support::JsonObject attrs = {});

  /// Emits a pre-built record verbatim (ring-buffer drains, adapters).
  void emitRecord(const TraceRecord& record);

  /// Hands the tracer a fresh span id (ring drains synthesize spans).
  std::uint64_t allocateId() {
    return nextId_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Starts span-id allocation at `base`. Per-job tracers seed a disjoint
  /// id range (job number in the high bits) so ids never collide across
  /// concurrent jobs or across the runs of one resumed job.
  void seedIds(std::uint64_t base) {
    nextId_.store(base, std::memory_order_relaxed);
  }

  /// Attributes merged into every record this tracer emits (job id, run
  /// sequence). Set before attaching sinks; record-local keys win.
  void setStamp(const support::JsonObject& stamp);

  /// Stitches a snapshot of every registry instrument into the trace as
  /// Counter/Gauge/Histogram records (run-level totals at end of run).
  void snapshotMetrics(const MetricsRegistry& registry);

  /// Drains the runtime ring buffers into the sinks, then flushes them.
  void flush();

  /// Seconds since this tracer's epoch (construction time).
  double now() const;

  /// Tracer the pipeline instrumentation reports to: the thread's
  /// ScopedTracer override when one is installed (per-job tracing in the
  /// daemon), otherwise the process-wide tracer.
  static Tracer& global();

  /// The process-wide tracer itself, ignoring thread overrides. Owns the
  /// runtime event rings; the CLI attaches `--trace` sinks here.
  static Tracer& process();

private:
  friend class Span;
  void endSpan(Span& span);
  void emit(const TraceRecord& record);
  void drainRuntimeEvents();
  std::uint64_t currentParent() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> nextId_{1};
  std::chrono::steady_clock::time_point epoch_;
  double wallEpochUnix_ = 0.0; ///< system_clock anchor, captured once
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Sink>> sinks_;
  TraceStamp stamp_; ///< handed to the sinks with every record (setStamp)
};

/// RAII thread-local tracer override: while alive, Tracer::global() on this
/// thread resolves to `tracer`. The daemon installs one per job worker so
/// all instrumentation below (autotuner, evaluator, search engines) lands
/// in the job's trace; ThreadPool::submit propagates the override into pool
/// threads so parallel evaluations are captured too.
class ScopedTracer {
public:
  explicit ScopedTracer(Tracer* tracer);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

  /// The calling thread's active override (nullptr when none).
  static Tracer* current();

private:
  Tracer* previous_;
};

} // namespace motune::observe
