#include "observe/trace.h"

#include "observe/metrics.h"
#include "observe/ring.h"
#include "support/check.h"
#include "support/table.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>

namespace motune::observe {

namespace {

/// Per-thread stack of open spans: (tracer, span id). Nesting is resolved
/// against the nearest open span of the SAME tracer, so independent tracers
/// (tests) sharing a thread do not adopt each other's spans.
struct OpenSpan {
  const Tracer* tracer;
  std::uint64_t id;
};
thread_local std::vector<OpenSpan> tlsSpanStack;

/// Active per-thread tracer override (see ScopedTracer).
thread_local Tracer* tlsTracerOverride = nullptr;

std::atomic<std::uint32_t> nextThreadId{1};

} // namespace

std::uint32_t currentThreadId() {
  thread_local const std::uint32_t tid =
      nextThreadId.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// ---------------------------------------------------------------- records

const char* TraceRecord::kindName(Kind kind) {
  switch (kind) {
  case Kind::Span: return "span";
  case Kind::Event: return "event";
  case Kind::Counter: return "counter";
  case Kind::Gauge: return "gauge";
  case Kind::Histogram: return "histogram";
  }
  return "unknown";
}

support::Json TraceRecord::toJson() const {
  support::JsonObject obj;
  obj["type"] = kindName(kind);
  obj["name"] = name;
  obj["t"] = start;
  if (tid != 0) obj["tid"] = static_cast<std::uint64_t>(tid);
  if (kind == Kind::Span) {
    obj["id"] = id;
    obj["parent"] = parent;
    obj["dur"] = duration;
  }
  if (!attrs.empty()) obj["attrs"] = support::Json(attrs);
  return support::Json(std::move(obj));
}

TraceStamp::TraceStamp(const support::JsonObject& attrs) {
  members_.reserve(attrs.size());
  for (const auto& [key, value] : attrs) {
    Member member{key, value, {}};
    support::stringTo(key, member.text);
    member.text += ':';
    value.appendTo(member.text);
    members_.push_back(std::move(member));
  }
}

TraceRecord TraceStamp::applyTo(const TraceRecord& record) const {
  TraceRecord stamped = record;
  for (const Member& member : members_)
    stamped.attrs.emplace(member.key, member.value); // record-local keys win
  return stamped;
}

namespace {

/// Appends stamp.applyTo(record).toJson().dump(-1) and a newline without
/// building either: the stamp's members are merged into the attrs in key
/// order, and the record's keys are written in the sorted order dump(-1)
/// writes (attrs, dur, id, name, parent, t, tid, type), numbers through
/// support::numberTo as dump() writes them.
void encodeLine(const TraceRecord& record, const TraceStamp& stamp,
                std::string& out) {
  out += '{';
  const auto& members = stamp.members();
  if (!record.attrs.empty() || !members.empty()) {
    out += R"("attrs":{)";
    auto attr = record.attrs.begin();
    auto member = members.begin();
    const char* separator = "";
    while (attr != record.attrs.end() || member != members.end()) {
      out += separator;
      separator = ",";
      if (member == members.end() ||
          (attr != record.attrs.end() && attr->first <= member->key)) {
        if (member != members.end() && attr->first == member->key)
          ++member; // the record's own key wins
        support::stringTo(attr->first, out);
        out += ':';
        attr->second.appendTo(out);
        ++attr;
      } else {
        out += (member++)->text;
      }
    }
    out += "},";
  }
  const bool span = record.kind == TraceRecord::Kind::Span;
  if (span) {
    out += R"("dur":)";
    support::numberTo(record.duration, out);
    out += R"(,"id":)";
    support::numberTo(static_cast<double>(record.id), out);
    out += ',';
  }
  out += R"("name":)";
  support::stringTo(record.name, out);
  if (span) {
    out += R"(,"parent":)";
    support::numberTo(static_cast<double>(record.parent), out);
  }
  out += R"(,"t":)";
  support::numberTo(record.start, out);
  if (record.tid != 0) {
    out += R"(,"tid":)";
    support::numberTo(static_cast<double>(record.tid), out);
  }
  out += R"(,"type":")";
  out += TraceRecord::kindName(record.kind);
  out += "\"}\n";
}

} // namespace

// ------------------------------------------------------------------ sinks

JsonLinesSink::JsonLinesSink(std::ostream& out) : out_(&out) {}

JsonLinesSink::JsonLinesSink(const std::string& path, Mode mode) {
  namespace fs = std::filesystem;
  if (mode == Mode::Truncate && fs::is_regular_file(path))
    fs::resize_file(path, 0);
  file_ = std::make_unique<support::JsonlWriter>(
      path, fs::exists(path) ? support::JsonlWriter::Mode::Append
                             : support::JsonlWriter::Mode::Truncate);
}

JsonLinesSink::~JsonLinesSink() {
  if (!file_) return; // a borrowed stream may already be gone
  try {
    flush();
  } catch (const std::exception& e) { // a destructor must not throw
    std::cerr << "trace tail lost: " << e.what() << "\n";
  }
}

void JsonLinesSink::write(const TraceRecord& record, const TraceStamp& stamp) {
  encodeLine(record, stamp, pending_);
  if (!file_) {
    *out_ << pending_;
    pending_.clear();
  } else if (pending_.size() >= 8 << 10) {
    flush();
  }
}

void JsonLinesSink::flush() {
  if (!file_) {
    out_->flush();
  } else if (!pending_.empty()) {
    file_->writeLines(pending_, std::ranges::count(pending_, '\n'));
    pending_.clear();
  }
}

ChromeTraceSink::ChromeTraceSink(std::ostream& out) : out_(&out) {
  *out_ << "[\n";
}

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get()) {
  MOTUNE_CHECK_MSG(owned_->good(), "cannot open trace file: " + path);
  *out_ << "[\n";
}

ChromeTraceSink::~ChromeTraceSink() {
  *out_ << "\n]\n";
  out_->flush();
}

void ChromeTraceSink::write(const TraceRecord& unstamped,
                            const TraceStamp& stamp) {
  TraceRecord merged;
  const TraceRecord& record =
      stamp.empty() ? unstamped : (merged = stamp.applyTo(unstamped));
  // Chrome trace events use microsecond timestamps; tid 0 (records emitted
  // before any thread id was assigned, e.g. metric snapshots) maps to the
  // emitting thread being unknown — displayed on tid 0's track.
  support::JsonObject ev;
  ev["name"] = record.name;
  ev["pid"] = 1;
  ev["tid"] = static_cast<std::uint64_t>(record.tid);
  ev["ts"] = record.start * 1e6;
  switch (record.kind) {
  case TraceRecord::Kind::Span:
    ev["ph"] = "X";
    ev["dur"] = record.duration * 1e6;
    if (!record.attrs.empty()) ev["args"] = support::Json(record.attrs);
    break;
  case TraceRecord::Kind::Event:
    ev["ph"] = "i";
    ev["s"] = "t"; // thread-scoped instant
    if (!record.attrs.empty()) ev["args"] = support::Json(record.attrs);
    break;
  case TraceRecord::Kind::Counter:
  case TraceRecord::Kind::Gauge: {
    ev["ph"] = "C";
    support::JsonObject args;
    const auto it = record.attrs.find("value");
    args["value"] = it == record.attrs.end() ? support::Json(0.0) : it->second;
    ev["args"] = support::Json(std::move(args));
    break;
  }
  case TraceRecord::Kind::Histogram:
    // No native histogram phase; an instant with the summary as args keeps
    // the data visible in the viewer's event pane.
    ev["ph"] = "i";
    ev["s"] = "g"; // global instant
    if (!record.attrs.empty()) ev["args"] = support::Json(record.attrs);
    break;
  }
  if (!first_) *out_ << ",\n";
  first_ = false;
  *out_ << support::Json(std::move(ev)).dump(-1);
}

void ChromeTraceSink::flush() { out_->flush(); }

void TableSink::write(const TraceRecord& record, const TraceStamp& stamp) {
  records_.push_back(stamp.applyTo(record));
}

void TableSink::flush() {
  if (records_.empty()) return;
  support::TextTable table("trace summary");
  table.setHeader({"type", "name", "t", "dur", "attrs"});
  for (const auto& r : records_) {
    std::string attrs;
    for (const auto& [key, value] : r.attrs) {
      if (!attrs.empty()) attrs += " ";
      attrs += key + "=" + value.dump(-1);
    }
    table.addRow({TraceRecord::kindName(r.kind), r.name,
                  support::fmtSeconds(r.start),
                  r.kind == TraceRecord::Kind::Span
                      ? support::fmtSeconds(r.duration)
                      : "-",
                  attrs});
  }
  *out_ << table.render();
  records_.clear();
}

void MemorySink::write(const TraceRecord& record, const TraceStamp& stamp) {
  TraceRecord stamped = stamp.applyTo(record);
  std::lock_guard lock(mutex_);
  records_.push_back(std::move(stamped));
}

std::vector<TraceRecord> MemorySink::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

void MemorySink::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
}

// ------------------------------------------------------------------- span

Span::Span(Tracer* tracer, std::string name, support::JsonObject attrs)
    : tracer_(tracer) {
  record_.kind = TraceRecord::Kind::Span;
  record_.name = std::move(name);
  record_.attrs = std::move(attrs);
  record_.id = tracer_->nextId_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = tracer_->currentParent();
  record_.tid = currentThreadId();
  record_.start = tracer_->now();
  tlsSpanStack.push_back({tracer_, record_.id});
}

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), record_(std::move(other.record_)) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    other.tracer_ = nullptr;
  }
  return *this;
}

Span::~Span() { end(); }

void Span::setAttr(const std::string& key, support::Json value) {
  if (!tracer_) return;
  record_.attrs[key] = std::move(value);
}

void Span::end() {
  if (!tracer_) return;
  tracer_->endSpan(*this);
  tracer_ = nullptr;
}

// ----------------------------------------------------------------- tracer

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  // The single deliberate system_clock read: every timestamp in the trace
  // is steady (monotone); this anchor lets consumers print absolute times.
  wallEpochUnix_ = std::chrono::duration<double>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::addSink(std::shared_ptr<Sink> sink) {
  MOTUNE_CHECK(sink != nullptr);
  // Each sink opens with the trace header, so any single output file is
  // self-describing: the wall-clock anchor of t=0 and the clock domain.
  TraceRecord header;
  header.kind = TraceRecord::Kind::Event;
  header.name = "trace.header";
  header.tid = currentThreadId();
  header.start = now();
  header.attrs = {{"wall_epoch_unix", support::Json(wallEpochUnix_)},
                  {"clock", support::Json("steady")},
                  {"time_unit", support::Json("s")}};
  std::lock_guard lock(mutex_);
  sink->write(header, stamp_);
  sinks_.push_back(std::move(sink));
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::clearSinks() {
  drainRuntimeEvents();
  std::lock_guard lock(mutex_);
  for (const auto& sink : sinks_) sink->flush();
  sinks_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t Tracer::currentParent() const {
  for (auto it = tlsSpanStack.rbegin(); it != tlsSpanStack.rend(); ++it)
    if (it->tracer == this) return it->id;
  return 0;
}

Span Tracer::span(std::string name, support::JsonObject attrs) {
  if (!enabled()) return {};
  return Span(this, std::move(name), std::move(attrs));
}

void Tracer::event(std::string name, support::JsonObject attrs) {
  if (!enabled()) return;
  TraceRecord record;
  record.kind = TraceRecord::Kind::Event;
  record.name = std::move(name);
  record.parent = currentParent();
  record.tid = currentThreadId();
  record.start = now();
  record.attrs = std::move(attrs);
  emit(record);
}

void Tracer::emitRecord(const TraceRecord& record) {
  if (!enabled()) return;
  emit(record);
}

void Tracer::endSpan(Span& span) {
  span.record_.duration = now() - span.record_.start;
  // Pop this span from the thread's stack (it is the top in disciplined
  // RAII use; search defensively otherwise).
  for (auto it = tlsSpanStack.rbegin(); it != tlsSpanStack.rend(); ++it) {
    if (it->tracer == this && it->id == span.record_.id) {
      tlsSpanStack.erase(std::next(it).base());
      break;
    }
  }
  emit(span.record_);
}

void Tracer::setStamp(const support::JsonObject& stamp) {
  TraceStamp encoded(stamp);
  std::lock_guard lock(mutex_);
  stamp_ = std::move(encoded);
}

void Tracer::emit(const TraceRecord& record) {
  std::lock_guard lock(mutex_);
  for (const auto& sink : sinks_) sink->write(record, stamp_);
}

void Tracer::snapshotMetrics(const MetricsRegistry& registry) {
  if (!enabled()) return;
  const double t = now();
  auto emitKind = [&](TraceRecord::Kind kind, const std::string& name,
                      support::JsonObject attrs) {
    TraceRecord record;
    record.kind = kind;
    record.name = name;
    record.tid = currentThreadId();
    record.start = t;
    record.attrs = std::move(attrs);
    emit(record);
  };
  registry.eachCounter([&](const std::string& name, const Counter& c) {
    emitKind(TraceRecord::Kind::Counter, name,
             {{"value", support::Json(c.value())}});
  });
  registry.eachGauge([&](const std::string& name, const Gauge& g) {
    emitKind(TraceRecord::Kind::Gauge, name,
             {{"value", support::Json(g.value())}});
  });
  registry.eachHistogram([&](const std::string& name, const Histogram& h) {
    const Histogram::Snapshot s = h.snapshot();
    support::JsonObject attrs{{"count", support::Json(s.count)},
                              {"sum", support::Json(s.sum)}};
    if (s.count > 0) {
      attrs["min"] = support::Json(s.min);
      attrs["max"] = support::Json(s.max);
      attrs["mean"] = support::Json(s.mean());
      attrs["p50"] = support::Json(s.p50());
      attrs["p90"] = support::Json(s.p90());
      attrs["p99"] = support::Json(s.p99());
    }
    emitKind(TraceRecord::Kind::Histogram, name, std::move(attrs));
  });
}

void Tracer::drainRuntimeEvents() {
  // Only the process-wide tracer owns the runtime rings: instrumented
  // runtime code reports to Tracer::process(), so draining into a private
  // (per-job or test) tracer would misattribute records.
  if (this == &Tracer::process() && enabled())
    RuntimeLog::global().drainInto(*this);
}

void Tracer::flush() {
  drainRuntimeEvents();
  std::lock_guard lock(mutex_);
  for (const auto& sink : sinks_) sink->flush();
}

Tracer& Tracer::global() {
  return tlsTracerOverride ? *tlsTracerOverride : process();
}

Tracer& Tracer::process() {
  static Tracer tracer;
  return tracer;
}

// ----------------------------------------------------------- scoped tracer

ScopedTracer::ScopedTracer(Tracer* tracer) : previous_(tlsTracerOverride) {
  tlsTracerOverride = tracer;
}

ScopedTracer::~ScopedTracer() { tlsTracerOverride = previous_; }

Tracer* ScopedTracer::current() { return tlsTracerOverride; }

} // namespace motune::observe
