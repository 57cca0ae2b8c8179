#include "observe/expose.h"
#include "observe/metrics.h"
#include "observe/ring.h"
#include "observe/trace.h"

#include "core/gde3.h"
#include "core/testproblems.h"
#include "runtime/thread_pool.h"
#include "support/json.h"
#include "tuning/evaluator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

namespace motune {
namespace {

using observe::MemorySink;
using observe::MetricsRegistry;
using observe::TraceRecord;
using observe::Tracer;

std::vector<TraceRecord> byName(const std::vector<TraceRecord>& records,
                                const std::string& name) {
  std::vector<TraceRecord> out;
  for (const auto& r : records)
    if (r.name == name) out.push_back(r);
  return out;
}

TEST(Tracer, DisabledWithoutSinks) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  observe::Span span = tracer.span("noop");
  EXPECT_FALSE(span.active());
  span.end(); // harmless on an inactive span
  tracer.event("also-noop");
}

TEST(Tracer, SpanNesting) {
  Tracer tracer;
  auto sink = std::make_shared<MemorySink>();
  tracer.addSink(sink);

  {
    observe::Span root = tracer.span("root");
    ASSERT_TRUE(root.active());
    {
      observe::Span child = tracer.span("child");
      observe::Span grandchild = tracer.span("grandchild");
      EXPECT_EQ(grandchild.id(), child.id() + 1);
      grandchild.end();
      tracer.event("note"); // after grandchild ended -> parent is child
    }
    root.setAttr("k", support::Json("v"));
  }

  const auto records = sink->records();
  // header, then grandchild, note, child, root (span end order).
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].name, "trace.header");
  EXPECT_GT(records[0].attrs.at("wall_epoch_unix").asNumber(), 0.0);

  const auto root = byName(records, "root");
  const auto child = byName(records, "child");
  const auto grandchild = byName(records, "grandchild");
  const auto note = byName(records, "note");
  ASSERT_EQ(root.size(), 1u);
  ASSERT_EQ(child.size(), 1u);
  ASSERT_EQ(grandchild.size(), 1u);
  ASSERT_EQ(note.size(), 1u);

  EXPECT_EQ(root[0].parent, 0u);
  EXPECT_EQ(child[0].parent, root[0].id);
  EXPECT_EQ(grandchild[0].parent, child[0].id);
  EXPECT_EQ(note[0].parent, child[0].id);
  EXPECT_GE(child[0].duration, grandchild[0].duration);
  EXPECT_EQ(root[0].attrs.at("k").asString(), "v");
}

TEST(Tracer, IndependentTracersDoNotAdoptEachOthersSpans) {
  Tracer a, b;
  auto sinkA = std::make_shared<MemorySink>();
  auto sinkB = std::make_shared<MemorySink>();
  a.addSink(sinkA);
  b.addSink(sinkB);

  observe::Span outer = a.span("outer-a");
  observe::Span inner = b.span("inner-b"); // different tracer -> root span
  inner.end();
  outer.end();

  const auto spansA = byName(sinkA->records(), "outer-a");
  const auto spansB = byName(sinkB->records(), "inner-b");
  ASSERT_EQ(spansB.size(), 1u);
  EXPECT_EQ(spansB[0].parent, 0u);
  ASSERT_EQ(spansA.size(), 1u);
  EXPECT_EQ(spansA[0].parent, 0u);
}

TEST(Tracer, JsonLinesRoundTrip) {
  Tracer tracer;
  std::ostringstream out;
  tracer.addSink(std::make_shared<observe::JsonLinesSink>(out));

  {
    observe::Span span = tracer.span(
        "work", {{"answer", support::Json(42)}, {"ok", support::Json(true)}});
    tracer.event("ping", {{"x", support::Json(1.5)}});
  }
  MetricsRegistry registry;
  registry.counter("c").add(7);
  registry.gauge("g").set(2.5);
  registry.histogram("h").observe(3.0);
  tracer.snapshotMetrics(registry);
  tracer.flush();

  std::vector<support::Json> lines;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(support::Json::parse(line));
  ASSERT_EQ(lines.size(), 6u); // header, ping, work, c, g, h

  EXPECT_EQ(lines[0].at("type").asString(), "event");
  EXPECT_EQ(lines[0].at("name").asString(), "trace.header");
  EXPECT_EQ(lines[0].at("attrs").at("clock").asString(), "steady");
  EXPECT_GT(lines[0].at("attrs").at("wall_epoch_unix").asNumber(), 0.0);

  EXPECT_EQ(lines[1].at("type").asString(), "event");
  EXPECT_EQ(lines[1].at("name").asString(), "ping");
  EXPECT_DOUBLE_EQ(lines[1].at("attrs").at("x").asNumber(), 1.5);
  EXPECT_GT(lines[1].at("tid").asInt(), 0);

  EXPECT_EQ(lines[2].at("type").asString(), "span");
  EXPECT_EQ(lines[2].at("name").asString(), "work");
  EXPECT_EQ(lines[2].at("attrs").at("answer").asInt(), 42);
  EXPECT_TRUE(lines[2].at("attrs").at("ok").asBool());
  EXPECT_GE(lines[2].at("dur").asNumber(), 0.0);

  EXPECT_EQ(lines[3].at("type").asString(), "counter");
  EXPECT_EQ(lines[3].at("attrs").at("value").asInt(), 7);
  EXPECT_EQ(lines[4].at("type").asString(), "gauge");
  EXPECT_DOUBLE_EQ(lines[4].at("attrs").at("value").asNumber(), 2.5);
  EXPECT_EQ(lines[5].at("type").asString(), "histogram");
  EXPECT_EQ(lines[5].at("attrs").at("count").asInt(), 1);
  EXPECT_DOUBLE_EQ(lines[5].at("attrs").at("mean").asNumber(), 3.0);
  EXPECT_DOUBLE_EQ(lines[5].at("attrs").at("p50").asNumber(), 3.0);
}

TEST(Tracer, TableSinkRendersRecords) {
  Tracer tracer;
  std::ostringstream out;
  tracer.addSink(std::make_shared<observe::TableSink>(out));
  { observe::Span span = tracer.span("phase", {{"k", support::Json(1)}}); }
  tracer.event("tick");
  tracer.clearSinks(); // flush renders the table
  const std::string text = out.str();
  EXPECT_NE(text.find("phase"), std::string::npos);
  EXPECT_NE(text.find("tick"), std::string::npos);
  EXPECT_NE(text.find("k=1"), std::string::npos);
}

TEST(EventRing, KeepsEveryRecordBelowCapacityUnderContention) {
  // Producer pushes fewer events than the ring holds while the consumer
  // drains concurrently: nothing may be lost, torn, or reordered.
  constexpr std::uint64_t kEvents = 2000;
  observe::EventRing ring(/*tid=*/7, /*capacity=*/2048);
  ASSERT_GE(ring.capacity(), kEvents);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      observe::RuntimeEvent e;
      e.kind = observe::RuntimeEvent::Kind::Chunk;
      e.start = static_cast<double>(i);
      e.duration = 0.5;
      e.arg0 = static_cast<std::int64_t>(i);
      e.arg1 = -static_cast<std::int64_t>(i);
      ASSERT_TRUE(ring.tryPush(e));
    }
  });

  std::vector<observe::RuntimeEvent> received;
  while (received.size() < kEvents) ring.drain(received);
  producer.join();
  ring.drain(received);

  ASSERT_EQ(received.size(), kEvents);
  EXPECT_EQ(ring.drops(), 0u);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    // Torn records would break the arg0 == -arg1 pairing or the order.
    EXPECT_EQ(received[i].arg0, static_cast<std::int64_t>(i));
    EXPECT_EQ(received[i].arg1, -static_cast<std::int64_t>(i));
    EXPECT_DOUBLE_EQ(received[i].start, static_cast<double>(i));
    EXPECT_EQ(received[i].kind, observe::RuntimeEvent::Kind::Chunk);
  }
}

TEST(EventRing, CountsDropsAboveCapacityExactly) {
  observe::EventRing ring(/*tid=*/1, /*capacity=*/8);
  observe::RuntimeEvent e;
  for (int i = 0; i < 20; ++i) ring.tryPush(e);
  EXPECT_EQ(ring.drops(), 12u); // 8 kept, the rest counted, none blocked

  std::vector<observe::RuntimeEvent> out;
  ring.drain(out);
  EXPECT_EQ(out.size(), 8u);
  // Space reclaimed: pushes succeed again and the counter stays put.
  EXPECT_TRUE(ring.tryPush(e));
  EXPECT_EQ(ring.drops(), 12u);
}

TEST(ChromeTraceSink, EmitsParsableTraceEventArray) {
  Tracer tracer;
  std::ostringstream out;
  tracer.addSink(std::make_shared<observe::ChromeTraceSink>(out));
  {
    observe::Span span = tracer.span("work", {{"k", support::Json(1)}});
    tracer.event("tick");
  }
  MetricsRegistry registry;
  registry.counter("evals").add(3);
  tracer.snapshotMetrics(registry);
  tracer.clearSinks(); // drops the sink -> the closing "]" is written

  const support::Json doc = support::Json::parse(out.str());
  ASSERT_EQ(doc.kind(), support::Json::Kind::Array);
  ASSERT_EQ(doc.size(), 4u); // header, tick, work, evals

  EXPECT_EQ(doc[0].at("name").asString(), "trace.header");
  EXPECT_EQ(doc[0].at("ph").asString(), "i");

  EXPECT_EQ(doc[1].at("name").asString(), "tick");
  EXPECT_EQ(doc[1].at("ph").asString(), "i");
  EXPECT_GT(doc[1].at("tid").asInt(), 0);

  EXPECT_EQ(doc[2].at("name").asString(), "work");
  EXPECT_EQ(doc[2].at("ph").asString(), "X"); // complete event
  EXPECT_EQ(doc[2].at("pid").asInt(), 1);
  EXPECT_GE(doc[2].at("dur").asNumber(), 0.0); // microseconds
  EXPECT_EQ(doc[2].at("args").at("k").asInt(), 1);

  EXPECT_EQ(doc[3].at("name").asString(), "evals");
  EXPECT_EQ(doc[3].at("ph").asString(), "C"); // counter track
  EXPECT_EQ(doc[3].at("args").at("value").asInt(), 3);
}

TEST(Metrics, HistogramQuantilesPinnedOnKnownDistribution) {
  MetricsRegistry registry;
  observe::Histogram& h = registry.histogram("lat");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));

  const observe::Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.count, 1000u);
  // The log-bucketed sketch guarantees ~2% relative error (gamma = 1.04).
  EXPECT_NEAR(s.quantile(0.50), 500.0, 0.025 * 500.0);
  EXPECT_NEAR(s.p50(), s.quantile(0.50), 1e-12);
  EXPECT_NEAR(s.p90(), 900.0, 0.025 * 900.0);
  EXPECT_NEAR(s.p99(), 990.0, 0.025 * 990.0);
  // Extremes clamp to the exactly-tracked min/max.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(Metrics, HistogramQuantileHandlesNonPositiveValues) {
  MetricsRegistry registry;
  observe::Histogram& h = registry.histogram("mixed");
  h.observe(0.0);
  h.observe(0.0);
  h.observe(10.0);
  h.observe(10.0);
  const observe::Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);  // non-positive ranks -> min
  EXPECT_NEAR(s.quantile(0.9), 10.0, 0.25);
}

/// Every field of two snapshots, bit for bit where they are doubles.
void expectSameSnapshot(const observe::Histogram::Snapshot& a,
                        const observe::Histogram::Snapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(std::memcmp(&a.sum, &b.sum, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.min, &b.min, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.max, &b.max, sizeof(double)), 0);
  EXPECT_EQ(a.nonPositive, b.nonPositive);
  EXPECT_EQ(a.nonFinite, b.nonFinite);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Metrics, HistogramBatchObserveEqualsOneAtATime) {
  const std::vector<double> values{3e-7, 1.2e-6, 0.0,  9.5e-7, -2.0,
                                   4e-3, 1.2e-6, 0.31, 7.0,    2e-9};
  MetricsRegistry registry;
  observe::Histogram& single = registry.histogram("single");
  observe::Histogram& batch = registry.histogram("batch");
  for (const double v : values) single.observe(v);
  batch.observe(std::span<const double>(values).first(4));
  batch.observe(std::span<const double>());
  batch.observe(std::span<const double>(values).subspan(4));
  expectSameSnapshot(batch.snapshot(), single.snapshot());
}

TEST(Metrics, HistogramCountsNonFiniteValuesApart) {
  MetricsRegistry registry;
  observe::Histogram& clean = registry.histogram("clean");
  observe::Histogram& mixed = registry.histogram("mixed");
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {2.0, 0.5, 0.0, 8.0}) clean.observe(v);
  mixed.observe(2.0);
  mixed.observe(inf);
  mixed.observe(0.5);
  mixed.observe(nan);
  const std::vector<double> rest{0.0, -inf, 8.0};
  mixed.observe(rest);

  const observe::Histogram::Snapshot s = mixed.snapshot();
  EXPECT_EQ(s.nonFinite, 3u);
  observe::Histogram::Snapshot finite = s;
  finite.nonFinite = 0;
  expectSameSnapshot(finite, clean.snapshot());
  EXPECT_DOUBLE_EQ(s.sum, 10.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 8.0);
  EXPECT_EQ(registry.toJson()
                .at("histograms")
                .at("mixed")
                .at("non_finite")
                .asInt(),
            3);
  EXPECT_FALSE(registry.toJson().at("histograms").at("clean").has(
      "non_finite"));
  mixed.reset();
  EXPECT_EQ(mixed.snapshot().nonFinite, 0u);
}

TEST(RuntimeLog, DrainsRingEventsWithThreadIdsAndDropCounter) {
  auto sink = std::make_shared<MemorySink>();
  Tracer::global().addSink(sink);

  runtime::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  pool.wait();
  Tracer::global().clearSinks(); // drains the rings into the sink

  const auto records = sink->records();
  const auto tasks = byName(records, "rt.task");
  ASSERT_GE(tasks.size(), 8u);
  for (const auto& t : tasks) {
    EXPECT_GT(t.tid, 0u) << "ring records must carry the producing thread";
    EXPECT_GE(t.duration, 0.0);
  }
  const auto drops = byName(records, "rt.ring.dropped");
  ASSERT_EQ(drops.size(), 1u) << "drop counter must be reported every drain";
  EXPECT_EQ(drops[0].attrs.at("value").asInt(), 0);
}

TEST(Metrics, CounterAtomicityUnderThreadPool) {
  MetricsRegistry registry;
  observe::Counter& counter = registry.counter("hits");
  observe::Histogram& histogram = registry.histogram("lat");

  runtime::ThreadPool pool(4);
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 10000;
  for (int t = 0; t < kTasks; ++t) {
    pool.submit([&] {
      for (int i = 0; i < kIncrementsPerTask; ++i) counter.add();
      histogram.observe(1.0);
    });
  }
  pool.wait();

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kTasks) * kIncrementsPerTask);
  const observe::Histogram::Snapshot s = histogram.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kTasks));
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(kTasks));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
}

TEST(Metrics, RegistryJsonAndTable) {
  MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.gauge("b.gauge").set(0.5);
  registry.histogram("c.hist").observe(2.0);
  registry.histogram("c.hist").observe(4.0);

  const support::Json json = registry.toJson();
  EXPECT_EQ(json.at("counters").at("a.count").asInt(), 3);
  EXPECT_DOUBLE_EQ(json.at("gauges").at("b.gauge").asNumber(), 0.5);
  EXPECT_EQ(json.at("histograms").at("c.hist").at("count").asInt(), 2);
  EXPECT_DOUBLE_EQ(json.at("histograms").at("c.hist").at("mean").asNumber(),
                   3.0);

  const std::string table = registry.renderTable();
  EXPECT_NE(table.find("a.count"), std::string::npos);
  EXPECT_NE(table.find("c.hist"), std::string::npos);

  registry.reset();
  EXPECT_EQ(registry.counter("a.count").value(), 0u);
  EXPECT_EQ(registry.histogram("c.hist").snapshot().count, 0u);
}

TEST(Metrics, CountingEvaluatorMemoHitRate) {
  MetricsRegistry::global().reset();
  opt::SyntheticProblem problem = opt::makeSchaffer();
  tuning::CountingEvaluator counting(problem);

  const tuning::Config config{1234};
  const tuning::Objectives first = counting.evaluate(config);
  for (int i = 0; i < 9; ++i)
    EXPECT_EQ(counting.evaluate(config), first); // memoized, bit-identical
  counting.evaluate({777});

  EXPECT_EQ(counting.evaluations(), 2u);
  EXPECT_EQ(counting.memoHits(), 9u);
  EXPECT_EQ(MetricsRegistry::global()
                .counter("tuning.evaluations.unique")
                .value(),
            2u);
  EXPECT_EQ(MetricsRegistry::global()
                .counter("tuning.evaluations.memo_hits")
                .value(),
            9u);
}

// The acceptance invariant of the observability layer, pinned as a test:
// a traced optimizer run emits per-generation spans whose `hv` sequence is
// monotone non-decreasing, and the final unique-evaluation counter matches
// CountingEvaluator::evaluations() (i.e. GDE3::evaluations()) exactly.
TEST(Observability, TracedOptimizerRunInvariants) {
  MetricsRegistry::global().reset();
  auto sink = std::make_shared<MemorySink>();
  Tracer::global().addSink(sink);

  opt::SyntheticProblem problem = opt::makeSchaffer();
  runtime::ThreadPool pool(2);
  opt::GDE3Options options;
  options.maxGenerations = 12;
  options.seed = 3;
  opt::GDE3 engine(problem, pool, options);
  const opt::OptResult result = engine.run();

  Tracer::global().snapshotMetrics(MetricsRegistry::global());
  Tracer::global().clearSinks();

  const auto records = sink->records();
  const auto generations = byName(records, "gde3.generation");
  ASSERT_GT(generations.size(), 0u);
  double lastHv = 0.0;
  for (const auto& g : generations) {
    const double hv = g.attrs.at("hv").asNumber();
    EXPECT_GE(hv, lastHv) << "per-generation hv must be monotone";
    lastHv = hv;
    EXPECT_GE(g.attrs.at("boundary_volume").asNumber(), 1.0);
    EXPECT_GE(g.attrs.at("front_size").asInt(), 1);
  }

  const auto runSpans = byName(records, "gde3.run");
  ASSERT_EQ(runSpans.size(), 1u);
  EXPECT_EQ(runSpans[0].attrs.at("generations").asInt(), result.generations);

  const auto counters = byName(records, "tuning.evaluations.unique");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(
                counters[0].attrs.at("value").asInt()),
            engine.evaluations())
      << "trace counter must match CountingEvaluator::evaluations()";
  EXPECT_EQ(engine.evaluations(), result.evaluations);
}


// ---------------------------------------------------------------------------
// Prometheus exposition (observe/expose.h)

TEST(Exposition, PrometheusNameSanitization) {
  EXPECT_EQ(observe::prometheusName("serve.jobs.done"),
            "motune_serve_jobs_done");
  EXPECT_EQ(observe::prometheusName("already_fine:ok"),
            "motune_already_fine:ok");
  EXPECT_EQ(observe::prometheusName("weird-chars @here"),
            "motune_weird_chars__here");
}

TEST(Exposition, RenderPrometheusFormatsAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.counter("serve.jobs.done").add(3);
  registry.gauge("serve.stream.subscribers").set(2.0);
  observe::Histogram& hist = registry.histogram("serve.job.run_seconds");
  for (int i = 1; i <= 100; ++i) hist.observe(static_cast<double>(i));

  const std::string text = observe::renderPrometheus(registry);

  // Counter: TYPE line and the _total suffix convention.
  EXPECT_NE(text.find("# TYPE motune_serve_jobs_done_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("motune_serve_jobs_done_total 3\n"), std::string::npos);

  // Gauge: plain name, no _total.
  EXPECT_NE(text.find("# TYPE motune_serve_stream_subscribers gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("motune_serve_stream_subscribers 2\n"),
            std::string::npos);
  EXPECT_EQ(text.find("motune_serve_stream_subscribers_total"),
            std::string::npos);

  // Histogram: exposed as a summary with the three pinned quantiles.
  EXPECT_NE(text.find("# TYPE motune_serve_job_run_seconds summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("motune_serve_job_run_seconds{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("motune_serve_job_run_seconds{quantile=\"0.9\"} "),
            std::string::npos);
  EXPECT_NE(text.find("motune_serve_job_run_seconds{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("motune_serve_job_run_seconds_count 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("motune_serve_job_run_seconds_sum 5050\n"),
            std::string::npos);

  // Every non-comment line is "<name...> <value>"; every comment is # TYPE.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE motune_", 0), 0u) << line;
      continue;
    }
    EXPECT_EQ(line.rfind("motune_", 0), 0u) << line;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

TEST(Exposition, EmptyHistogramOmitsQuantilesKeepsSumCount) {
  MetricsRegistry registry;
  registry.histogram("idle.hist");
  const std::string text = observe::renderPrometheus(registry);
  EXPECT_EQ(text.find("quantile"), std::string::npos);
  EXPECT_NE(text.find("motune_idle_hist_count 0\n"), std::string::npos);
  EXPECT_NE(text.find("motune_idle_hist_sum 0\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-job tracer plumbing: stamps, seeded ids, and the scoped override that
// routes a job's Tracer::global() records into its own trace.

TEST(Tracer, StampIsMergedIntoEveryRecord) {
  Tracer tracer;
  auto sink = std::make_shared<MemorySink>();
  // Stamp first, as the serve scheduler does: the trace.header that addSink
  // emits must carry the job/run attrs too.
  tracer.setStamp({{"job", support::Json("j000042")},
                   {"run", support::Json(1)}});
  tracer.addSink(sink);

  { observe::Span span = tracer.span("stamped"); }
  tracer.event("also-stamped");

  const auto records = sink->records();
  ASSERT_GE(records.size(), 3u); // header + span + event
  for (const auto& r : records) {
    ASSERT_TRUE(r.attrs.count("job")) << r.name;
    EXPECT_EQ(r.attrs.at("job").asString(), "j000042") << r.name;
    EXPECT_EQ(r.attrs.at("run").asNumber(), 1.0) << r.name;
  }
}

TEST(Tracer, SeededIdsKeepConcurrentTracersDisjoint) {
  // The serve scheduler seeds each job's tracer at (jobNum << 32) so span
  // ids never collide across jobs; two seeded tracers must hand out ids in
  // disjoint ranges.
  Tracer a, b;
  a.addSink(std::make_shared<MemorySink>());
  b.addSink(std::make_shared<MemorySink>());
  a.seedIds((1ull << 32) | 1);
  b.seedIds((2ull << 32) | 1);

  observe::Span spanA = a.span("a");
  observe::Span spanB = b.span("b");
  EXPECT_GE(spanA.id(), 1ull << 32);
  EXPECT_LT(spanA.id(), 2ull << 32);
  EXPECT_GE(spanB.id(), 2ull << 32);
}

TEST(Tracer, ScopedOverrideRoutesEvaluatorResetEvent) {
  Tracer tracer;
  auto sink = std::make_shared<MemorySink>();
  tracer.addSink(sink);

  const auto emit = [](std::uint64_t unique) {
    Tracer::global().event("evaluator.reset",
                           {{"unique", support::Json(unique)}});
  };
  {
    observe::ScopedTracer scope(&tracer);
    emit(1); // routed through Tracer::global() to the override
  }
  emit(2); // outside the scope: must NOT land in our sink

  const auto resets = byName(sink->records(), "evaluator.reset");
  ASSERT_EQ(resets.size(), 1u)
      << "exactly the event inside the scoped override is captured";
  EXPECT_EQ(resets[0].attrs.at("unique").asNumber(), 1.0);
}

} // namespace
} // namespace motune
