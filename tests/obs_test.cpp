// Tests for the observability layer (src/obs/): metric correctness under
// concurrency, span nesting invariants, exporter output shapes, the
// no-effect-on-results guarantee, and the structured logging modes.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "store/state_store.h"
#include "test_dir.h"

namespace pghive {
namespace obs {
namespace {

/// Every test leaves the global tracer/registry the way it found it
/// (disabled, empty), so tests cannot order-depend on each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    Tracer::Global().SetEnabled(true);
    Tracer::Global().Clear();
  }
  void TearDown() override {
    SetMetricsEnabled(false);
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
    MetricsRegistry::Global().ResetAll();
  }
};

TEST_F(ObsTest, CounterIsExactUnderConcurrency) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.exact");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  ThreadPool pool(kThreads);
  ParallelFor(
      &pool, kThreads * kPerThread, [&](size_t) { c->Add(1); },
      /*grain=*/64);
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
}

TEST_F(ObsTest, CounterRegistrationIsStableAndShared) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.counter.same");
  Counter* b = MetricsRegistry::Global().GetCounter("test.counter.same");
  EXPECT_EQ(a, b);
  a->Reset();
  a->Add(3);
  b->Add(4);
  EXPECT_EQ(a->Value(), 7u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
  g->Set(-5);
  EXPECT_EQ(g->Value(), -5);
}

TEST_F(ObsTest, HistogramTotalsAreExactUnderConcurrency) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test.histogram.exact", {1.0, 2.0, 4.0, 8.0});
  h->Reset();
  constexpr int kThreads = 8;
  constexpr size_t kPerThread = 5000;
  ThreadPool pool(kThreads);
  // Each index observes (i % 8), an integer, so the CAS-summed double is
  // exact and the expected total is computable in closed form.
  ParallelFor(
      &pool, kThreads * kPerThread,
      [&](size_t i) { h->Observe(static_cast<double>(i % 8)); },
      /*grain=*/64);
  HistogramSnapshot snap = h->Snapshot();
  const uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(snap.count, n);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(n / 8) * (0 + 1 + 2 + 3 +
                                                           4 + 5 + 6 + 7));
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);
}

TEST_F(ObsTest, HistogramQuantilesAreOrderedAndClamped) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.histogram.quantiles");
  h->Reset();
  for (int i = 0; i < 1000; ++i) h->Observe(0.001 * (i % 100));
  HistogramSnapshot snap = h->Snapshot();
  EXPECT_LE(snap.p50(), snap.p95());
  EXPECT_LE(snap.p95(), snap.p99());
  EXPECT_GE(snap.p50(), snap.min);
  EXPECT_LE(snap.p99(), snap.max);
}

TEST_F(ObsTest, HistogramSingleValueQuantilesCollapse) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.histogram.single");
  h->Reset();
  h->Observe(0.0042);
  HistogramSnapshot snap = h->Snapshot();
  EXPECT_DOUBLE_EQ(snap.p50(), 0.0042);
  EXPECT_DOUBLE_EQ(snap.p99(), 0.0042);
}

TEST_F(ObsTest, SpansNestPerThread) {
  {
    ScopedSpan outer("test.outer");
    {
      ScopedSpan inner("test.inner");
      ScopedSpan innermost("test.innermost");
      (void)innermost;
    }
    ScopedSpan sibling("test.sibling");
    (void)sibling;
  }
  std::vector<SpanEvent> spans = Tracer::Global().CollectSpans();
  ASSERT_EQ(spans.size(), 4u);

  auto find = [&](const char* name) -> const SpanEvent& {
    for (const auto& s : spans) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "span not found: " << name;
    return spans.front();
  };
  const SpanEvent& outer = find("test.outer");
  const SpanEvent& inner = find("test.inner");
  const SpanEvent& innermost = find("test.innermost");
  const SpanEvent& sibling = find("test.sibling");

  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(innermost.parent, inner.id);
  EXPECT_EQ(innermost.depth, 2u);
  EXPECT_EQ(sibling.parent, outer.id);
  EXPECT_EQ(sibling.depth, 1u);

  // Containment: children start no earlier and end no later than their
  // parents.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_GE(innermost.start_ns, inner.start_ns);
  EXPECT_LE(innermost.start_ns + innermost.dur_ns,
            inner.start_ns + inner.dur_ns);

  // CollectSpans is sorted by (start_ns, id).
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
}

TEST_F(ObsTest, SpansFromWorkerThreadsAllSurface) {
  constexpr int kThreads = 4;
  {
    ThreadPool pool(kThreads);
    ParallelForChunks(&pool, 64, /*grain=*/8,
                      [](size_t, size_t, size_t) {
                        ScopedSpan span("test.worker");
                        (void)span;
                      });
    // The pool (and its threads) dies here; the spans must survive it.
  }
  std::vector<SpanEvent> spans = Tracer::Global().CollectSpans();
  size_t workers = 0;
  std::set<uint32_t> threads;
  for (const auto& s : spans) {
    if (s.name == "test.worker") {
      ++workers;
      threads.insert(s.thread);
    }
  }
  // ParallelForChunks wraps each chunk in a runtime.chunk span too; only
  // count ours. 64 items / grain 8 = 8 chunks.
  EXPECT_EQ(workers, 8u);
  EXPECT_GE(threads.size(), 1u);
}

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  Tracer::Global().SetEnabled(false);
  {
    ScopedSpan span("test.disabled");
    EXPECT_FALSE(span.recording());
    span.AddAttr("ignored", uint64_t{1});
  }
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);
}

TEST_F(ObsTest, OutSecondsMeasuresEvenWhenDisabled) {
  Tracer::Global().SetEnabled(false);
  double seconds = -1.0;
  {
    ScopedSpan span("test.timed", &seconds);
    EXPECT_FALSE(span.recording());
    // Busy-wait a hair so the duration is provably non-negative and the
    // clock advanced.
    volatile int sink = 0;
    for (int i = 0; i < 10000; ++i) sink += i;
  }
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);

  // With tracing back on, the same form also records an event.
  Tracer::Global().SetEnabled(true);
  {
    ScopedSpan span("test.timed", &seconds);
    EXPECT_TRUE(span.recording());
  }
  EXPECT_EQ(Tracer::Global().SpanCount(), 1u);
}

TEST_F(ObsTest, JsonlLineIsExact) {
  JsonObject fields;
  fields.emplace("value", 42);
  EXPECT_EQ(JsonlLine("counter", "pghive.test.c", std::move(fields)),
            "{\"name\":\"pghive.test.c\",\"type\":\"counter\",\"value\":42}");
}

TEST_F(ObsTest, MetricsJsonlLinesAllParseAndCoverEveryKind) {
  MetricsRegistry::Global().GetCounter("test.export.counter")->Add(5);
  MetricsRegistry::Global().GetGauge("test.export.gauge")->Set(-2);
  MetricsRegistry::Global()
      .GetHistogram("test.export.histogram")
      ->Observe(0.001);
  {
    ScopedSpan span("test.export.span");
    span.AddAttr("k", std::string("v"));
  }
  const std::string jsonl = MetricsToJsonl(
      MetricsRegistry::Global().Snapshot(), Tracer::Global().CollectSpans());

  std::set<std::string> types;
  size_t lines = 0;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    ++lines;
    Result<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(parsed->is_object()) << line;
    types.insert((*parsed)["type"].AsString());
    EXPECT_TRUE((*parsed)["name"].is_string()) << line;
  }
  EXPECT_GE(lines, 4u);
  EXPECT_TRUE(types.count("counter"));
  EXPECT_TRUE(types.count("gauge"));
  EXPECT_TRUE(types.count("histogram"));
  EXPECT_TRUE(types.count("span_stats"));
  EXPECT_TRUE(types.count("span"));
}

TEST_F(ObsTest, HistogramJsonlCarriesPercentiles) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.export.percentiles");
  for (int i = 0; i < 100; ++i) h->Observe(0.002);
  const std::string jsonl =
      MetricsToJsonl(MetricsRegistry::Global().Snapshot(), {});
  bool found = false;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(pos, end - pos);
    pos = end + 1;
    if (line.find("test.export.percentiles") == std::string::npos) continue;
    found = true;
    JsonValue v = ParseJson(line).value();
    EXPECT_EQ(v["count"].AsInt(), 100);
    for (const char* key : {"sum", "min", "max", "mean", "p50", "p95",
                            "p99"}) {
      EXPECT_TRUE(v[key].is_number()) << key;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, ChromeTraceIsAnArrayOfCompleteEvents) {
  {
    ScopedSpan outer("test.chrome.outer");
    ScopedSpan inner("test.chrome.inner");
    (void)inner;
  }
  const std::string trace =
      SpansToChromeTrace(Tracer::Global().CollectSpans());
  Result<JsonValue> parsed = ParseJson(trace);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->AsArray().size(), 2u);
  for (const JsonValue& event : parsed->AsArray()) {
    EXPECT_EQ(event["ph"].AsString(), "X");
    EXPECT_EQ(event["cat"].AsString(), "pghive");
    EXPECT_TRUE(event["name"].is_string());
    EXPECT_TRUE(event["ts"].is_number());
    EXPECT_TRUE(event["dur"].is_number());
    EXPECT_TRUE(event["pid"].is_number());
    EXPECT_TRUE(event["tid"].is_number());
  }
}

TEST_F(ObsTest, TracingDoesNotChangeDiscoveredSchema) {
  GenerateOptions gen;
  gen.num_nodes = 600;
  gen.num_edges = 1200;
  PropertyGraph g =
      GenerateGraph(DatasetSpecByName("POLE").value(), gen).value();

  // Reference: tracing off, sequential.
  SetMetricsEnabled(false);
  Tracer::Global().SetEnabled(false);
  std::string reference;
  {
    PgHivePipeline pipeline((PipelineOptions()));
    reference = SchemaToJson(pipeline.DiscoverSchema(g).value());
  }

  // Tracing on must not perturb the output at any thread count.
  SetMetricsEnabled(true);
  Tracer::Global().SetEnabled(true);
  for (int threads : {1, 2, 8}) {
    Tracer::Global().Clear();
    PipelineOptions opt;
    opt.num_threads = threads;
    PgHivePipeline pipeline(opt);
    EXPECT_EQ(SchemaToJson(pipeline.DiscoverSchema(g).value()), reference)
        << "threads=" << threads;
    EXPECT_GT(Tracer::Global().SpanCount(), 0u) << "threads=" << threads;
  }
}

TEST_F(ObsTest, PipelineSpansCoverEveryStage) {
  GenerateOptions gen;
  gen.num_nodes = 400;
  gen.num_edges = 800;
  PropertyGraph g =
      GenerateGraph(DatasetSpecByName("POLE").value(), gen).value();
  PgHivePipeline pipeline((PipelineOptions()));
  ASSERT_TRUE(pipeline.DiscoverSchema(g).ok());

  std::set<std::string> names;
  for (const auto& s : Tracer::Global().CollectSpans()) names.insert(s.name);
  for (const char* expected :
       {"pipeline.discover", "pipeline.batch", "pipeline.embed_train",
        "pipeline.encode_nodes", "pipeline.cluster_nodes",
        "pipeline.extract_nodes", "pipeline.encode_edges",
        "pipeline.cluster_edges", "pipeline.extract_edges",
        "pipeline.post_process"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }

  // The StageTimings view agrees with the spans it is fed from.
  const StageTimings& t = pipeline.last_diagnostics().timings;
  EXPECT_GT(t.encode_nodes, 0.0);
  EXPECT_GT(t.cluster_nodes, 0.0);

  // An incremental Feed adds one incremental.fold per batch, nested in
  // that batch's incremental.batch span.
  Tracer::Global().Clear();
  IncrementalDiscoverer disc((IncrementalOptions()));
  for (const GraphBatch& batch : SplitIntoBatches(g, 3)) {
    ASSERT_TRUE(disc.Feed(batch).ok());
  }
  std::map<uint64_t, std::string> name_of;
  const std::vector<SpanEvent> spans = Tracer::Global().CollectSpans();
  for (const auto& s : spans) name_of[s.id] = s.name;
  size_t folds = 0;
  for (const auto& s : spans) {
    if (s.name != "incremental.fold") continue;
    ++folds;
    EXPECT_EQ(name_of[s.parent], "incremental.batch");
  }
  EXPECT_EQ(folds, 3u);
}

// Each checkpoint splits into exactly four child spans — build, encode,
// write, prune — directly under its store.checkpoint span.
TEST_F(ObsTest, CheckpointSpansSplitIntoFourChildren) {
  GenerateOptions gen;
  gen.num_nodes = 300;
  gen.num_edges = 500;
  PropertyGraph g =
      GenerateGraph(DatasetSpecByName("POLE").value(), gen).value();
  store::StoreOptions opt;
  opt.incremental.pipeline.embedding.backend = EmbeddingBackend::kHash;
  opt.fsync = false;
  opt.checkpoint_every_batches = 2;
  {
    auto st = store::DurableDiscoverer::OpenOrRecover(
        TestDir("checkpoint_spans"), opt);
    ASSERT_TRUE(st.ok()) << st.status();
    for (const auto& batch : store::MakeStreamBatches(g, 4)) {
      ASSERT_TRUE((*st)->Feed(batch).ok());
    }
  }
  const std::vector<SpanEvent> spans = Tracer::Global().CollectSpans();
  std::map<uint64_t, std::map<std::string, int>> children;
  for (const auto& s : spans) {
    if (s.name == "store.checkpoint") children[s.id];
  }
  for (const auto& s : spans) {
    auto it = children.find(s.parent);
    if (it != children.end()) ++it->second[s.name];
  }
  EXPECT_EQ(children.size(), 2u);
  const std::map<std::string, int> expected = {
      {"store.prune", 1},
      {"store.snapshot_build", 1},
      {"store.snapshot_encode", 1},
      {"store.snapshot_write", 1}};
  for (const auto& [id, names] : children) EXPECT_EQ(names, expected);
}

// --- Prometheus exposition (obs/export.h). ---

TEST_F(ObsTest, PrometheusExpositionIsExactForSeededSnapshot) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("pghive.serve.requests", 42u);
  snap.gauges.emplace_back("pghive.serve.queue_depth.pole", -3);
  HistogramSnapshot h;
  h.count = 6;
  h.sum = 3.5;
  h.min = 0.25;
  h.max = 2.0;
  h.bounds = {0.5, 1.0, 2.0};
  h.buckets = {1, 2, 3, 0};  // per-bucket, last = overflow
  snap.histograms.emplace_back("pghive.serve.read_seconds", h);

  EXPECT_EQ(MetricsToPrometheus(snap),
            "# TYPE pghive_serve_requests_total counter\n"
            "pghive_serve_requests_total 42\n"
            "# TYPE pghive_serve_queue_depth_pole gauge\n"
            "pghive_serve_queue_depth_pole -3\n"
            "# TYPE pghive_serve_read_seconds histogram\n"
            "pghive_serve_read_seconds_bucket{le=\"0.5\"} 1\n"
            "pghive_serve_read_seconds_bucket{le=\"1\"} 3\n"
            "pghive_serve_read_seconds_bucket{le=\"2\"} 6\n"
            "pghive_serve_read_seconds_bucket{le=\"+Inf\"} 6\n"
            "pghive_serve_read_seconds_sum 3.5\n"
            "pghive_serve_read_seconds_count 6\n");
}

TEST_F(ObsTest, PrometheusBucketsAreCumulativeForLiveHistogram) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test.prom.cumulative", {0.001, 0.01, 0.1, 1.0});
  h->Reset();
  for (int i = 0; i < 500; ++i) h->Observe(0.0005 * (i % 40));
  MetricsSnapshot registry = MetricsRegistry::Global().Snapshot();
  const std::string text = MetricsToPrometheus(registry);

  // Every _bucket series must be non-decreasing in file order and end with
  // le="+Inf" equal to the histogram count.
  uint64_t prev = 0;
  uint64_t last = 0;
  size_t buckets_seen = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find("test_prom_cumulative_bucket{") == std::string::npos) {
      continue;
    }
    const uint64_t value =
        std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(value, prev) << line;
    prev = value;
    last = value;
    ++buckets_seen;
  }
  EXPECT_EQ(buckets_seen, 5u);  // 4 bounds + +Inf
  EXPECT_EQ(last, 500u);
}

TEST_F(ObsTest, SanitizePrometheusNameMapsToLegalCharset) {
  EXPECT_EQ(SanitizePrometheusName("pghive.serve.route_seconds.drift"),
            "pghive_serve_route_seconds_drift");
  EXPECT_EQ(SanitizePrometheusName("0weird-name"), "_0weird_name");
  EXPECT_EQ(SanitizePrometheusName("a:b"), "a:b");  // colons are legal
  EXPECT_EQ(SanitizePrometheusName(""), "_");
}

TEST_F(ObsTest, ParseMetricsFormatAcceptsKnownFormats) {
  EXPECT_EQ(*ParseMetricsFormat("jsonl"), MetricsFormat::kJsonl);
  EXPECT_EQ(*ParseMetricsFormat("Prometheus"), MetricsFormat::kPrometheus);
  EXPECT_FALSE(ParseMetricsFormat("xml").ok());
}

TEST_F(ObsTest, MetricsFormatContentTypes) {
  EXPECT_STREQ(MetricsFormatContentType(MetricsFormat::kPrometheus),
               "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_STREQ(MetricsFormatContentType(MetricsFormat::kJsonl),
               "application/x-ndjson; charset=utf-8");
}

TEST_F(ObsTest, MetricNameConventionCheck) {
  EXPECT_TRUE(MetricNameFollowsConvention("pghive.serve.read_seconds"));
  EXPECT_TRUE(MetricNameFollowsConvention("pghive.alerts.firing.pole"));
  EXPECT_TRUE(MetricNameFollowsConvention("test.anything.goes"));
  EXPECT_FALSE(MetricNameFollowsConvention("pghive.bogus.metric"));
  EXPECT_FALSE(MetricNameFollowsConvention("pghive.serve"));
  EXPECT_FALSE(MetricNameFollowsConvention("pghive."));
}

TEST_F(ObsTest, EmitSpanRecordsExplicitTimestamps) {
  obs::EmitSpan("test.emitted", 1000, 250, {{"k", "v"}});
  {
    ScopedSpan parent("test.emit.parent");
    obs::EmitSpan("test.emitted.child", 2000, 50);
  }
  std::vector<SpanEvent> spans = Tracer::Global().CollectSpans();
  const SpanEvent* emitted = nullptr;
  const SpanEvent* parent = nullptr;
  const SpanEvent* child = nullptr;
  for (const auto& s : spans) {
    if (s.name == "test.emitted") emitted = &s;
    if (s.name == "test.emit.parent") parent = &s;
    if (s.name == "test.emitted.child") child = &s;
  }
  ASSERT_NE(emitted, nullptr);
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(emitted->start_ns, 1000u);
  EXPECT_EQ(emitted->dur_ns, 250u);
  EXPECT_EQ(emitted->parent, 0u);
  ASSERT_EQ(emitted->attrs.size(), 1u);
  EXPECT_EQ(emitted->attrs[0].first, "k");
  // Emitted inside an open span: parented to it, like a ScopedSpan child.
  EXPECT_EQ(child->parent, parent->id);

  // Disabled tracing: EmitSpan is a no-op.
  Tracer::Global().SetEnabled(false);
  Tracer::Global().Clear();
  obs::EmitSpan("test.emitted.off", 1, 1);
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);
}

// --- Structured logging (common/logging.h). ---

class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetLogSink(nullptr);
    SetLogFormat(LogFormat::kText);
    SetLogLevel(LogLevel::kWarning);
  }
};

TEST_F(LoggingTest, ParseLogLevelAcceptsKnownNames) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_EQ(level, LogLevel::kWarning);  // untouched on failure
}

TEST_F(LoggingTest, SinkReceivesFilteredRecords) {
  std::vector<std::string> messages;
  SetLogSink([&](LogLevel level, const char* file, int line,
                 const std::string& msg) {
    messages.push_back(std::string(LogLevelName(level)) + " " + file + ":" +
                       std::to_string(line) + " " + msg);
  });
  SetLogLevel(LogLevel::kInfo);
  PGHIVE_LOG(kDebug) << "filtered out";
  PGHIVE_LOG(kInfo) << "kept " << 42;
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_NE(messages[0].find("INFO"), std::string::npos);
  EXPECT_NE(messages[0].find("obs_test.cpp"), std::string::npos);
  EXPECT_NE(messages[0].find("kept 42"), std::string::npos);
}

TEST_F(LoggingTest, JsonFormatIsValidJson) {
  const std::string record = FormatLogRecord(
      LogFormat::kJson, LogLevel::kError, "file.cc", 12, "broke: \"x\"\n");
  Result<JsonValue> parsed = ParseJson(record);
  ASSERT_TRUE(parsed.ok()) << record;
  EXPECT_EQ((*parsed)["level"].AsString(), "ERROR");
  EXPECT_EQ((*parsed)["file"].AsString(), "file.cc");
  EXPECT_EQ((*parsed)["line"].AsInt(), 12);
  EXPECT_EQ((*parsed)["msg"].AsString(), "broke: \"x\"\n");
}

TEST_F(LoggingTest, TextFormatMatchesLegacyShape) {
  EXPECT_EQ(FormatLogRecord(LogFormat::kText, LogLevel::kWarning, "f.cc", 7,
                            "msg"),
            "[WARN f.cc:7] msg");
}

}  // namespace
}  // namespace obs
}  // namespace pghive
