// serve_mutations: reads alongside mutating writes through the daemon.
// Setup streams IYP x1 as 256 batches; from the second batch on each batch
// also deletes ~10% and updates ~5% of the previous batch's nodes with their
// incident edges (mutation_stream.h). Each operation is one pass of the
// whole stream through an in-process SchemaServer on loopback (fsync on):
// one ingest connection posts open-loop at kIngestRate batches/s, retrying
// 429s, while two closed-loop connections GET the schema back to back.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "core/incremental.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "drift/replay.h"
#include "eval/f1.h"
#include "graph/csv_io.h"
#include "layers.h"
#include "mutation_stream.h"
#include "obs/trace.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "stats.h"
#include "store/state_store.h"
#include "workload.h"

namespace pgbench {

using namespace pghive;

namespace {

constexpr size_t kBatches = 256;
constexpr int kReaders = 2;
/// Open-loop ingest rate in batches per second, fixed so that every commit
/// is measured against the same schedule.
constexpr double kIngestRate = 25.0;
constexpr char kSchemaPath[] = "/v1/graphs/g/schema";
constexpr size_t kMaxBody = 64ull << 20;

/// One closed-loop reader on its own keep-alive connection. Reads are kept
/// as two floats each (hundreds of thousands per pass), so memory does not
/// grow with the read rate enough to move peak_rss_mb.
struct ReaderLog {
  double origin = 0.0;      // NowSeconds() the offsets count from
  std::vector<float> end;   // completion time of each read, s after origin
  std::vector<float> latency_us;
  /// (epoch, completion time) of the first read showing each new epoch.
  std::vector<std::pair<uint64_t, double>> first_seen;
  uint64_t bytes = 0;
  uint64_t failures = 0;
  uint64_t non_monotone = 0;
  std::atomic<uint64_t> last_epoch{0};
};

std::unique_ptr<serve::HttpConnection> Dial(uint16_t port) {
  auto fd = serve::DialTcp("127.0.0.1", port);
  if (!fd.ok()) return nullptr;
  auto conn = std::make_unique<serve::HttpConnection>(*fd);
  conn->SetTimeouts(30000);
  return conn;
}

void ReaderLoop(uint16_t port, const std::atomic<bool>* stop, ReaderLog* log) {
  std::unique_ptr<serve::HttpConnection> conn = Dial(port);
  uint64_t last = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    if (conn == nullptr) {
      ++log->failures;
      conn = Dial(port);
      if (conn == nullptr) return;
    }
    const double start = NowSeconds();
    Result<serve::HttpResponse> resp = [&]() -> Result<serve::HttpResponse> {
      obs::ScopedSpan span("bench.serve.get");
      PGHIVE_RETURN_NOT_OK(conn->WriteRequest("GET", kSchemaPath, "", ""));
      return conn->ReadResponse(kMaxBody);
    }();
    const double end = NowSeconds();
    if (!resp.ok() || resp->status != 200) {
      conn.reset();
      continue;
    }
    const uint64_t epoch = std::stoull(resp->headers["x-pghive-epoch"]);
    if (epoch < last) ++log->non_monotone;
    if (epoch > last || log->first_seen.empty()) {
      log->first_seen.emplace_back(epoch, end);
    }
    last = epoch;
    log->end.push_back(static_cast<float>(end - log->origin));
    log->latency_us.push_back(static_cast<float>((end - start) * 1e6));
    log->bytes += resp->body.size();
    log->last_epoch.store(epoch, std::memory_order_relaxed);
  }
}

/// What one pass of the stream through the daemon measured.
struct Pass {
  std::vector<double> visible_ms;
  std::vector<float> read_us;  // reads that ended while ingest ran
  std::vector<double> post_rtt_us;
  std::vector<double> lag_ms;
  double read_bytes = 0.0;  // mean response body size
  uint64_t rejected = 0;
  double ingest_seconds = 0.0;  // first due time to last batch visible
  uint64_t state_bytes = 0;
  drift::DriftCounters drift;
  std::string final_schema;
  double attributed_s = 0.0;  // generator lag + POST round trips
};

Pass RunPass(const std::string& dir, const std::vector<std::string>& bodies,
             RunResult* r) {
  Pass pass;
  serve::ServeOptions options;
  options.port = 0;
  options.num_workers = kReaders + 1;
  auto server = std::make_unique<serve::SchemaServer>(options);
  if (Status s = server->AddGraph("g", dir); !s.ok()) {
    r->Fail("serve: AddGraph: " + s.ToString());
    return pass;
  }
  if (Status s = server->Start(); !s.ok()) {
    r->Fail("serve: Start: " + s.ToString());
    return pass;
  }
  const uint16_t port = server->port();

  std::atomic<bool> stop{false};
  std::vector<ReaderLog> logs(kReaders);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    logs[i].origin = NowSeconds();
    readers.emplace_back(ReaderLoop, port, &stop, &logs[i]);
  }

  std::unique_ptr<serve::HttpConnection> ingest = Dial(port);
  std::vector<double> due(bodies.size());
  const double t0 = NowSeconds() + 0.05;
  size_t failed_posts = 0;
  for (size_t i = 0; i < bodies.size() && ingest != nullptr; ++i) {
    due[i] = t0 + static_cast<double>(i) / kIngestRate;
    const double wait = due[i] - NowSeconds();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double send = NowSeconds();
    pass.lag_ms.push_back((send - due[i]) * 1e3);
    pass.attributed_s += send - due[i];
    for (;;) {
      const double start = NowSeconds();
      Result<serve::HttpResponse> resp = [&]() -> Result<serve::HttpResponse> {
        obs::ScopedSpan span("bench.serve.post");
        PGHIVE_RETURN_NOT_OK(ingest->WriteRequest(
            "POST", "/v1/graphs/g/batches", bodies[i], "application/json"));
        return ingest->ReadResponse(kMaxBody);
      }();
      const double rtt = NowSeconds() - start;
      pass.post_rtt_us.push_back(rtt * 1e6);
      pass.attributed_s += rtt;
      if (resp.ok() && resp->status == 429) {
        ++pass.rejected;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (!resp.ok() || resp->status != 202) {
        ++failed_posts;
        r->Fail("serve: POST batch " + std::to_string(i) + ": " +
                (resp.ok() ? std::to_string(resp->status)
                           : resp.status().ToString()));
        if (!resp.ok()) ingest.reset();
      }
      break;
    }
  }
  r->attempted += bodies.size();
  if (ingest == nullptr) r->failed += bodies.size() - pass.lag_ms.size();

  // Let every reader observe the final epoch (bounded wait).
  const uint64_t final_epoch = bodies.size() - failed_posts;
  const double deadline = NowSeconds() + 60.0;
  while (NowSeconds() < deadline) {
    bool seen = true;
    for (const ReaderLog& log : logs) {
      seen = seen && log.last_epoch.load() >= final_epoch;
    }
    if (seen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  if (ingest != nullptr) {
    if (ingest->WriteRequest("GET", kSchemaPath, "", "").ok()) {
      Result<serve::HttpResponse> resp = ingest->ReadResponse(kMaxBody);
      if (resp.ok() && resp->status == 200 &&
          resp->headers["x-pghive-epoch"] == std::to_string(final_epoch)) {
        pass.final_schema = resp->body;
      }
    }
    ingest.reset();
  }
  if (auto snap = server->FindGraph("g")->Current(); snap->drift) {
    pass.drift = snap->drift->counters();
  }
  if (Status s = server->Stop(); !s.ok()) {
    r->Fail("serve: Stop: " + s.ToString());
  }
  server.reset();
  pass.state_bytes = DirBytes(dir);

  // Visibility: the first read on any connection that shows the batch.
  double last_visible = t0;
  for (size_t i = 0; i < due.size() && i < pass.lag_ms.size(); ++i) {
    double first = -1.0;
    for (const ReaderLog& log : logs) {
      auto it = std::lower_bound(
          log.first_seen.begin(), log.first_seen.end(), i + 1,
          [](const auto& seen, uint64_t epoch) { return seen.first < epoch; });
      if (it != log.first_seen.end() && (first < 0 || it->second < first)) {
        first = it->second;
      }
    }
    ++r->attempted;
    if (first < 0) {
      r->Fail("serve: batch " + std::to_string(i) + " never became visible");
      continue;
    }
    pass.visible_ms.push_back((first - due[i]) * 1e3);
    last_visible = std::max(last_visible, first);
  }
  pass.ingest_seconds = last_visible - t0;
  uint64_t bytes = 0, total_reads = 0;
  for (const ReaderLog& log : logs) {
    r->attempted += log.end.size() + log.failures;
    r->failed += log.failures;
    if (log.non_monotone > 0) {
      r->Fail("serve: epochs went backwards on a read connection");
    }
    bytes += log.bytes;
    total_reads += log.end.size();
    for (size_t k = 0; k < log.end.size(); ++k) {
      const double end = log.origin + log.end[k];
      if (end < t0 || end > last_visible) continue;
      pass.read_us.push_back(log.latency_us[k]);
    }
  }
  pass.read_bytes = Ratio(bytes, total_reads);
  return pass;
}

}  // namespace

RunResult RunServeMutations(const RunConfig& config) {
  RunResult r;
  r.threads = 1;
  r.fsync = true;

  std::vector<store::BatchPayload> stream;
  std::vector<std::string> bodies;
  size_t nodes = 0, edges = 0, csv_bytes = 0;
  const double setup_s = TimeSetup([&] {
    const DatasetSpec spec = DatasetSpecByName("IYP").value();
    GenerateOptions gen;
    gen.num_nodes = spec.default_nodes;
    gen.num_edges = spec.default_edges;
    gen.seed = config.seed;
    const PropertyGraph g = GenerateGraph(spec, gen).value();
    stream = AddMutations(store::MakeStreamBatches(g, kBatches), config.seed);
    bodies.clear();
    for (const auto& batch : stream) {
      bodies.push_back(serve::BatchToJson(batch).Dump());
    }
    nodes = g.num_nodes();
    edges = g.num_edges();
    csv_bytes = NodesToCsv(g).size() + EdgesToCsv(g).size();
  });

  // Oracle: the same stream applied in process, plus endpoint closure.
  const double oracle_start = NowSeconds();
  if (Status s = CheckEndpointClosure(stream); !s.ok()) {
    r.Fail("serve: generated stream breaks endpoint closure: " + s.ToString());
  }
  SchemaGraph reference;
  double node_f1 = 0.0, edge_f1 = 0.0;
  size_t raw_clusters = 0;
  {
    PropertyGraph graph;
    IncrementalDiscoverer engine(store::StoreOptions().incremental);
    if (Status s = ApplyStream(stream, &graph, &engine); !s.ok()) {
      r.Fail("serve: reference stream: " + s.ToString());
      return r;
    }
    reference = engine.FinishedCopy(graph);
    node_f1 = MajorityF1Nodes(graph, reference).f1;
    edge_f1 = MajorityF1Edges(graph, reference).f1;
    const BatchDiagnostics& diag = engine.last_diagnostics();
    raw_clusters = diag.node_clusters + diag.edge_clusters;
  }
  const std::string reference_json = SchemaToJson(reference);
  const double oracle_s = NowSeconds() - oracle_start;

  std::vector<double> visible, plain_visible_p50, traced_visible_p50;
  std::vector<double> state_ratio, lag_ms;
  std::vector<float> read_us;
  double ingest_seconds = 0.0;
  uint64_t rejected = 0;
  std::vector<OpTrace> traces;
  std::vector<Pass> traced_passes;
  std::vector<double> schema_json_s;

  RunFor(config.seconds, config.trace ? 2 : 1, [&](int i) {
    const bool traced = config.trace && i % 2 == 1;
    const std::string dir = config.workdir + "/serve-" + std::to_string(i);
    BeginOp(traced);
    Pass pass = RunPass(dir, bodies, &r);
    if (traced) {
      const double start = NowSeconds();
      obs::ScopedSpan span("bench.core.schema_json");
      if (SchemaToJson(reference).empty()) r.Fail("serve: empty schema JSON");
      schema_json_s.push_back(NowSeconds() - start);
    }
    OpTrace trace = EndOp();
    std::filesystem::remove_all(dir);
    if (pass.final_schema != reference_json) {
      r.Fail("serve: final served schema differs from the in-process stream");
      r.failed += kBatches - 1;
      return true;
    }
    if (traced) {
      traced_visible_p50.push_back(Median(pass.visible_ms));
      traces.push_back(std::move(trace));
      traced_passes.push_back(std::move(pass));
      return true;
    }
    plain_visible_p50.push_back(Median(pass.visible_ms));
    visible.insert(visible.end(), pass.visible_ms.begin(),
                   pass.visible_ms.end());
    read_us.insert(read_us.end(), pass.read_us.begin(), pass.read_us.end());
    lag_ms.insert(lag_ms.end(), pass.lag_ms.begin(), pass.lag_ms.end());
    ingest_seconds += pass.ingest_seconds;
    rejected += pass.rejected;
    state_ratio.push_back(Ratio(pass.state_bytes, csv_bytes));
    return true;
  });

  const Tail tail = HighestTail(visible, 0.95);
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.end_to_end["op_p50_ms"] = {Median(visible), "ms"};
  r.end_to_end["op_tail_ms"] = {tail.value, "ms"};
  // Throughput of an open loop is the rate it sustained at the offered
  // load: batches made visible per second, which falls below kIngestRate
  // only when the writer cannot keep up. The readers' rate is reported,
  // not gated: back-to-back readers measure the host's spare cores.
  const double reads_per_s = Ratio(read_us.size(), ingest_seconds);
  const double visible_per_s = Ratio(visible.size(), ingest_seconds);
  r.end_to_end["throughput_per_s"] = {visible_per_s, "1/s"};
  r.end_to_end["node_f1"] = {node_f1, "ratio"};
  r.end_to_end["edge_f1"] = {edge_f1, "ratio"};

  r.report["visible_p50_ms"] = {Median(visible), "ms"};
  if (auto p95 = TailPercentile(visible, 0.95)) {
    r.report["visible_p95_ms"] = {*p95, "ms"};
  }
  r.report["visible_samples"] = {double(visible.size()), "count"};
  const std::vector<double> read_samples(read_us.begin(), read_us.end());
  r.report["read_p50_us"] = {Median(read_samples), "us"};
  if (auto p99 = TailPercentile(read_samples, 0.99)) {
    r.report["read_p99_us"] = {*p99, "us"};
  }
  r.report["read_samples"] = {double(read_us.size()), "count"};
  r.report["reads_per_s"] = {reads_per_s, "1/s"};
  r.report["visible_batches_per_s"] = {visible_per_s, "1/s"};
  r.report["rejected_429"] = {double(rejected), "count"};
  r.report["generator_lag_ms"] = {HighestTail(lag_ms, 0.95).value, "ms"};
  r.report["state_bytes_per_input_byte"] = {Median(state_ratio), "ratio"};
  r.report["node_f1"] = {node_f1, "ratio"};
  r.report["edge_f1"] = {edge_f1, "ratio"};
  r.report["oracle_s"] = {oracle_s, "s"};
  r.report["ingest_rate_per_s"] = {kIngestRate, "1/s"};
  const StreamCounts counts = CountStream(stream);
  r.inputs["nodes"] = nodes;
  r.inputs["edges"] = edges;
  r.inputs["csv_bytes"] = csv_bytes;
  r.inputs["batches"] = kBatches;
  r.inputs["deleted_nodes"] = counts.deleted_nodes;
  r.inputs["deleted_edges"] = counts.deleted_edges;
  r.inputs["updated_nodes"] = counts.updated_nodes;
  r.inputs["updated_edges"] = counts.updated_edges;

  if (config.trace && !traced_passes.empty()) {
    auto span = [&](const std::string& name) {
      return MedianSpan(traces, name);
    };
    auto& m = r.per_layer;
    AddSpanMetrics(traces, &m);
    std::vector<double> rtt, lag, bytes, pass_reads, pass_rejected, coverage,
        unattributed;
    for (size_t i = 0; i < traced_passes.size(); ++i) {
      const Pass& p = traced_passes[i];
      const OpTrace& t = traces[i];
      rtt.insert(rtt.end(), p.post_rtt_us.begin(), p.post_rtt_us.end());
      lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
      bytes.push_back(p.read_bytes);
      pass_reads.push_back(static_cast<double>(p.read_us.size()));
      pass_rejected.push_back(static_cast<double>(p.rejected));
      // Share of the visibility latency the spans account for: generator
      // lag and POST round trips on the bench side, queue wait, apply and
      // publish on the writer thread.
      double visible_s = 0.0;
      for (double v : p.visible_ms) visible_s += v * 1e-3;
      const double attributed = p.attributed_s + t.Span("serve.queue_wait") +
                                t.Span("serve.apply") +
                                t.Span("serve.snapshot_publish");
      coverage.push_back(Ratio(attributed, visible_s));
      unattributed.push_back(std::max(0.0, visible_s - attributed));
    }
    const Pass& last = traced_passes.back();
    m["graph.signatures_per_element"] = {SignaturesPerElement(stream), "ratio"};
    m["core.schema_json_s"] = {Median(schema_json_s), "s"};
    m["core.node_types"] = {double(reference.node_types.size()), "count"};
    m["core.edge_types"] = {double(reference.edge_types.size()), "count"};
    m["cluster.raw_clusters"] = {double(raw_clusters), "count"};
    m["cluster.types_per_raw_cluster"] = {
        Ratio(reference.num_types(), raw_clusters), "ratio"};
    m["drift.epochs_recorded"] = {double(last.drift.epochs_changed), "count"};
    m["drift.events"] = {double(DriftEvents(last.drift)), "count"};
    m["serve.post_rtt_p50_us"] = {Median(rtt), "us"};
    m["serve.rejected_429"] = {Median(pass_rejected), "count"};
    m["serve.queue_wait_s"] = {span("serve.queue_wait"), "s"};
    m["serve.apply_s"] = {span("serve.apply"), "s"};
    m["serve.snapshot_publish_s"] = {span("serve.snapshot_publish"), "s"};
    m["serve.parse_s"] = {span("serve.parse"), "s"};
    m["serve.read_bytes"] = {Median(bytes), "bytes"};
    m["serve.reads"] = {Median(pass_reads), "count"};
    m["serve.generator_lag_ms"] = {HighestTail(lag, 0.95).value, "ms"};
    m["obs.coverage"] = {Median(coverage), "ratio"};
    m["obs.unattributed_s"] = {Median(unattributed), "s"};
    m["obs.trace_overhead_ratio"] = {
        Ratio(Median(traced_visible_p50), Median(plain_visible_p50)), "ratio"};
  }
  return r;
}

}  // namespace pgbench
