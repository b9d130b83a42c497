// durable_stream: durable incremental discovery with a crash. Setup cuts
// IYP x2 into 256 stream batches. Each operation opens a fresh state
// directory with the store's defaults (fsync on, checkpoint every 16
// batches, drift tracking on, 1 thread), feeds 200 batches, drops the store
// without Finish (the last 8 batches live only in the journal), reopens it
// through recovery, feeds the remaining 56 batches and calls Finish.

#include <filesystem>
#include <memory>

#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "eval/f1.h"
#include "graph/csv_io.h"
#include "layers.h"
#include "mutation_stream.h"
#include "obs/trace.h"
#include "stats.h"
#include "store/state_store.h"
#include "workload.h"

namespace pgbench {

using namespace pghive;

namespace {

constexpr int kScale = 2;
constexpr size_t kBatches = 256;
constexpr size_t kCrashAt = 200;  // not a multiple of the checkpoint interval

/// One operation's outcome.
struct StreamRun {
  Status status;
  SchemaGraph schema;
  std::vector<double> feed_ms;
  std::vector<char> checkpointed;  // the Feed ended in a checkpoint
  double recover_s = 0.0;
  store::RecoveryReport recovery;
  drift::DriftCounters drift;
  size_t raw_clusters = 0;
};

StreamRun RunStream(const std::string& dir,
                    const std::vector<store::BatchPayload>& payloads,
                    const store::StoreOptions& options) {
  StreamRun run;
  auto open = [&](store::RecoveryReport* report) {
    auto opened = store::DurableDiscoverer::OpenOrRecover(dir, options, report);
    if (!opened.ok()) {
      run.status = opened.status();
      return std::unique_ptr<store::DurableDiscoverer>();
    }
    return std::move(*opened);
  };
  auto feed = [&](store::DurableDiscoverer* s, size_t begin, size_t end) {
    for (size_t b = begin; b < end && run.status.ok(); ++b) {
      const double start = NowSeconds();
      {
        obs::ScopedSpan span("bench.store.feed");
        run.status = s->Feed(payloads[b]);
      }
      run.feed_ms.push_back((NowSeconds() - start) * 1e3);
      run.checkpointed.push_back(s->batches_since_checkpoint() == 0);
    }
  };

  std::unique_ptr<store::DurableDiscoverer> s;
  {
    obs::ScopedSpan span("bench.store.open");
    s = open(nullptr);
  }
  if (!s) return run;
  feed(s.get(), 0, kCrashAt);
  {
    obs::ScopedSpan span("bench.store.crash");
    s.reset();  // no Finish: batches 193..200 are only in the journal
  }
  if (!run.status.ok()) return run;
  {
    const double start = NowSeconds();
    obs::ScopedSpan span("bench.store.recover");
    s = open(&run.recovery);
    run.recover_s = NowSeconds() - start;
  }
  if (!s) return run;
  feed(s.get(), kCrashAt, payloads.size());
  if (!run.status.ok()) return run;
  {
    obs::ScopedSpan span("bench.store.finish");
    Result<SchemaGraph> schema = s->Finish();
    if (!schema.ok()) {
      run.status = schema.status();
      return run;
    }
    run.schema = std::move(*schema);
  }
  {
    obs::ScopedSpan span("bench.core.schema_json");
    if (SchemaToJson(run.schema).empty()) {
      run.status = Status::Internal("empty schema JSON");
    }
  }
  run.drift = s->drift_tracker().counters();
  const BatchDiagnostics& diag = s->engine().last_diagnostics();
  run.raw_clusters = diag.node_clusters + diag.edge_clusters;
  return run;
}

}  // namespace

RunResult RunDurableStream(const RunConfig& config) {
  RunResult r;
  r.threads = 1;
  r.fsync = true;
  store::StoreOptions options;  // the defaults: what `--state-dir` runs with

  std::vector<store::BatchPayload> payloads;
  size_t nodes = 0, edges = 0, csv_bytes = 0;
  const double setup_s = TimeSetup([&] {
    const DatasetSpec spec = DatasetSpecByName("IYP").value();
    GenerateOptions gen;
    gen.num_nodes = kScale * spec.default_nodes;
    gen.num_edges = kScale * spec.default_edges;
    gen.seed = config.seed;
    const PropertyGraph g = GenerateGraph(spec, gen).value();
    payloads = store::MakeStreamBatches(g, kBatches);
    nodes = g.num_nodes();
    edges = g.num_edges();
    csv_bytes = NodesToCsv(g).size() + EdgesToCsv(g).size();
  });

  // Oracle: the same batches fed in process, uninterrupted and unjournaled.
  const double oracle_start = NowSeconds();
  std::string reference_json;
  double node_f1 = 0.0, edge_f1 = 0.0;
  {
    PropertyGraph graph;
    IncrementalDiscoverer engine(options.incremental);
    if (Status s = ApplyStream(payloads, &graph, &engine); !s.ok()) {
      r.Fail("stream: reference run: " + s.ToString());
      return r;
    }
    const SchemaGraph& reference = engine.Finish(graph);
    reference_json = InstanceJson(reference);
    node_f1 = MajorityF1Nodes(graph, reference).f1;
    edge_f1 = MajorityF1Edges(graph, reference).f1;
  }
  const double oracle_s = NowSeconds() - oracle_start;

  std::vector<double> commit_ms, plain_walls, traced_walls, recover_s,
      state_ratio;
  std::vector<double> traced_plain_ms, traced_checkpoint_ms;
  std::vector<OpTrace> traces;
  std::vector<StreamRun> traced_runs;

  RunFor(config.seconds, config.trace ? 2 : 1, [&](int i) {
    const bool traced = config.trace && i % 2 == 1;
    const std::string dir = config.workdir + "/state-" + std::to_string(i);
    ++r.attempted;
    BeginOp(traced);
    const double start = NowSeconds();
    StreamRun run;
    {
      obs::ScopedSpan op(kOpSpan);
      run = RunStream(dir, payloads, options);
    }
    const double wall = NowSeconds() - start;
    OpTrace trace = EndOp();
    const uint64_t state_bytes = DirBytes(dir);
    std::filesystem::remove_all(dir);

    if (!run.status.ok()) {
      r.Fail("stream: " + run.status.ToString());
      return true;
    }
    if (InstanceJson(run.schema) != reference_json) {
      r.Fail("stream: recovered Finish schema differs from the "
             "uninterrupted run");
      return true;
    }
    if (traced) {
      traced_walls.push_back(wall);
      for (size_t b = 0; b < run.feed_ms.size(); ++b) {
        (run.checkpointed[b] ? traced_checkpoint_ms : traced_plain_ms)
            .push_back(run.feed_ms[b]);
      }
      traces.push_back(std::move(trace));
      traced_runs.push_back(std::move(run));
      return true;
    }
    plain_walls.push_back(wall);
    commit_ms.insert(commit_ms.end(), run.feed_ms.begin(), run.feed_ms.end());
    recover_s.push_back(run.recover_s);
    state_ratio.push_back(Ratio(state_bytes, csv_bytes));
    return true;
  });

  double total = 0.0;
  for (double w : plain_walls) total += w;
  const double batches_per_s = Ratio(kBatches * plain_walls.size(), total);
  const Tail tail = HighestTail(commit_ms, 0.95);
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.end_to_end["op_p50_ms"] = {Median(commit_ms), "ms"};
  r.end_to_end["op_tail_ms"] = {tail.value, "ms"};
  r.end_to_end["throughput_per_s"] = {batches_per_s, "1/s"};
  r.end_to_end["node_f1"] = {node_f1, "ratio"};
  r.end_to_end["edge_f1"] = {edge_f1, "ratio"};

  r.report["commit_p50_ms"] = {Median(commit_ms), "ms"};
  if (auto p95 = TailPercentile(commit_ms, 0.95)) {
    r.report["commit_p95_ms"] = {*p95, "ms"};
  }
  if (auto p99 = TailPercentile(commit_ms, 0.99)) {
    r.report["commit_p99_ms"] = {*p99, "ms"};
  }
  r.report["commit_samples"] = {double(commit_ms.size()), "count"};
  r.report["stream_batches_per_s"] = {batches_per_s, "1/s"};
  r.report["recover_s"] = {Median(recover_s), "s"};
  r.report["state_bytes_per_input_byte"] = {Median(state_ratio), "ratio"};
  r.report["node_f1"] = {node_f1, "ratio"};
  r.report["edge_f1"] = {edge_f1, "ratio"};
  r.report["oracle_s"] = {oracle_s, "s"};
  r.inputs["nodes"] = nodes;
  r.inputs["edges"] = edges;
  r.inputs["csv_bytes"] = csv_bytes;
  r.inputs["batches"] = kBatches;
  r.inputs["crash_after_batches"] = kCrashAt;

  if (config.trace && !traced_runs.empty()) {
    auto span = [&](const std::string& name) {
      return MedianSpan(traces, name);
    };
    auto& m = r.per_layer;
    AddSpanMetrics(traces, &m);
    const StreamRun& last = traced_runs.back();
    m["graph.signatures_per_element"] = {SignaturesPerElement(payloads),
                                         "ratio"};
    m["core.schema_json_s"] = {span("bench.core.schema_json"), "s"};
    m["core.node_types"] = {double(last.schema.node_types.size()), "count"};
    m["core.edge_types"] = {double(last.schema.edge_types.size()), "count"};
    m["cluster.raw_clusters"] = {double(last.raw_clusters), "count"};
    m["cluster.types_per_raw_cluster"] = {
        Ratio(last.schema.num_types(), last.raw_clusters), "ratio"};
    m["store.feed_plain_ms"] = {Median(traced_plain_ms), "ms"};
    m["store.feed_checkpoint_ms"] = {Median(traced_checkpoint_ms), "ms"};
    m["store.checkpoint_s"] = {span("store.checkpoint"), "s"};
    m["store.fsync_count"] = {
        MedianOver(traces,
                   [](const OpTrace& t) {
                     return double(
                         t.Histogram("pghive.store.fsync_seconds").count);
                   }),
        "count"};
    m["store.fsync_p50_us"] = {
        MedianOver(traces,
                   [](const OpTrace& t) {
                     return t.Histogram("pghive.store.fsync_seconds").p50() *
                            1e6;
                   }),
        "us"};
    auto counter = [&](const char* name) {
      return MedianOver(
          traces, [name](const OpTrace& t) { return double(t.Counter(name)); });
    };
    const double journal = counter("pghive.store.journal_bytes");
    const double snapshots = counter("pghive.store.snapshot_bytes");
    m["store.journal_bytes"] = {journal, "bytes"};
    m["store.snapshot_bytes_written"] = {snapshots, "bytes"};
    m["store.bytes_written_per_input_byte"] = {
        Ratio(journal + snapshots, csv_bytes), "ratio"};
    m["store.replayed_batches"] = {double(last.recovery.replayed_batches),
                                   "count"};
    m["drift.epochs_recorded"] = {double(last.drift.epochs_changed), "count"};
    m["drift.events"] = {double(DriftEvents(last.drift)), "count"};
    m["obs.trace_overhead_ratio"] = {
        Ratio(Median(traced_walls), Median(plain_walls)), "ratio"};
  }
  return r;
}

}  // namespace pgbench
