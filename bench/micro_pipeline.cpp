// Microbenchmarks (google-benchmark) for the pipeline and its design
// ablations called out in DESIGN.md: encoding cost vs embedding dimension,
// adaptive vs fixed parameters, Word2Vec vs hash embeddings, sampled vs
// full datatype scans, the label_weight knob, and the execution-runtime
// thread sweep.
//
// Before the google-benchmark suite runs, main() records a per-stage
// wall-clock baseline of the largest synthetic dataset at 1 thread and at
// hardware concurrency, written to BENCH_pipeline.json (override the path
// with PGHIVE_BENCH_OUT) so successive PRs accumulate a perf trajectory.
// The baseline timings are read back from the observability layer (the
// pipeline.* spans) rather than hand-rolled timers; tracing is switched
// off again before the google-benchmark loops run, so they measure the
// disabled-path overhead the acceptance criteria bound.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/csv.h"
#include "common/json.h"
#include "core/feature_encoder.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "simd/simd.h"

namespace pghive {
namespace {

const PropertyGraph& PoleGraph() {
  static const PropertyGraph* g = [] {
    GenerateOptions gen;
    gen.num_nodes = 3000;
    gen.num_edges = 5200;
    return new PropertyGraph(GenerateGraph(MakePoleSpec(), gen).value());
  }();
  return *g;
}

void BM_EncodeNodes(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  const PropertyGraph& g = PoleGraph();
  LabelEmbedderOptions opt;
  opt.dimension = dim;
  LabelEmbedder embedder(opt);
  (void)embedder.Train(BuildBatchLabelCorpus(FullBatch(g)));
  FeatureEncoder encoder(&embedder);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeNodes(FullBatch(g)));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_EncodeNodes)->Arg(8)->Arg(24)->Arg(64);

void BM_FullPipeline(benchmark::State& state) {
  // method: 0 = ELSH, 1 = MinHash
  const PropertyGraph& g = PoleGraph();
  PipelineOptions opt;
  opt.method = state.range(0) == 0 ? ClusteringMethod::kElsh
                                   : ClusteringMethod::kMinHash;
  opt.post_process = false;
  for (auto _ : state) {
    PgHivePipeline pipeline(opt);
    benchmark::DoNotOptimize(pipeline.DiscoverSchema(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_FullPipeline)->Arg(0)->Arg(1);

void BM_FullPipelineThreads(benchmark::State& state) {
  // args: {method (0 = ELSH, 1 = MinHash), threads}
  const PropertyGraph& g = PoleGraph();
  PipelineOptions opt;
  opt.method = state.range(0) == 0 ? ClusteringMethod::kElsh
                                   : ClusteringMethod::kMinHash;
  opt.num_threads = static_cast<int>(state.range(1));
  opt.post_process = false;
  for (auto _ : state) {
    PgHivePipeline pipeline(opt);
    benchmark::DoNotOptimize(pipeline.DiscoverSchema(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_FullPipelineThreads)
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Args({1, 8});

void BM_AdaptiveVsFixed(benchmark::State& state) {
  // arg 0: adaptive (pays the mu-sampling pass), 1: fixed parameters.
  const PropertyGraph& g = PoleGraph();
  PipelineOptions opt;
  opt.post_process = false;
  if (state.range(0) == 1) {
    opt.adaptive_parameters = false;
    opt.elsh.bucket_length = 2.4;
    opt.elsh.num_tables = 12;
  }
  for (auto _ : state) {
    PgHivePipeline pipeline(opt);
    benchmark::DoNotOptimize(pipeline.DiscoverSchema(g));
  }
}
BENCHMARK(BM_AdaptiveVsFixed)->Arg(0)->Arg(1);

void BM_EmbeddingBackend(benchmark::State& state) {
  // arg 0: Word2Vec (training pass per batch), 1: hash projections.
  const PropertyGraph& g = PoleGraph();
  PipelineOptions opt;
  opt.post_process = false;
  opt.embedding.backend = state.range(0) == 0 ? EmbeddingBackend::kWord2Vec
                                              : EmbeddingBackend::kHash;
  for (auto _ : state) {
    PgHivePipeline pipeline(opt);
    benchmark::DoNotOptimize(pipeline.DiscoverSchema(g));
  }
}
BENCHMARK(BM_EmbeddingBackend)->Arg(0)->Arg(1);

void BM_DatatypeScan(benchmark::State& state) {
  // arg 0: full scan, 1: sampled (10%, >= 1000).
  const PropertyGraph& g = PoleGraph();
  PipelineOptions discover_opt;
  discover_opt.post_process = false;
  PgHivePipeline discover(discover_opt);
  SchemaGraph schema = discover.DiscoverSchema(g).value();
  DataTypeInferenceOptions opt;
  opt.sample = state.range(0) == 1;
  for (auto _ : state) {
    SchemaGraph copy = schema;
    InferDataTypes(g, opt, &copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_DatatypeScan)->Arg(0)->Arg(1);

void BM_LabelWeight(benchmark::State& state) {
  // Ablation: label_weight 1.0 vs 2.0 vs 4.0 (quality measured elsewhere;
  // this confirms the cost is unchanged).
  const PropertyGraph& g = PoleGraph();
  PipelineOptions opt;
  opt.post_process = false;
  opt.encoder.label_weight = static_cast<double>(state.range(0));
  for (auto _ : state) {
    PgHivePipeline pipeline(opt);
    benchmark::DoNotOptimize(pipeline.DiscoverSchema(g));
  }
}
BENCHMARK(BM_LabelWeight)->Arg(1)->Arg(2)->Arg(4);

// --- Per-stage baseline recorder (BENCH_pipeline.json). ---

JsonObject StagesToJson(const StageTimings& t) {
  JsonObject stages;
  stages.emplace("embed_train", t.embed_train);
  stages.emplace("encode_nodes", t.encode_nodes);
  stages.emplace("cluster_nodes", t.cluster_nodes);
  stages.emplace("extract_nodes", t.extract_nodes);
  stages.emplace("encode_edges", t.encode_edges);
  stages.emplace("cluster_edges", t.cluster_edges);
  stages.emplace("extract_edges", t.extract_edges);
  // Hot-path sub-kernels (see StageTimings): the embed loop inside each
  // encode stage, and the LSH key computation (project) vs bucket-union
  // merge (hash) split inside each cluster stage.
  stages.emplace("encode_nodes_embed", t.encode_nodes_embed);
  stages.emplace("encode_edges_embed", t.encode_edges_embed);
  stages.emplace("cluster_nodes_project", t.cluster_nodes_project);
  stages.emplace("cluster_nodes_hash", t.cluster_nodes_hash);
  stages.emplace("cluster_edges_project", t.cluster_edges_project);
  stages.emplace("cluster_edges_hash", t.cluster_edges_hash);
  stages.emplace("post_process", t.post_process);
  // post_process sub-timings: aggregate build/fold + the three per-pass
  // finalizations (they sum to ~post_process; the rest is dispatch).
  stages.emplace("post_fold", t.post_fold);
  stages.emplace("post_constraints", t.post_constraints);
  stages.emplace("post_datatypes", t.post_datatypes);
  stages.emplace("post_cardinalities", t.post_cardinalities);
  return stages;
}

/// Total seconds across all spans named `name`.
double SpanSeconds(const std::vector<obs::SpanEvent>& spans,
                   const char* name) {
  double seconds = 0.0;
  for (const auto& e : spans) {
    if (e.name == name) seconds += static_cast<double>(e.dur_ns) * 1e-9;
  }
  return seconds;
}

StageTimings StagesFromSpans(const std::vector<obs::SpanEvent>& spans) {
  StageTimings t;
  t.embed_train = SpanSeconds(spans, "pipeline.embed_train");
  t.encode_nodes = SpanSeconds(spans, "pipeline.encode_nodes");
  t.cluster_nodes = SpanSeconds(spans, "pipeline.cluster_nodes");
  t.extract_nodes = SpanSeconds(spans, "pipeline.extract_nodes");
  t.encode_edges = SpanSeconds(spans, "pipeline.encode_edges");
  t.cluster_edges = SpanSeconds(spans, "pipeline.cluster_edges");
  t.extract_edges = SpanSeconds(spans, "pipeline.extract_edges");
  t.encode_nodes_embed = SpanSeconds(spans, "pipeline.encode_nodes.embed");
  t.encode_edges_embed = SpanSeconds(spans, "pipeline.encode_edges.embed");
  t.cluster_nodes_project =
      SpanSeconds(spans, "pipeline.cluster_nodes.project");
  t.cluster_nodes_hash = SpanSeconds(spans, "pipeline.cluster_nodes.hash");
  t.cluster_edges_project =
      SpanSeconds(spans, "pipeline.cluster_edges.project");
  t.cluster_edges_hash = SpanSeconds(spans, "pipeline.cluster_edges.hash");
  t.post_process = SpanSeconds(spans, "pipeline.post_process");
  t.post_fold = SpanSeconds(spans, "pipeline.post_fold");
  t.post_constraints = SpanSeconds(spans, "pipeline.post_constraints");
  t.post_datatypes = SpanSeconds(spans, "pipeline.post_datatypes");
  t.post_cardinalities = SpanSeconds(spans, "pipeline.post_cardinalities");
  return t;
}

/// One timed DiscoverSchema (with post-processing) at `threads`; best of
/// `reps` total wall-clocks, stages taken from the best run. Both the
/// total and the per-stage breakdown come from the pipeline.* spans the
/// run recorded (the caller must have tracing enabled).
JsonObject TimedRun(const PropertyGraph& g, int threads, int reps,
                    int hardware_threads) {
  double best = -1.0;
  StageTimings best_stages;
  for (int r = 0; r < reps; ++r) {
    obs::Tracer::Global().Clear();
    PipelineOptions opt;
    opt.num_threads = threads;
    PgHivePipeline pipeline(opt);
    auto schema = pipeline.DiscoverSchema(g);
    if (!schema.ok()) {
      std::fprintf(stderr, "baseline run failed: %s\n",
                   schema.status().ToString().c_str());
      break;
    }
    const std::vector<obs::SpanEvent> spans =
        obs::Tracer::Global().CollectSpans();
    double seconds = SpanSeconds(spans, "pipeline.discover");
    if (best < 0.0 || seconds < best) {
      best = seconds;
      best_stages = StagesFromSpans(spans);
    }
  }
  JsonObject run;
  run.emplace("threads", threads);
  run.emplace("total_seconds", best);
  // A multi-thread entry recorded on a host with one hardware thread
  // measures pure runtime overhead, not speedup: flag it so consumers
  // (tools/check.sh, trend dashboards) never read it as a scaling point.
  if (threads > 1 && hardware_threads <= 1) run.emplace("degraded", true);
  run.emplace("stages", StagesToJson(best_stages));
  return run;
}

/// Streams `g` as `num_batches` batches with per-batch post-processing
/// and returns the per-batch post-process seconds.
std::vector<double> IncrementalPostSeconds(const PropertyGraph& g,
                                           size_t num_batches) {
  IncrementalOptions opt;
  opt.post_process_each_batch = true;
  IncrementalDiscoverer disc(opt);
  for (const GraphBatch& batch : SplitIntoBatches(g, num_batches)) {
    Status s = disc.Feed(batch);
    if (!s.ok()) {
      std::fprintf(stderr, "incremental feed failed: %s\n",
                   s.ToString().c_str());
      return {};
    }
  }
  return disc.post_process_seconds();
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// Incremental-scaling record: per-batch post-processing cost of a 32-batch
/// stream of the largest dataset from the delta-maintained aggregates. The
/// series must stay flat (tools/check.sh gates last-batch vs first-batch
/// growth on this data).
JsonObject IncrementalScalingToJson(const PropertyGraph& g,
                                    const std::string& dataset) {
  constexpr size_t kBatches = 32;
  const std::vector<double> delta = IncrementalPostSeconds(g, kBatches);

  JsonObject doc;
  doc.emplace("dataset", dataset);
  doc.emplace("batches", static_cast<uint64_t>(kBatches));
  JsonArray delta_arr;
  for (double s : delta) delta_arr.push_back(s);
  doc.emplace("post_seconds_delta", std::move(delta_arr));
  const double delta_total = Sum(delta);
  doc.emplace("total_delta_seconds", delta_total);

  // JSONL mirror for the CI artifact: one line per batch, plus a summary
  // line, all in the shared bench metric schema.
  for (size_t i = 0; i < delta.size(); ++i) {
    JsonObject fields;
    fields.emplace("dataset", dataset);
    fields.emplace("mode", "delta");
    fields.emplace("batch", static_cast<uint64_t>(i));
    fields.emplace("post_seconds", delta[i]);
    std::fprintf(
        stderr, "%s\n",
        bench::BenchJsonl("micro_pipeline.incremental", fields).c_str());
  }
  JsonObject summary;
  summary.emplace("dataset", dataset);
  summary.emplace("total_delta_seconds", delta_total);
  std::fprintf(stderr, "%s\n",
               bench::BenchJsonl("micro_pipeline.incremental_total", summary)
                   .c_str());
  return doc;
}

void WritePipelineBaseline() {
  // Largest synthetic dataset by default size (the acceptance workload).
  const std::vector<DatasetSpec> specs = AllDatasetSpecs();
  const DatasetSpec* largest = nullptr;
  for (const auto& spec : specs) {
    if (!largest || spec.default_nodes > largest->default_nodes) {
      largest = &spec;
    }
  }
  auto g = GenerateGraph(*largest, {});
  if (!g.ok()) {
    std::fprintf(stderr, "baseline generation failed: %s\n",
                 g.status().ToString().c_str());
    return;
  }
  const int hw = ThreadPool::HardwareConcurrency();
  if (hw <= 1) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency() <= 1 — the multi-thread "
                 "runs below measure pure runtime overhead, not speedup; "
                 "treat speedup_vs_1thread in this baseline accordingly\n");
  }

  JsonObject doc;
  doc.emplace("bench", "micro_pipeline.baseline");
  doc.emplace("dataset", largest->name);
  doc.emplace("nodes", g->num_nodes());
  doc.emplace("edges", g->num_edges());
  doc.emplace("hardware_threads", hw);
  // Which kernel flavour the PGHIVE_SIMD dispatch resolved to for this
  // recording (the flavours are bit-identical; only the timings differ).
  doc.emplace("simd", simd::ModeName());
  // threads = 1 and hardware concurrency, plus 8 (the acceptance-criteria
  // point) when the hardware count differs. On a single-core host the
  // multi-thread runs measure pure runtime overhead, not speedup — the
  // recorded hardware_threads field says which situation this file holds.
  JsonArray runs;
  runs.push_back(TimedRun(*g, 1, /*reps=*/3, hw));
  if (hw > 1) runs.push_back(TimedRun(*g, hw, /*reps=*/3, hw));
  if (hw != 8) runs.push_back(TimedRun(*g, 8, /*reps=*/3, hw));
  double t1 = runs[0].AsObject().at("total_seconds").AsDouble();
  double tn = runs.back().AsObject().at("total_seconds").AsDouble();
  doc.emplace("runs", std::move(runs));
  if (t1 > 0.0 && tn > 0.0) {
    doc.emplace("speedup_vs_1thread", t1 / tn);
  }
  doc.emplace("incremental", IncrementalScalingToJson(*g, largest->name));

  // The same runs once more in the shared JSONL metric schema, so the
  // perf trajectory can be tailed/joined with --metrics-out exports.
  for (const JsonValue& run : doc.at("runs").AsArray()) {
    const JsonObject& r = run.AsObject();
    JsonObject fields;
    fields.emplace("dataset", largest->name);
    fields.emplace("threads", r.at("threads"));
    fields.emplace("total_seconds", r.at("total_seconds"));
    std::fprintf(stderr, "%s\n",
                 bench::BenchJsonl("micro_pipeline.baseline", fields).c_str());
  }

  const char* out = std::getenv("PGHIVE_BENCH_OUT");
  const std::string path = out && *out ? out : "BENCH_pipeline.json";
  Status s = WriteFile(path, JsonValue(std::move(doc)).Pretty() + "\n");
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "wrote per-stage baseline to %s\n", path.c_str());
}

}  // namespace
}  // namespace pghive

int main(int argc, char** argv) {
  // The baseline reads its timings from spans; the google-benchmark loops
  // below run with tracing off so they measure the disabled-path overhead.
  pghive::bench::EnableObservability();
  pghive::WritePipelineBaseline();
  pghive::bench::DisableObservability();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pghive::bench::ExportObsFromEnv();
  return 0;
}
