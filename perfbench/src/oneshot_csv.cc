// oneshot_csv: the paper's static mode, closed loop, one discovery at a
// time. Setup writes IYP x4 (48k nodes, 240k edges) as CSV; each operation
// reads both files, builds the graph, runs the pipeline over one full batch
// with min(4, nproc) threads, post-processes and renders the schema JSON.

#include <malloc.h>

#include <algorithm>

#include "common/hash.h"
#include "core/pipeline.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "eval/f1.h"
#include "graph/csv_io.h"
#include "layers.h"
#include "obs/trace.h"
#include "stats.h"
#include "workload.h"

namespace pgbench {

using namespace pghive;

namespace {

constexpr int kScale = 4;

uint64_t InstanceDigest(const SchemaGraph& schema) {
  const std::string json = InstanceJson(schema);
  return Fnv1a64(json.data(), json.size());
}

}  // namespace

RunResult RunOneshotCsv(const RunConfig& config) {
  RunResult r;
  r.threads = std::min(4, Nproc());
  const std::string nodes_path = config.workdir + "/oneshot.nodes.csv";
  const std::string edges_path = config.workdir + "/oneshot.edges.csv";

  size_t nodes = 0, edges = 0, csv_bytes = 0;
  const double setup_s = TimeSetup([&] {
    const DatasetSpec spec = DatasetSpecByName("IYP").value();
    GenerateOptions gen;
    gen.num_nodes = kScale * spec.default_nodes;
    gen.num_edges = kScale * spec.default_edges;
    gen.seed = config.seed;
    const PropertyGraph g = GenerateGraph(spec, gen).value();
    const std::string n = NodesToCsv(g), e = EdgesToCsv(g);
    WriteFileOrDie(nodes_path, n);
    WriteFileOrDie(edges_path, e);
    nodes = g.num_nodes();
    edges = g.num_edges();
    csv_bytes = n.size() + e.size();
  });

  PipelineOptions options;
  options.num_threads = r.threads;

  // Oracle: the digest of DiscoverSchema over the same CSV input. The
  // reference graph and schema are freed before the first operation, so
  // they do not count into peak_rss_mb.
  const double oracle_start = NowSeconds();
  uint64_t reference_digest = 0;
  double node_f1 = 0.0, edge_f1 = 0.0, signatures_per_element = 0.0;
  {
    const PropertyGraph reference_graph =
        GraphFromCsv(ReadFileOrDie(nodes_path), ReadFileOrDie(edges_path))
            .value();
    const SchemaGraph reference =
        PgHivePipeline(options).DiscoverSchema(reference_graph).value();
    reference_digest = InstanceDigest(reference);
    node_f1 = MajorityF1Nodes(reference_graph, reference).f1;
    edge_f1 = MajorityF1Edges(reference_graph, reference).f1;
    signatures_per_element =
        Ratio(reference_graph.NodeSignatureGroups().size() +
                  reference_graph.EdgeSignatureGroups().size(),
              nodes + edges);
  }
  malloc_trim(0);
  const double oracle_s = NowSeconds() - oracle_start;

  std::vector<double> plain_walls, traced_walls;
  std::vector<OpTrace> traces;
  size_t raw_clusters = 0, node_types = 0, edge_types = 0;

  RunFor(config.seconds, config.trace ? 2 : 1, [&](int i) {
    const bool traced = config.trace && i % 2 == 1;
    ++r.attempted;
    SchemaGraph schema;
    Status status;
    BeginOp(traced);
    const double start = NowSeconds();
    {
      obs::ScopedSpan op(kOpSpan);
      std::string nodes_csv, edges_csv;
      {
        obs::ScopedSpan s("bench.graph.read");
        nodes_csv = ReadFileOrDie(nodes_path);
        edges_csv = ReadFileOrDie(edges_path);
      }
      Result<PropertyGraph> g = [&] {
        obs::ScopedSpan s("bench.graph.parse_build");
        return GraphFromCsv(nodes_csv, edges_csv);
      }();
      if (!g.ok()) {
        status = g.status();
      } else {
        PgHivePipeline pipeline(options);
        {
          obs::ScopedSpan s("bench.core.process_batch");
          status = pipeline.ProcessBatch(FullBatch(*g), &schema);
        }
        if (status.ok()) {
          {
            obs::ScopedSpan s("bench.core.post_process");
            pipeline.PostProcess(*g, &schema);
          }
          obs::ScopedSpan s("bench.core.schema_json");
          const std::string json = SchemaToJson(schema);
          if (json.empty()) status = Status::Internal("empty schema JSON");
        }
        const BatchDiagnostics& diag = pipeline.last_diagnostics();
        raw_clusters = diag.node_clusters + diag.edge_clusters;
      }
    }
    const double wall = NowSeconds() - start;
    OpTrace trace = EndOp();

    if (!status.ok()) {
      r.Fail("discover: " + status.ToString());
      return true;
    }
    if (InstanceDigest(schema) != reference_digest) {
      r.Fail("discover: schema digest differs from DiscoverSchema");
      return true;
    }
    node_types = schema.node_types.size();
    edge_types = schema.edge_types.size();
    (traced ? traced_walls : plain_walls).push_back(wall);
    if (traced) traces.push_back(std::move(trace));
    return true;
  });

  // A run holds 20-30 discoveries, too few for any percentile above the
  // median to have 10 samples beyond it, so op_tail_ms is the median here
  // (discover_tail_q says which level was taken).
  const Tail tail = HighestTail(plain_walls, 0.95);
  double total = 0.0;
  for (double w : plain_walls) total += w;
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.end_to_end["op_p50_ms"] = {Median(plain_walls) * 1e3, "ms"};
  r.end_to_end["op_tail_ms"] = {tail.value * 1e3, "ms"};
  r.end_to_end["throughput_per_s"] = {Ratio(plain_walls.size(), total), "1/s"};
  r.end_to_end["node_f1"] = {node_f1, "ratio"};
  r.end_to_end["edge_f1"] = {edge_f1, "ratio"};

  r.report["discover_s"] = {Median(plain_walls), "s"};
  r.report["discover_samples"] = {double(plain_walls.size()), "count"};
  r.report["discover_tail_q"] = {tail.q, "quantile"};
  r.report["node_f1"] = {node_f1, "ratio"};
  r.report["edge_f1"] = {edge_f1, "ratio"};
  r.report["oracle_s"] = {oracle_s, "s"};
  r.inputs["nodes"] = nodes;
  r.inputs["edges"] = edges;
  r.inputs["csv_bytes"] = csv_bytes;

  if (config.trace) {
    auto span = [&](const std::string& name) {
      return MedianSpan(traces, name);
    };
    auto& m = r.per_layer;
    AddSpanMetrics(traces, &m);
    m["graph.read_s"] = {span("bench.graph.read"), "s"};
    m["graph.parse_build_s"] = {span("bench.graph.parse_build"), "s"};
    m["graph.parse_mb_per_s"] = {
        Ratio(csv_bytes / 1e6, span("bench.graph.parse_build")), "MB/s"};
    m["graph.signatures_per_element"] = {signatures_per_element, "ratio"};
    m["core.schema_json_s"] = {span("bench.core.schema_json"), "s"};
    m["core.node_types"] = {static_cast<double>(node_types), "count"};
    m["core.edge_types"] = {static_cast<double>(edge_types), "count"};
    m["cluster.raw_clusters"] = {static_cast<double>(raw_clusters), "count"};
    m["cluster.types_per_raw_cluster"] = {
        Ratio(node_types + edge_types, raw_clusters), "ratio"};
    m["obs.trace_overhead_ratio"] = {
        Ratio(Median(traced_walls), Median(plain_walls)), "ratio"};
  }
  return r;
}

}  // namespace pgbench
