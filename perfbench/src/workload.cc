#include "workload.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/schema_json.h"
#include "layers.h"
#include "stats.h"

namespace pgbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"op_p50_ms", "ms"},         {"op_tail_ms", "ms"},
      {"throughput_per_s", "1/s"}, {"node_f1", "ratio"},
      {"edge_f1", "ratio"},        {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"graph.read_s", "s"},
      {"graph.parse_build_s", "s"},
      {"graph.parse_mb_per_s", "MB/s"},
      {"graph.signatures_per_element", "ratio"},
      {"graph.self_s", "s"},
      {"core.process_batch_s", "s"},
      {"core.post_process_s", "s"},
      {"pipeline.embed_train_s", "s"},
      {"pipeline.encode_nodes_s", "s"},
      {"pipeline.encode_edges_s", "s"},
      {"pipeline.extract_nodes_s", "s"},
      {"pipeline.extract_edges_s", "s"},
      {"pipeline.post_fold_s", "s"},
      {"pipeline.post_constraints_s", "s"},
      {"core.schema_json_s", "s"},
      {"incremental.batch_s", "s"},
      {"incremental.mutation_batch_s", "s"},
      {"core.node_types", "count"},
      {"core.edge_types", "count"},
      {"core.self_s", "s"},
      {"pipeline.cluster_nodes_s", "s"},
      {"pipeline.cluster_edges_s", "s"},
      {"cluster.raw_clusters", "count"},
      {"cluster.types_per_raw_cluster", "ratio"},
      {"cluster.self_s", "s"},
      {"runtime.chunks", "count"},
      {"runtime.chunk_s", "s"},
      {"runtime.self_s", "s"},
      {"store.feed_plain_ms", "ms"},
      {"store.feed_checkpoint_ms", "ms"},
      {"store.checkpoint_s", "s"},
      {"store.fsync_count", "count"},
      {"store.fsync_p50_us", "us"},
      {"store.journal_bytes", "bytes"},
      {"store.snapshot_bytes_written", "bytes"},
      {"store.bytes_written_per_input_byte", "ratio"},
      {"store.replayed_batches", "count"},
      {"store.self_s", "s"},
      {"drift.epochs_recorded", "count"},
      {"drift.events", "count"},
      {"serve.post_rtt_p50_us", "us"},
      {"serve.rejected_429", "count"},
      {"serve.queue_wait_s", "s"},
      {"serve.apply_s", "s"},
      {"serve.snapshot_publish_s", "s"},
      {"serve.parse_s", "s"},
      {"serve.read_bytes", "bytes"},
      {"serve.reads", "count"},
      {"serve.generator_lag_ms", "ms"},
      {"serve.self_s", "s"},
      {"obs.coverage", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"obs.unattributed_s", "s"},
  };
  return kMetrics;
}

double MedianOver(const std::vector<OpTrace>& traces,
                  const std::function<double(const OpTrace&)>& f) {
  std::vector<double> values;
  for (const OpTrace& t : traces) values.push_back(f(t));
  return Median(values);
}

double MedianSpan(const std::vector<OpTrace>& traces, const std::string& name) {
  return MedianOver(traces, [&](const OpTrace& t) { return t.Span(name); });
}

std::string InstanceJson(const pghive::SchemaGraph& schema) {
  pghive::SchemaJsonOptions opt;
  opt.include_instances = true;
  opt.pretty = false;
  return pghive::SchemaToJson(schema, opt);
}

void AddSpanMetrics(const std::vector<OpTrace>& traces,
                    std::map<std::string, Metric>* per_layer) {
  auto& m = *per_layer;
  auto span = [&](const std::string& name) { return MedianSpan(traces, name); };
  m["core.process_batch_s"] = {span("pipeline.batch"), "s"};
  m["core.post_process_s"] = {span("pipeline.post_process"), "s"};
  for (const char* stage :
       {"embed_train", "encode_nodes", "encode_edges", "extract_nodes",
        "extract_edges", "post_fold", "post_constraints", "cluster_nodes",
        "cluster_edges"}) {
    const std::string name = std::string("pipeline.") + stage;
    m[name + "_s"] = {span(name), "s"};
  }
  m["incremental.batch_s"] = {span("incremental.batch"), "s"};
  m["incremental.mutation_batch_s"] = {span("incremental.mutation_batch"),
                                       "s"};
  m["runtime.chunks"] = {MedianOver(traces,
                                    [](const OpTrace& t) {
                                      return double(t.Count("runtime.chunk"));
                                    }),
                         "count"};
  m["runtime.chunk_s"] = {span("runtime.chunk"), "s"};
  for (const char* layer :
       {"graph", "core", "cluster", "runtime", "store", "serve"}) {
    m[std::string(layer) + ".self_s"] = {
        MedianOver(traces, [&](const OpTrace& t) { return t.Self(layer); }),
        "s"};
  }
  m["obs.unattributed_s"] = {
      MedianOver(traces, [](const OpTrace& t) { return t.Self("bench"); }),
      "s"};
  m["obs.coverage"] = {MedianOver(traces,
                                  [](const OpTrace& t) {
                                    return Ratio(t.op_covered_seconds,
                                                 t.op_seconds);
                                  }),
                       "ratio"};
}

uint64_t DriftEvents(const pghive::drift::DriftCounters& c) {
  return c.node_types_added + c.node_types_retired + c.edge_types_added +
         c.edge_types_retired + c.properties_added + c.properties_removed +
         c.properties_became_optional + c.properties_became_mandatory +
         c.datatypes_changed + c.cardinality_changes;
}

double NowSeconds() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

double TimeSetup(const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) {
    const double start = NowSeconds();
    setup();
    times.push_back(NowSeconds() - start);
  }
  return Median(times);
}

void RunFor(double seconds, int min_ops, const std::function<bool(int)>& op) {
  const double start = NowSeconds();
  double longest = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = NowSeconds() - start;
    if (i >= min_ops && elapsed + longest > seconds) break;
    const double op_start = NowSeconds();
    if (!op(i)) break;
    // Hand freed heap back between operations, so that how many threads
    // ran an operation (and which malloc arenas they used) does not carry
    // into the next one's peak RSS.
    malloc_trim(0);
    longest = std::max(longest, NowSeconds() - op_start);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return 1;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "pgbench: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileOrDie(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) {
    std::fprintf(stderr, "pgbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace pgbench
