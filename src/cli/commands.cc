#include "cli/commands.h"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "drift/drift_tracker.h"
#include "drift/replay.h"
#include "core/label_alias.h"
#include "core/pipeline.h"
#include "core/schema_diff.h"
#include "core/pgschema_parser.h"
#include "core/schema_json.h"
#include "core/serialization.h"
#include "core/validation.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "datagen/noise.h"
#include "eval/f1.h"
#include "graph/csv_io.h"
#include "graph/graph_stats.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/state_store.h"

namespace pghive {

namespace {

/// Where to export observability data after the command ran. Resolved from
/// --metrics-out / --trace-out, falling back to the PGHIVE_METRICS /
/// PGHIVE_TRACE environment variables (same meaning, for wrappers that
/// cannot edit the argv).
struct ObsConfig {
  std::string metrics_out;
  std::string trace_out;
  obs::MetricsFormat metrics_format = obs::MetricsFormat::kJsonl;
};

Result<ObsConfig> ConfigureObservability(const Args& args) {
  if (args.Has("log-level")) {
    LogLevel level = LogLevel::kWarning;
    const std::string name = args.GetString("log-level");
    if (!ParseLogLevel(name, &level)) {
      return Status::InvalidArgument("unknown --log-level '" + name +
                                     "' (debug|info|warning|error)");
    }
    SetLogLevel(level);
  }
  if (args.GetBool("log-json", false)) SetLogFormat(LogFormat::kJson);

  ObsConfig config;
  config.metrics_out = args.GetString("metrics-out");
  config.trace_out = args.GetString("trace-out");
  if (config.metrics_out.empty()) {
    if (const char* env = std::getenv("PGHIVE_METRICS")) {
      config.metrics_out = env;
    }
  }
  if (config.trace_out.empty()) {
    if (const char* env = std::getenv("PGHIVE_TRACE")) {
      config.trace_out = env;
    }
  }
  if (args.Has("metrics-format")) {
    PGHIVE_ASSIGN_OR_RETURN(
        config.metrics_format,
        obs::ParseMetricsFormat(args.GetString("metrics-format")));
  }
  // Either output turns full collection on: the metrics JSONL embeds
  // span_stats lines, so metrics-only still needs spans recorded.
  if (!config.metrics_out.empty() || !config.trace_out.empty()) {
    obs::SetMetricsEnabled(true);
    obs::Tracer::Global().SetEnabled(true);
  }
  return config;
}

/// Runs after the command, even when it failed (a trace of a failed run is
/// exactly what one wants to look at). The command's status wins; export
/// failures surface only when the command itself succeeded.
Status ExportObservability(const ObsConfig& config) {
  Status status = Status::OK();
  if (!config.metrics_out.empty()) {
    Status s = obs::WriteMetricsFile(config.metrics_out,
                                     config.metrics_format);
    if (status.ok()) status = s;
  }
  if (!config.trace_out.empty()) {
    Status s = obs::WriteChromeTrace(config.trace_out);
    if (status.ok()) status = s;
  }
  return status;
}

Result<PropertyGraph> LoadPrefix(const std::string& prefix) {
  auto g = LoadGraphCsv(prefix);
  if (!g.ok()) {
    return Status(g.status().code(),
                  "cannot load graph '" + prefix + "': " +
                      g.status().message());
  }
  return g;
}

// Applies a --aliases file (alias=canonical lines) to the loaded graph, so
// inconsistent label vocabularies integrate before discovery. When
// `applied` is non-null, the raw entries are recorded there (durable runs
// persist them in snapshots for provenance).
Status MaybeApplyAliases(
    const Args& args, PropertyGraph* g,
    std::vector<std::pair<std::string, std::string>>* applied = nullptr) {
  if (!args.Has("aliases")) return Status::OK();
  PGHIVE_ASSIGN_OR_RETURN(std::string text,
                          ReadFile(args.GetString("aliases")));
  PGHIVE_ASSIGN_OR_RETURN(AliasTable table, AliasTable::FromText(text));
  if (applied != nullptr) {
    applied->assign(table.entries().begin(), table.entries().end());
  }
  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph aliased, ApplyAliases(*g, table));
  *g = std::move(aliased);
  return Status::OK();
}

Result<PipelineOptions> PipelineOptionsFromArgs(const Args& args) {
  PipelineOptions opt;
  std::string method = ToLower(args.GetString("method", "elsh"));
  if (method == "elsh") {
    opt.method = ClusteringMethod::kElsh;
  } else if (method == "minhash") {
    opt.method = ClusteringMethod::kMinHash;
  } else {
    return Status::InvalidArgument("unknown --method '" + method +
                                   "' (elsh|minhash)");
  }
  double theta = args.GetDouble("theta", 0.9);
  if (theta < 0.0 || theta > 1.0) {
    return Status::InvalidArgument("--theta must be in [0,1]");
  }
  opt.extraction.jaccard_threshold = theta;
  opt.post_process = !args.GetBool("no-post", false);
  opt.datatypes.sample = args.GetBool("sample-datatypes", false);
  opt.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  PGHIVE_ASSIGN_OR_RETURN(opt.num_threads, args.GetThreads());
  if (args.Has("bucket")) {
    opt.adaptive_parameters = false;
    opt.elsh.bucket_length = args.GetDouble("bucket", 1.0);
    opt.elsh.num_tables = static_cast<int>(args.GetInt("tables", 20));
  }
  return opt;
}

/// Parses a --deletions file into a deletion-only mutation batch. Each
/// record is exactly `node <id>` or `edge <id>`, where <id> is a complete
/// unsigned decimal (the CSV src/tgt rule); `#` starts a comment and blank
/// lines are skipped. Grammar errors name path:line.
Result<MutationBatch> ParseDeletionsFile(const std::string& path) {
  PGHIVE_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  std::istringstream in(text);
  MutationBatch batch;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string kind, id_text, extra;
    if (!(fields >> kind)) continue;  // blank / comment-only line
    fields >> id_text >> extra;
    const char* end = id_text.data() + id_text.size();
    uint64_t id = 0;
    const auto [stop, ec] = std::from_chars(id_text.data(), end, id);
    if ((kind != "node" && kind != "edge") || ec != std::errc() ||
        stop != end || !extra.empty()) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(lineno) +
          ": expected 'node <id>' or 'edge <id>' with an unsigned decimal "
          "id, got '" + std::string(Trim(line)) + "'");
    }
    if (kind == "node") {
      batch.mutations.delete_nodes.push_back(id);
    } else {
      batch.mutations.delete_edges.push_back(id);
    }
  }
  return batch;
}

/// Checks a deletion batch against the whole graph: ApplyMutationBatch
/// rejects unknown and repeated ids, and a deleted node must take every
/// incident edge with it (the endpoint-closure contract of
/// graph/mutations.h, which the engine leaves to its callers). O(edges).
Result<drift::AppliedBatch> LoadDeletionBatch(const std::string& path,
                                               PropertyGraph* g) {
  PGHIVE_ASSIGN_OR_RETURN(MutationBatch batch, ParseDeletionsFile(path));
  auto applied = drift::ApplyMutationBatch(g, batch);
  if (!applied.ok()) {
    return Status(applied.status().code(),
                  path + ": " + applied.status().message());
  }
  std::vector<char> dead_node(g->num_nodes(), 0);
  for (NodeId id : applied->deleted_nodes) dead_node[id] = 1;
  std::vector<char> dead_edge(g->num_edges(), 0);
  for (EdgeId id : applied->deleted_edges) dead_edge[id] = 1;
  for (EdgeId id = 0; id < g->num_edges(); ++id) {
    const Edge& e = g->edge(id);
    if (dead_edge[id] || (!dead_node[e.source] && !dead_node[e.target])) {
      continue;
    }
    const NodeId node = dead_node[e.source] ? e.source : e.target;
    return Status::InvalidArgument(
        path + ": deleted node " + std::to_string(node) +
        " keeps incident edge " + std::to_string(id) +
        "; delete the edge too");
  }
  return applied;
}

/// Feeds `g` to `discoverer` as `batches` batches, reporting progress to
/// stderr (so --format json on stdout stays clean) when --progress is set.
Status FeedBatches(const Args& args, const PropertyGraph& g, size_t batches,
                   IncrementalDiscoverer* discoverer) {
  const bool progress = args.GetBool("progress", false);
  const auto splits = SplitIntoBatches(g, batches);
  size_t fed = 0;
  for (const auto& batch : splits) {
    PGHIVE_RETURN_NOT_OK(discoverer->Feed(batch));
    ++fed;
    if (progress) {
      std::cerr << "batch " << fed << "/" << splits.size() << "  nodes="
                << batch.num_nodes() << " edges=" << batch.num_edges()
                << "  types=" << discoverer->schema().node_types.size()
                << "n/" << discoverer->schema().edge_types.size() << "e  "
                << FormatDouble(discoverer->batch_seconds().back(), 3)
                << "s\n";
    }
  }
  return Status::OK();
}

Result<SchemaGraph> DiscoverFromArgs(const Args& args,
                                     const PropertyGraph& g) {
  PGHIVE_ASSIGN_OR_RETURN(PipelineOptions opt, PipelineOptionsFromArgs(args));
  int64_t batches = args.GetInt("incremental", 0);
  if (batches > 1) {
    IncrementalOptions inc;
    inc.pipeline = opt;
    IncrementalDiscoverer discoverer(inc);
    PGHIVE_RETURN_NOT_OK(
        FeedBatches(args, g, static_cast<size_t>(batches), &discoverer));
    return discoverer.Finish(g);
  }
  PgHivePipeline pipeline(opt);
  return pipeline.DiscoverSchema(g);
}

/// `discover --deletions`: discovery through the incremental engine (one
/// batch, or N with --incremental N), then the file's elements retract as
/// one deletion-only mutation batch — FeedMutations, the path durable and
/// served runs take — before the schema is finished.
Result<SchemaGraph> DiscoverWithDeletions(const Args& args, PropertyGraph* g,
                                          std::ostream& out) {
  PGHIVE_ASSIGN_OR_RETURN(PipelineOptions opt, PipelineOptionsFromArgs(args));
  // Validated before discovery, so a bad file fails fast.
  PGHIVE_ASSIGN_OR_RETURN(drift::AppliedBatch deletions,
                          LoadDeletionBatch(args.GetString("deletions"), g));
  IncrementalOptions inc;
  inc.pipeline = opt;
  IncrementalDiscoverer discoverer(inc);
  const int64_t batches = args.GetInt("incremental", 1);
  PGHIVE_RETURN_NOT_OK(FeedBatches(
      args, *g, static_cast<size_t>(std::max<int64_t>(batches, 1)),
      &discoverer));
  const size_t node_types = discoverer.schema().node_types.size();
  const size_t edge_types = discoverer.schema().edge_types.size();
  PGHIVE_RETURN_NOT_OK(discoverer.FeedMutations(
      deletions.batch, deletions.deleted_nodes, deletions.deleted_edges));
  out << "deletions: removed " << deletions.deleted_nodes.size()
      << " node(s)/" << deletions.deleted_edges.size() << " edge(s), retired "
      << node_types - discoverer.schema().node_types.size()
      << " node type(s)/"
      << edge_types - discoverer.schema().edge_types.size()
      << " edge type(s)\n";
  return discoverer.Finish(*g);
}

void PrintSchemaSummary(const SchemaGraph& schema, const PropertyGraph& g,
                        std::ostream& out) {
  out << "discovered " << SchemaSummary(schema) << "\n\n";
  for (const auto& t : schema.node_types) {
    out << "node type " << t.name << "  instances=" << t.instances.size()
        << "\n";
    for (const auto& [key, c] : t.constraints) {
      out << "    " << key << " " << DataTypeName(c.type)
          << (c.mandatory ? " MANDATORY" : " OPTIONAL") << "\n";
    }
  }
  for (const auto& t : schema.edge_types) {
    out << "edge type " << t.name << "  (" << Join(t.source_labels, "|")
        << ")->(" << Join(t.target_labels, "|") << ")  cardinality "
        << SchemaCardinalityName(t.cardinality)
        << "  instances=" << t.instances.size() << "\n";
  }
  // Report quality when the input carries ground truth.
  F1Result node_f1 = MajorityF1Nodes(g, schema);
  if (node_f1.instances > 0) {
    F1Result edge_f1 = MajorityF1Edges(g, schema);
    out << "\nground truth present: node F1*=" << FormatDouble(node_f1.f1, 3)
        << " edge F1*=" << FormatDouble(edge_f1.f1, 3) << "\n";
  }
}

/// Shared by `discover --state-dir` and `resume`: opens (recovering if
/// needed) the durable store, feeds the graph's not-yet-applied stream
/// batches, and finishes. The batch count must match across runs of the
/// same state directory, or the stream slicing diverges.
Result<SchemaGraph> DurableDiscoverFromArgs(const Args& args,
                                            const PropertyGraph& g,
                                            const std::string& state_dir,
                                            std::ostream& out) {
  store::StoreOptions sopt;
  PGHIVE_ASSIGN_OR_RETURN(sopt.incremental.pipeline,
                          PipelineOptionsFromArgs(args));
  int64_t batches = args.GetInt("incremental", 10);
  if (batches < 1) {
    return Status::InvalidArgument(
        "--state-dir requires --incremental N with N >= 1");
  }
  sopt.checkpoint_every_batches =
      static_cast<uint64_t>(args.GetInt("checkpoint-every", 16));
  sopt.fsync = !args.GetBool("no-fsync", false);
  sopt.allow_options_mismatch = args.GetBool("force-options", false);
  if (args.Has("aliases")) {
    PGHIVE_ASSIGN_OR_RETURN(std::string text,
                            ReadFile(args.GetString("aliases")));
    PGHIVE_ASSIGN_OR_RETURN(AliasTable table, AliasTable::FromText(text));
    sopt.aliases.assign(table.entries().begin(), table.entries().end());
  }

  store::RecoveryReport report;
  PGHIVE_ASSIGN_OR_RETURN(
      std::unique_ptr<store::DurableDiscoverer> store,
      store::DurableDiscoverer::OpenOrRecover(state_dir, sopt, &report));
  out << "state: " << report.ToString() << "\n";

  std::vector<store::BatchPayload> payloads =
      store::MakeStreamBatches(g, static_cast<size_t>(batches));
  if (store->batches_applied() > payloads.size()) {
    return Status::FailedPrecondition(
        "state directory contains " +
        std::to_string(store->batches_applied()) +
        " applied batches but the input splits into only " +
        std::to_string(payloads.size()) +
        " — wrong graph or --incremental count?");
  }
  const bool progress = args.GetBool("progress", false);
  for (size_t i = store->batches_applied(); i < payloads.size(); ++i) {
    PGHIVE_RETURN_NOT_OK(store->Feed(payloads[i]));
    if (progress) {
      std::cerr << "batch " << store->batches_applied() << "/"
                << payloads.size() << "  types="
                << store->schema().node_types.size() << "n/"
                << store->schema().edge_types.size() << "e  "
                << FormatDouble(store->batch_seconds().back(), 3) << "s\n";
    }
  }
  out << "applied " << store->batches_applied() << "/" << payloads.size()
      << " batches, state in " << store->dir() << "\n";
  return store->Finish();
}

}  // namespace

Status CmdDiscover(const Args& args, std::ostream& out) {
  if (args.positional().size() < 2) {
    return Status::InvalidArgument(
        "usage: pghive discover <graph-prefix> [--method elsh|minhash] "
        "[--theta 0.9] [--incremental N] [--state-dir DIR] "
        "[--checkpoint-every N] [--no-fsync] [--force-options] "
        "[--format summary|pgschema|xsd|json] [--mode strict|loose] "
        "[--deletions file (`node <id>`/`edge <id>` lines, retracted after "
        "discovery; deleted nodes take their edges along; not with "
        "--state-dir)] "
        "[--save-schema file.json] [--aliases aliases.txt] [--no-post] "
        "[--sample-datatypes] [--seed N] [--bucket B --tables T] "
        "[--threads N (0 = all cores; PGHIVE_THREADS env fallback)] "
        "[--metrics-out m.jsonl] [--trace-out trace.json] [--progress] "
        "[--log-level debug|info|warning|error] [--log-json]");
  }
  // Root span: its direct children (graph.from_csv, pipeline.discover or
  // the incremental/store spans, output.format, cli.teardown) attribute the
  // command's wall time from --metrics-out alone.
  obs::ScopedSpan root("cli.discover");
  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph g, LoadPrefix(args.positional()[1]));
  PGHIVE_RETURN_NOT_OK(MaybeApplyAliases(args, &g));
  SchemaGraph schema;
  if (args.Has("state-dir")) {
    if (args.Has("deletions")) {
      // Durable feeds reorder edges into stream batches, so the schema's
      // edge ids no longer match the input CSV's — a post-hoc deletion file
      // would name the wrong elements. Durable runs retract through the
      // journaled mutation path instead.
      return Status::InvalidArgument(
          "--deletions does not combine with --state-dir; durable runs "
          "apply deletions as journaled mutation batches (see src/drift/)");
    }
    PGHIVE_ASSIGN_OR_RETURN(
        schema,
        DurableDiscoverFromArgs(args, g, args.GetString("state-dir"), out));
  } else if (args.Has("deletions")) {
    PGHIVE_ASSIGN_OR_RETURN(schema, DiscoverWithDeletions(args, &g, out));
  } else {
    PGHIVE_ASSIGN_OR_RETURN(schema, DiscoverFromArgs(args, g));
  }

  {
    obs::ScopedSpan span("output.format");
    if (args.Has("save-schema")) {
      const std::string path = args.GetString("save-schema");
      PGHIVE_RETURN_NOT_OK(SaveSchemaJson(schema, path));
      out << "saved schema to " << path << "\n";
    }

    std::string format = ToLower(args.GetString("format", "summary"));
    std::string mode_str = ToLower(args.GetString("mode", "strict"));
    PgSchemaMode mode =
        mode_str == "loose" ? PgSchemaMode::kLoose : PgSchemaMode::kStrict;
    if (format == "summary") {
      PrintSchemaSummary(schema, g, out);
    } else if (format == "pgschema") {
      out << ToPgSchema(schema, args.positional()[1], mode);
    } else if (format == "xsd") {
      out << ToXsd(schema);
    } else if (format == "json") {
      out << SchemaToJson(schema);
    } else {
      return Status::InvalidArgument("unknown --format '" + format +
                                     "' (summary|pgschema|xsd|json)");
    }
    out.flush();
  }
  // Free the graph and schema under a span of their own: on IYP x4 that
  // takes longer than writing the output.
  obs::ScopedSpan span("cli.teardown");
  g = PropertyGraph();
  schema = SchemaGraph();
  return Status::OK();
}

Status CmdResume(const Args& args, std::ostream& out) {
  if (args.positional().size() < 2 || !args.Has("state-dir")) {
    return Status::InvalidArgument(
        "usage: pghive resume <graph-prefix> --state-dir DIR "
        "[discovery flags as passed to the original `discover` run]\n"
        "recovers the durable state (replaying any journaled batches a "
        "crash left unapplied), feeds the remaining batches of the graph "
        "and finishes the schema. Discovery options and --incremental "
        "count must match the original run.");
  }
  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph g, LoadPrefix(args.positional()[1]));
  PGHIVE_RETURN_NOT_OK(MaybeApplyAliases(args, &g));
  PGHIVE_ASSIGN_OR_RETURN(
      SchemaGraph schema,
      DurableDiscoverFromArgs(args, g, args.GetString("state-dir"), out));

  if (args.Has("save-schema")) {
    const std::string path = args.GetString("save-schema");
    PGHIVE_RETURN_NOT_OK(SaveSchemaJson(schema, path));
    out << "saved schema to " << path << "\n";
  }
  std::string format = ToLower(args.GetString("format", "summary"));
  if (format == "summary") {
    PrintSchemaSummary(schema, g, out);
  } else if (format == "json") {
    out << SchemaToJson(schema);
  } else if (format == "pgschema") {
    out << ToPgSchema(schema, args.positional()[1], PgSchemaMode::kStrict);
  } else {
    return Status::InvalidArgument("unknown --format '" + format +
                                   "' (summary|pgschema|json)");
  }
  return Status::OK();
}

Status CmdInspectState(const Args& args, std::ostream& out) {
  if (args.positional().size() < 2) {
    return Status::InvalidArgument(
        "usage: pghive inspect-state <state-dir>\n"
        "reports every snapshot (per-section sizes and CRC verdicts) and "
        "journal segment (record counts, torn tails) of a durable state "
        "directory without modifying it.");
  }
  const std::string& dir = args.positional()[1];
  const std::vector<std::string> snapshots = store::ListSnapshotFiles(dir);
  const std::vector<std::string> journals = store::ListJournalFiles(dir);
  if (snapshots.empty() && journals.empty()) {
    out << "no durable state in '" << dir << "'\n";
    return Status::OK();
  }

  // One scan feeds both the report and the metrics registry, so this text
  // and a --metrics-out export of the same invocation cannot disagree.
  const store::StateDirMetrics metrics = store::CollectStateDirMetrics(dir);
  store::PublishStateDirMetrics(metrics);
  out << metrics.ToString() << "\n";

  for (const std::string& path : snapshots) {
    PGHIVE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
    out << "snapshot " << path << "  (" << bytes.size() << " bytes)\n";
    Result<store::SnapshotInfo> info = store::InspectSnapshot(bytes);
    if (!info.ok()) {
      out << "  unreadable: " << info.status().message() << "\n";
      continue;
    }
    out << "  format version " << info->format_version << ", header "
        << (info->header_ok ? "ok" : "CORRUPT") << "\n";
    for (const auto& s : info->sections) {
      out << "  section " << s.name << "  size=" << s.size << "  crc="
          << (s.crc_ok ? "ok" : "MISMATCH") << "\n";
    }
    Result<store::StoreSnapshot> snap = store::DecodeSnapshot(bytes);
    if (snap.ok()) {
      out << "  applied_batches=" << snap->applied_batches << "  graph="
          << snap->graph.num_nodes() << " nodes/" << snap->graph.num_edges()
          << " edges  schema=" << snap->schema.node_types.size()
          << " node types/" << snap->schema.edge_types.size()
          << " edge types\n"
          << "  options: " << snap->options_summary << "\n";
    } else {
      out << "  not loadable: " << snap.status().message() << "\n";
    }
  }

  for (const std::string& path : journals) {
    out << "journal " << path << "\n";
    Result<store::JournalReadResult> read = store::ReadJournalSegment(path);
    if (!read.ok()) {
      out << "  unreadable: " << read.status().message() << "\n";
      continue;
    }
    out << "  " << read->records.size() << " record(s)";
    if (!read->records.empty()) {
      out << "  batches " << read->records.front().batch_id << ".."
          << read->records.back().batch_id;
    }
    out << "\n";
    if (read->torn_tail) {
      out << "  torn tail: " << read->tail_error
          << " (recovery truncates to " << read->valid_bytes << " bytes)\n";
    }
  }
  return Status::OK();
}

Status CmdDrift(const Args& args, std::ostream& out) {
  if (args.positional().size() < 2) {
    return Status::InvalidArgument(
        "usage: pghive drift <state-dir> [--since N] [--format summary|json]\n"
        "reports the versioned schema-drift history of a durable state\n"
        "directory as of its newest checkpoint: cumulative counters plus\n"
        "the per-epoch diff records a mutation stream produced. --since N\n"
        "filters the history to epochs > N. Read-only (batches journaled\n"
        "after the last checkpoint are not included — a live daemon serves\n"
        "them at GET /v1/graphs/{g}/drift).");
  }
  const std::string& dir = args.positional()[1];
  const std::vector<std::string> snapshots = store::ListSnapshotFiles(dir);
  if (snapshots.empty()) {
    return Status::NotFound("no snapshot in '" + dir + "'");
  }
  PGHIVE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(snapshots.front()));
  PGHIVE_ASSIGN_OR_RETURN(store::StoreSnapshot snap,
                          store::DecodeSnapshot(bytes));
  if (!snap.has_drift) {
    return Status::NotFound(
        "'" + snapshots.front() +
        "' carries no drift history (pre-v4 snapshot, or the run had drift "
        "tracking off)");
  }
  drift::DriftTracker tracker;
  PGHIVE_RETURN_NOT_OK(tracker.Restore(snap.drift_history));
  const auto since = static_cast<uint64_t>(args.GetInt("since", 0));
  const std::string format = ToLower(args.GetString("format", "summary"));
  if (format == "json") {
    out << drift::DriftToJson(tracker, since).Dump() << "\n";
    return Status::OK();
  }
  if (format != "summary") {
    return Status::InvalidArgument("unknown --format '" + format +
                                   "' (summary|json)");
  }
  const drift::DriftCounters& c = tracker.counters();
  out << "drift history of " << snapshots.front() << " (epoch "
      << tracker.last_epoch() << ")\n"
      << "epochs observed:  " << c.epochs_observed << " (" << c.epochs_changed
      << " with schema changes)\n"
      << "node types:       +" << c.node_types_added << " / -"
      << c.node_types_retired << "\n"
      << "edge types:       +" << c.edge_types_added << " / -"
      << c.edge_types_retired << "\n"
      << "properties:       +" << c.properties_added << " / -"
      << c.properties_removed << "\n"
      << "constraints:      " << c.properties_became_mandatory
      << " became mandatory, " << c.properties_became_optional
      << " became optional\n"
      << "datatype changes: " << c.datatypes_changed << "\n"
      << "cardinality:      " << c.cardinality_changes << " change(s)\n";
  size_t shown = 0;
  for (const drift::DriftRecord& rec : tracker.history()) {
    if (rec.epoch <= since) continue;
    out << "\nepoch " << rec.epoch << ":\n" << rec.diff.ToString();
    ++shown;
  }
  if (shown == 0) out << "\nno recorded diffs after epoch " << since << "\n";
  return Status::OK();
}

Status CmdGenerate(const Args& args, std::ostream& out) {
  if (args.positional().size() < 3) {
    return Status::InvalidArgument(
        "usage: pghive generate <dataset> <output-prefix> [--nodes N] "
        "[--edges M] [--seed S] [--noise 0..1] [--labels 0..1]");
  }
  PGHIVE_ASSIGN_OR_RETURN(DatasetSpec spec,
                          DatasetSpecByName(args.positional()[1]));
  GenerateOptions gen;
  gen.num_nodes = static_cast<size_t>(args.GetInt("nodes", 0));
  gen.num_edges = static_cast<size_t>(args.GetInt("edges", 0));
  gen.seed = static_cast<uint64_t>(args.GetInt("seed", 1234));
  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph g, GenerateGraph(spec, gen));

  double noise = args.GetDouble("noise", 0.0);
  double labels = args.GetDouble("labels", 1.0);
  if (noise > 0.0 || labels < 1.0) {
    NoiseOptions nopt;
    nopt.property_removal = noise;
    nopt.label_availability = labels;
    nopt.seed = gen.seed + 1;
    PGHIVE_ASSIGN_OR_RETURN(g, InjectNoise(g, nopt));
  }
  const std::string& prefix = args.positional()[2];
  PGHIVE_RETURN_NOT_OK(SaveGraphCsv(g, prefix));
  out << "wrote " << prefix << ".nodes.csv (" << g.num_nodes()
      << " nodes) and " << prefix << ".edges.csv (" << g.num_edges()
      << " edges)\n";
  return Status::OK();
}

Status CmdStats(const Args& args, std::ostream& out) {
  if (args.positional().size() < 2) {
    return Status::InvalidArgument("usage: pghive stats <graph-prefix>");
  }
  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph g, LoadPrefix(args.positional()[1]));
  GraphStats s = ComputeGraphStats(g, args.positional()[1]);
  out << FormatStatsHeader() << "\n" << FormatStatsRow(s) << "\n";
  return Status::OK();
}

Status CmdValidate(const Args& args, std::ostream& out) {
  const bool from_file = args.Has("schema");
  if (args.positional().size() < (from_file ? 2u : 3u)) {
    return Status::InvalidArgument(
        "usage: pghive validate <schema-graph-prefix> <data-graph-prefix> "
        "[--strict] [--max-violations N], or pghive validate "
        "<data-graph-prefix> --schema <schema.json|schema.pgs> (saved by "
        "discover --save-schema, or a PG-Schema document)");
  }
  SchemaGraph schema;
  std::string data_prefix;
  if (from_file) {
    const std::string path = args.GetString("schema");
    if (EndsWith(path, ".pgs") || EndsWith(path, ".pgschema")) {
      PGHIVE_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
      PGHIVE_ASSIGN_OR_RETURN(ParsedPgSchema parsed, ParsePgSchema(text));
      schema = std::move(parsed.schema);
    } else {
      PGHIVE_ASSIGN_OR_RETURN(schema, LoadSchemaJson(path));
    }
    data_prefix = args.positional()[1];
  } else {
    PGHIVE_ASSIGN_OR_RETURN(PropertyGraph reference,
                            LoadPrefix(args.positional()[1]));
    PGHIVE_ASSIGN_OR_RETURN(schema, DiscoverFromArgs(args, reference));
    data_prefix = args.positional()[2];
  }
  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph data, LoadPrefix(data_prefix));

  ValidationOptions vopt;
  vopt.mode = args.GetBool("strict", false) ? ValidationMode::kStrict
                                            : ValidationMode::kLoose;
  vopt.max_violations =
      static_cast<size_t>(args.GetInt("max-violations", 50));
  ValidationReport report = ValidateGraph(data, schema, vopt);
  out << report.Summary() << "\n";
  if (!report.valid()) {
    return Status::FailedPrecondition("validation found violations");
  }
  return Status::OK();
}

Status CmdDiff(const Args& args, std::ostream& out) {
  if (args.positional().size() < 3) {
    return Status::InvalidArgument(
        "usage: pghive diff <graph-prefix-a> <graph-prefix-b> "
        "(discovers both schemas and reports the drift a -> b)");
  }
  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph a, LoadPrefix(args.positional()[1]));
  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph b, LoadPrefix(args.positional()[2]));
  PGHIVE_ASSIGN_OR_RETURN(SchemaGraph sa, DiscoverFromArgs(args, a));
  PGHIVE_ASSIGN_OR_RETURN(SchemaGraph sb, DiscoverFromArgs(args, b));
  out << DiffSchemas(sa, sb).ToString();
  return Status::OK();
}

Status CmdDatasets(const Args&, std::ostream& out) {
  out << "built-in benchmark datasets (Table 2 of the paper):\n";
  for (const auto& spec : AllDatasetSpecs()) {
    out << "  " << spec.name << "  " << spec.node_types.size()
        << " node types, " << spec.edge_types.size() << " edge types, "
        << "defaults " << spec.default_nodes << " nodes / "
        << spec.default_edges << " edges  (original: "
        << WithThousands(spec.paper_nodes) << " / "
        << WithThousands(spec.paper_edges) << ")\n";
  }
  return Status::OK();
}

namespace {

// The serving daemon stop hook: SIGINT/SIGTERM handlers may only touch
// async-signal-safe state, and SchemaServer::RequestStop is a single
// write(2) to its self-pipe, so a plain global pointer suffices.
serve::SchemaServer* g_serving = nullptr;

void ServeSignalHandler(int) {
  if (g_serving != nullptr) g_serving->RequestStop();
}

Result<store::StoreOptions> StoreOptionsFromArgs(const Args& args) {
  store::StoreOptions sopt;
  PGHIVE_ASSIGN_OR_RETURN(sopt.incremental.pipeline,
                          PipelineOptionsFromArgs(args));
  sopt.checkpoint_every_batches =
      static_cast<uint64_t>(args.GetInt("checkpoint-every", 16));
  sopt.fsync = !args.GetBool("no-fsync", false);
  sopt.allow_options_mismatch = args.GetBool("force-options", false);
  return sopt;
}

/// Resolves the daemon port for the ingest client: --port wins, else
/// --port-file (written by `serve` — the rendezvous for --port 0 runs).
Result<uint16_t> IngestPortFromArgs(const Args& args) {
  if (args.Has("port")) {
    return static_cast<uint16_t>(args.GetInt("port", 0));
  }
  if (!args.Has("port-file")) {
    return Status::InvalidArgument("need --port or --port-file");
  }
  PGHIVE_ASSIGN_OR_RETURN(std::string text,
                          ReadFile(args.GetString("port-file")));
  const long port = std::strtol(std::string(Trim(text)).c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("port file '" +
                                   args.GetString("port-file") +
                                   "' does not contain a port");
  }
  return static_cast<uint16_t>(port);
}

}  // namespace

Status CmdServe(const Args& args, std::ostream& out) {
  if (args.positional().size() < 2) {
    return Status::InvalidArgument(
        "usage: pghive serve <name>=<state-dir> [<name2>=<dir2> ...] "
        "[--host 127.0.0.1] [--port 8090 (0 = ephemeral)] "
        "[--port-file FILE (write the bound port)] "
        "[--workers N (0 = all cores)] [--queue-capacity 64] "
        "[--retain-epochs 8] [--checkpoint-every N] [--no-fsync] "
        "[--alert-rules FILE (drift/metric alert rules, served at "
        "/v1/graphs/<name>/alerts)] "
        "[--access-log FILE (per-request JSONL)] "
        "[--metrics-format jsonl|prometheus (default GET /metrics format)] "
        "[--force-options] [discovery flags as for `discover`]\n"
        "hosts each state directory as /v1/graphs/<name>, ingesting batches "
        "over HTTP and serving epoch-snapshot schema reads until SIGINT/"
        "SIGTERM, then drains and checkpoints every graph.");
  }
  serve::ServeOptions sopt;
  sopt.host = args.GetString("host", "127.0.0.1");
  sopt.port = static_cast<uint16_t>(args.GetInt("port", 8090));
  sopt.num_workers = static_cast<int>(args.GetInt("workers", 0));
  sopt.graph.queue_capacity =
      static_cast<size_t>(args.GetInt("queue-capacity", 64));
  sopt.graph.retain_epochs =
      static_cast<size_t>(args.GetInt("retain-epochs", 8));
  sopt.graph.alert_rules_path = args.GetString("alert-rules");
  sopt.access_log_path = args.GetString("access-log");
  if (args.Has("metrics-format")) {
    PGHIVE_ASSIGN_OR_RETURN(
        sopt.metrics_format,
        obs::ParseMetricsFormat(args.GetString("metrics-format")));
  }
  PGHIVE_ASSIGN_OR_RETURN(sopt.graph.store, StoreOptionsFromArgs(args));

  serve::SchemaServer server(std::move(sopt));
  for (size_t i = 1; i < args.positional().size(); ++i) {
    const std::string& spec = args.positional()[i];
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      return Status::InvalidArgument("graph spec '" + spec +
                                     "' must be <name>=<state-dir>");
    }
    PGHIVE_RETURN_NOT_OK(
        server.AddGraph(spec.substr(0, eq), spec.substr(eq + 1)));
  }
  PGHIVE_RETURN_NOT_OK(server.Start());
  if (args.Has("port-file")) {
    PGHIVE_RETURN_NOT_OK(WriteFile(args.GetString("port-file"),
                                   std::to_string(server.port()) + "\n"));
  }
  out << "serving " << (args.positional().size() - 1) << " graph(s) on "
      << server.options().host << ":" << server.port() << "\n";
  out.flush();

  g_serving = &server;
  auto prev_int = std::signal(SIGINT, ServeSignalHandler);
  auto prev_term = std::signal(SIGTERM, ServeSignalHandler);
  const Status status = server.Wait();
  std::signal(SIGINT, prev_int);
  std::signal(SIGTERM, prev_term);
  g_serving = nullptr;

  out << "drained and checkpointed, exiting\n";
  return status;
}

Status CmdIngest(const Args& args, std::ostream& out) {
  if (args.positional().size() < 2 || !args.Has("graph")) {
    return Status::InvalidArgument(
        "usage: pghive ingest <graph-prefix> --graph NAME "
        "(--port P | --port-file FILE) [--host 127.0.0.1] "
        "[--incremental N (default 10; must match the discover run being "
        "compared against)] [--schema-out FILE (save the served schema "
        "body verbatim once every batch is applied)] "
        "[--timeout-seconds 120] [--aliases aliases.txt]\n"
        "slices the CSV graph with the same endpoint-closed stream slicing "
        "as `discover --incremental N --state-dir` and POSTs each batch to "
        "a running `pghive serve`, honouring 429 backpressure.");
  }
  const std::string graph_name = args.GetString("graph");
  const std::string host = args.GetString("host", "127.0.0.1");
  PGHIVE_ASSIGN_OR_RETURN(uint16_t port, IngestPortFromArgs(args));
  const int64_t batches = args.GetInt("incremental", 10);
  if (batches < 1) {
    return Status::InvalidArgument("--incremental must be >= 1");
  }
  const double timeout_seconds =
      args.GetDouble("timeout-seconds", 120.0);

  PGHIVE_ASSIGN_OR_RETURN(PropertyGraph g, LoadPrefix(args.positional()[1]));
  PGHIVE_RETURN_NOT_OK(MaybeApplyAliases(args, &g));
  const std::vector<store::BatchPayload> payloads =
      store::MakeStreamBatches(g, static_cast<size_t>(batches));

  const std::string target = "/v1/graphs/" + graph_name + "/batches";
  const Timer deadline;
  uint64_t last_batch_id = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::string body = serve::BatchToJson(payloads[i]).Dump();
    for (;;) {
      if (deadline.ElapsedSeconds() > timeout_seconds) {
        return Status::IoError("ingest timed out after " +
                               FormatDouble(timeout_seconds, 1) + "s");
      }
      PGHIVE_ASSIGN_OR_RETURN(
          serve::HttpResponse resp,
          serve::HttpCall(host, port, "POST", target, body,
                          "application/json"));
      if (resp.status == 202) {
        PGHIVE_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(resp.body));
        PGHIVE_ASSIGN_OR_RETURN(int64_t id, doc.GetInt("batch_id"));
        last_batch_id = static_cast<uint64_t>(id);
        break;
      }
      if (resp.status == 429) {
        // Backpressure: the daemon's queue is full. Retry-After is in
        // seconds but the writer drains in fractions of one, so poll at
        // 50ms against the overall deadline instead of sleeping it out.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      return Status::IoError("batch " + std::to_string(i + 1) + "/" +
                             std::to_string(payloads.size()) +
                             " rejected: HTTP " +
                             std::to_string(resp.status) + " " + resp.body);
    }
  }

  // Admission is asynchronous; wait until the served epoch covers the last
  // admitted batch before declaring the stream applied.
  const std::string detail = "/v1/graphs/" + graph_name;
  uint64_t epoch = 0;
  for (;;) {
    PGHIVE_ASSIGN_OR_RETURN(serve::HttpResponse resp,
                            serve::HttpCall(host, port, "GET", detail));
    if (resp.status != 200) {
      return Status::IoError("GET " + detail + " failed: HTTP " +
                             std::to_string(resp.status));
    }
    PGHIVE_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(resp.body));
    PGHIVE_ASSIGN_OR_RETURN(int64_t e, doc.GetInt("epoch"));
    epoch = static_cast<uint64_t>(e);
    if (epoch >= last_batch_id) break;
    if (deadline.ElapsedSeconds() > timeout_seconds) {
      return Status::IoError("daemon did not apply batch " +
                             std::to_string(last_batch_id) + " within " +
                             FormatDouble(timeout_seconds, 1) + "s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  out << "ingested " << payloads.size() << " batch(es) into '" << graph_name
      << "', epoch " << epoch << "\n";

  if (args.Has("schema-out")) {
    PGHIVE_ASSIGN_OR_RETURN(
        serve::HttpResponse resp,
        serve::HttpCall(host, port, "GET", detail + "/schema"));
    if (resp.status != 200) {
      return Status::IoError("GET " + detail + "/schema failed: HTTP " +
                             std::to_string(resp.status));
    }
    const std::string path = args.GetString("schema-out");
    PGHIVE_RETURN_NOT_OK(WriteFile(path, resp.body));
    out << "saved served schema (epoch " << resp.headers["x-pghive-epoch"]
        << ") to " << path << "\n";
  }
  return Status::OK();
}

std::string HelpText() {
  std::ostringstream out;
  out << "pghive — hybrid incremental schema discovery for property graphs\n"
      << "\n"
      << "commands:\n"
      << "  discover <prefix>            discover the schema of a CSV graph\n"
      << "                               (--state-dir DIR = durable run)\n"
      << "  resume <prefix>              continue a durable run after a\n"
      << "                               stop or crash (--state-dir DIR)\n"
      << "  inspect-state <dir>          report snapshots/journal health\n"
      << "  drift <dir>                  schema-drift history of a durable\n"
      << "                               run (counters + per-epoch diffs)\n"
      << "  generate <dataset> <prefix>  generate a benchmark graph as CSV\n"
      << "  stats <prefix>               structural statistics (Table 2)\n"
      << "  validate <ref> <data>        validate data against ref's schema\n"
      << "  diff <a> <b>                 schema drift between two graphs\n"
      << "  datasets                     list built-in dataset specs\n"
      << "  serve <name>=<state-dir>...  HTTP daemon: epoch-snapshot schema\n"
      << "                               reads + backpressured batch ingest\n"
      << "  ingest <prefix> --graph G    stream a CSV graph into a daemon\n"
      << "  help                         this text\n"
      << "\n"
      << "graphs are stored as <prefix>.nodes.csv / <prefix>.edges.csv\n"
      << "(see graph/csv_io.h for the dialect). Run a command without\n"
      << "arguments for its flags.\n"
      << "\n"
      << "observability (every command):\n"
      << "  --metrics-out FILE   write metrics + span aggregates\n"
      << "  --metrics-format F   jsonl (default) | prometheus — wire format\n"
      << "                       of --metrics-out and of the daemon's\n"
      << "                       GET /metrics\n"
      << "  --trace-out FILE     write a Chrome trace (chrome://tracing,\n"
      << "                       https://ui.perfetto.dev)\n"
      << "  --progress           per-batch progress lines on stderr\n"
      << "  --log-level LEVEL    debug|info|warning|error (default warning)\n"
      << "  --log-json           log records as JSON lines\n"
      << "  PGHIVE_METRICS / PGHIVE_TRACE env vars = the two --*-out flags\n"
      << "\n"
      << "parallelism (discover/resume/serve):\n"
      << "  --threads N          worker threads (0 = all cores;\n"
      << "                       PGHIVE_THREADS env fallback); output is\n"
      << "                       byte-identical at any thread count\n";
  return out.str();
}

namespace {

Status DispatchCommand(const Args& args, std::ostream& out) {
  const std::string& cmd = args.positional()[0];
  if (cmd == "discover") return CmdDiscover(args, out);
  if (cmd == "resume") return CmdResume(args, out);
  if (cmd == "inspect-state") return CmdInspectState(args, out);
  if (cmd == "drift") return CmdDrift(args, out);
  if (cmd == "generate") return CmdGenerate(args, out);
  if (cmd == "stats") return CmdStats(args, out);
  if (cmd == "validate") return CmdValidate(args, out);
  if (cmd == "diff") return CmdDiff(args, out);
  if (cmd == "datasets") return CmdDatasets(args, out);
  if (cmd == "serve") return CmdServe(args, out);
  if (cmd == "ingest") return CmdIngest(args, out);
  if (cmd == "help" || cmd == "--help") {
    out << HelpText();
    return Status::OK();
  }
  return Status::InvalidArgument("unknown command '" + cmd +
                                 "'; run `pghive help`");
}

}  // namespace

Status RunCliCommand(const Args& args, std::ostream& out) {
  if (args.positional().empty()) {
    out << HelpText();
    return Status::OK();
  }
  ObsConfig obs_config;
  PGHIVE_ASSIGN_OR_RETURN(obs_config, ConfigureObservability(args));
  Status status = DispatchCommand(args, out);
  Status exported = ExportObservability(obs_config);
  if (status.ok()) status = exported;
  return status;
}

}  // namespace pghive
