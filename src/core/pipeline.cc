#include "core/pipeline.h"

#include <set>

#include "cluster/lsh_clusterer.h"
#include "common/string_util.h"
#include "graph/graph_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel.h"

namespace pghive {

const char* ClusteringMethodName(ClusteringMethod m) {
  switch (m) {
    case ClusteringMethod::kElsh:
      return "ELSH";
    case ClusteringMethod::kMinHash:
      return "MinHash";
  }
  return "?";
}

std::vector<std::vector<std::string>> BuildBatchLabelCorpus(
    const GraphBatch& batch) {
  // One singleton sentence per observed label-set token. The paper trains
  // Word2Vec "on the set of node and edge labels observed in the dataset to
  // ensure consistent semantic embeddings across identical label sets" —
  // the embeddings must be consistent and DISTINCT per token. Feeding
  // co-occurrence sentences instead (e.g. (src, edge, tgt) triples) would
  // pull the labels of frequently-connected types together and collapse the
  // very separation the encoding needs (§4.1: the representation "prevents
  // semantically different nodes, or edges, from being merged due to their
  // same structure").
  // Interned pass: collect the distinct label-set ids present, then insert
  // their pooled canonical tokens into a sorted set. Deduplication is by
  // token STRING (two distinct sets can join to the same token, e.g.
  // {"A&B"} vs {"A","B"}), exactly as the string-based scan did.
  const PropertyGraph& g = *batch.graph;
  const SymbolSetPool& pool = g.symbols().label_sets;
  std::vector<char> seen(pool.size(), 0);
  auto add = [&](LabelSetId ls) {
    if (ls != SymbolSetPool::kEmpty) seen[ls] = 1;
  };
  for (size_t i = batch.node_begin; i < batch.node_end; ++i) {
    add(g.node(i).label_set);
  }
  for (size_t i = batch.edge_begin; i < batch.edge_end; ++i) {
    const Edge& e = g.edge(i);
    add(e.label_set);
    add(g.node(e.source).label_set);
    add(g.node(e.target).label_set);
  }
  std::set<std::string> tokens;
  for (size_t ls = 0; ls < seen.size(); ++ls) {
    if (seen[ls]) tokens.insert(pool.token(static_cast<LabelSetId>(ls)));
  }
  std::vector<std::vector<std::string>> corpus;
  corpus.reserve(tokens.size());
  for (const auto& t : tokens) corpus.push_back({t});
  return corpus;
}

namespace {

// Distinct individual labels over a batch slice (the L of the alpha(L)
// heuristic).
size_t CountDistinctLabels(const GraphBatch& batch, ElementKind kind) {
  // Interned ids are bijective with distinct label strings, so counting
  // distinct SymbolIds over the distinct label sets present equals the old
  // distinct-string count — without touching a single string.
  const PropertyGraph& g = *batch.graph;
  const GraphSymbols& sym = g.symbols();
  std::vector<char> set_seen(sym.label_sets.size(), 0);
  std::vector<char> label_seen(sym.labels.size(), 0);
  size_t count = 0;
  auto add_set = [&](LabelSetId ls) {
    if (set_seen[ls]) return;
    set_seen[ls] = 1;
    for (SymbolId sid : sym.label_sets.ids(ls)) {
      if (!label_seen[sid]) {
        label_seen[sid] = 1;
        ++count;
      }
    }
  };
  if (kind == ElementKind::kNode) {
    for (size_t i = batch.node_begin; i < batch.node_end; ++i) {
      add_set(g.node(i).label_set);
    }
  } else {
    for (size_t i = batch.edge_begin; i < batch.edge_end; ++i) {
      add_set(g.edge(i).label_set);
    }
  }
  return count;
}

}  // namespace

PgHivePipeline::PgHivePipeline(PipelineOptions options)
    : options_(options) {}

ThreadPool* PgHivePipeline::EnsurePool() {
  if (pool_) return pool_.get();
  const int threads = ResolveThreadCount(options_.num_threads);
  // num_threads == 1 keeps the original sequential code paths: every
  // parallel helper takes its inline branch on a null pool, so no pool (and
  // no worker thread) is ever created.
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  return pool_.get();
}

Status PgHivePipeline::ProcessBatch(const GraphBatch& batch,
                                    SchemaGraph* schema) {
  const PropertyGraph& g = *batch.graph;
  ThreadPool* pool = EnsurePool();
  StageTimings& timings = diagnostics_.timings;
  timings = StageTimings();

  // pghive.pipeline.* instruments (pointers cached once per process).
  static obs::Counter* batches_total =
      obs::MetricsRegistry::Global().GetCounter("pghive.pipeline.batches");
  static obs::Counter* nodes_processed =
      obs::MetricsRegistry::Global().GetCounter(
          "pghive.pipeline.nodes_processed");
  static obs::Counter* edges_processed =
      obs::MetricsRegistry::Global().GetCounter(
          "pghive.pipeline.edges_processed");
  static obs::Counter* node_cluster_count =
      obs::MetricsRegistry::Global().GetCounter(
          "pghive.pipeline.node_clusters");
  static obs::Counter* edge_cluster_count =
      obs::MetricsRegistry::Global().GetCounter(
          "pghive.pipeline.edge_clusters");
  batches_total->Add(1);
  nodes_processed->Add(batch.num_nodes());
  edges_processed->Add(batch.num_edges());

  obs::ScopedSpan batch_span("pipeline.batch");
  if (batch_span.recording()) {
    batch_span.AddAttr("nodes", static_cast<uint64_t>(batch.num_nodes()));
    batch_span.AddAttr("edges", static_cast<uint64_t>(batch.num_edges()));
    batch_span.AddAttr("method", ClusteringMethodName(options_.method));
  }

  // Preprocess: train the label embedder on the batch corpus, then encode.
  // Word2Vec training stays sequential on purpose: its SGD updates are
  // order-dependent, and sharding them across threads would make the
  // embeddings (and thus the clustering) depend on the thread count.
  LabelEmbedderOptions embed_opt = options_.embedding;
  embed_opt.seed = options_.seed;
  LabelEmbedder embedder(embed_opt);
  {
    obs::ScopedSpan span("pipeline.embed_train", &timings.embed_train);
    PGHIVE_RETURN_NOT_OK(embedder.Train(BuildBatchLabelCorpus(batch)));
  }
  FeatureEncoder encoder(&embedder, options_.encoder, pool);

  // Clusters one encoded population with the configured LSH backend.
  auto cluster_population =
      [&](const EncodedElements& enc, ElementKind kind,
          AdaptiveLshParams* diag)
      -> Result<std::vector<std::vector<size_t>>> {
    std::vector<std::vector<size_t>> groups;
    if (enc.ids.empty()) return groups;
    const bool is_node = kind == ElementKind::kNode;
    const char* project_span = is_node ? "pipeline.cluster_nodes.project"
                                       : "pipeline.cluster_edges.project";
    const char* hash_span = is_node ? "pipeline.cluster_nodes.hash"
                                    : "pipeline.cluster_edges.hash";
    double* project_out = is_node ? &timings.cluster_nodes_project
                                  : &timings.cluster_edges_project;
    double* hash_out =
        is_node ? &timings.cluster_nodes_hash : &timings.cluster_edges_hash;
    DataProfile profile;
    if (options_.adaptive_parameters) {
      profile.num_elements = enc.ids.size();
      profile.num_distinct_labels = CountDistinctLabels(batch, kind);
      profile.mean_pairwise_distance =
          SampleMeanDistance(enc.features, enc.sig_of, options_.seed);
      *diag = ComputeAdaptiveParams(profile, kind, options_.adaptive_tuning);
    }
    if (options_.method == ClusteringMethod::kElsh) {
      EuclideanLshOptions lsh_opt = options_.elsh;
      if (options_.adaptive_parameters) {
        lsh_opt = ToElshOptions(*diag, options_.seed);
        lsh_opt.hashes_per_table = options_.elsh.hashes_per_table;
      }
      PGHIVE_ASSIGN_OR_RETURN(EuclideanLsh lsh,
                              EuclideanLsh::Create(enc.dim, lsh_opt));
      // Hashing is pure (read-only LSH state) and members of a signature
      // group share identical vectors, so only each group's representative
      // — its aligned SoA feature row — is hashed, and only the component
      // ids fan out — byte-identical to hashing every element, at any
      // thread count.
      auto rep_keys_fn = [&](size_t r) {
        std::vector<uint64_t> keys(static_cast<size_t>(lsh.num_tables()));
        lsh.HashRow(enc.features.row(r), keys.data());
        return keys;
      };
      std::vector<std::vector<uint64_t>> rep_keys;
      {
        obs::ScopedSpan span(project_span, project_out);
        rep_keys = ParallelMap(pool, enc.reps.size(), rep_keys_fn);
      }
      obs::ScopedSpan span(hash_span, hash_out);
      return ClusterGroupsByRepKeys(rep_keys, enc.sig_of);
    }
    MinHashLshOptions mh_opt = options_.minhash;
    if (options_.adaptive_parameters) {
      // The adaptive table count T is the signature length (the paper's
      // "number of hash tables" for MinHash).
      mh_opt.num_hashes =
          std::max(diag->num_tables, mh_opt.rows_per_band);
      mh_opt.num_hashes -= mh_opt.num_hashes % mh_opt.rows_per_band;
      mh_opt.seed = options_.seed;
    }
    PGHIVE_ASSIGN_OR_RETURN(MinHashLsh lsh, MinHashLsh::Create(mh_opt));
    // Clustering rule: two elements share a cluster seed iff their whole
    // signatures agree (probability J^T) — similar sets collide often,
    // dissimilar ones rarely (§4.2). Fragments are reunited by Algorithm 2.
    // Group members share identical token sets, so only representatives are
    // MinHashed — each a pre-hashed slice of the encoder's flat token pool,
    // min-folded by the simd kernel — and only the component ids fan out.
    auto rep_sig_key = [&](size_t r) {
      std::vector<uint64_t> sig(static_cast<size_t>(lsh.options().num_hashes));
      lsh.SignatureFromHashes(
          enc.token_hashes.data() + enc.token_begin[r],
          enc.token_begin[r + 1] - enc.token_begin[r], sig.data());
      return lsh.SignatureKey(sig);
    };
    std::vector<uint64_t> rep_keys;
    {
      obs::ScopedSpan span(project_span, project_out);
      rep_keys = ParallelMap(pool, enc.reps.size(), rep_sig_key);
    }
    obs::ScopedSpan span(hash_span, hash_out);
    return ClusterGroupsByRepKey(rep_keys, enc.sig_of);
  };

  // --- Nodes first (edges consume the discovered node types). ---
  EncodedElements nodes;
  {
    obs::ScopedSpan span("pipeline.encode_nodes", &timings.encode_nodes);
    nodes = encoder.EncodeNodes(batch);
  }
  timings.encode_nodes_embed = nodes.embed_seconds;
  std::vector<std::vector<size_t>> node_groups;
  {
    obs::ScopedSpan span("pipeline.cluster_nodes", &timings.cluster_nodes);
    PGHIVE_ASSIGN_OR_RETURN(
        node_groups,
        cluster_population(nodes, ElementKind::kNode,
                           &diagnostics_.node_params));
  }
  diagnostics_.node_clusters = node_groups.size();
  node_cluster_count->Add(node_groups.size());
  {
    obs::ScopedSpan span("pipeline.extract_nodes", &timings.extract_nodes);
    ExtractNodeTypes(BuildNodeClusters(g, nodes.ids, node_groups),
                     options_.extraction, schema);
  }

  // Map this batch's unlabeled nodes to their discovered type's endpoint
  // label set so edges still see typed endpoints: a node that merged into a
  // labeled type looks exactly like a labeled endpoint; abstract types
  // contribute a "~ABSTRACT_n" marker token.
  FeatureEncoder::EndpointLabelMap endpoint_labels;
  endpoint_labels.reserve(batch.num_nodes());
  for (const auto& t : schema->node_types) {
    std::set<std::string> tokens =
        t.labels.empty() ? std::set<std::string>{"~" + t.name} : t.labels;
    for (NodeId id : t.instances) {
      if (id >= batch.node_begin && id < batch.node_end &&
          g.node(id).labels.empty()) {
        endpoint_labels[id] = tokens;
      }
    }
  }

  // --- Edges. ---
  EncodedElements edges;
  {
    obs::ScopedSpan span("pipeline.encode_edges", &timings.encode_edges);
    edges = encoder.EncodeEdges(batch, endpoint_labels);
  }
  timings.encode_edges_embed = edges.embed_seconds;
  std::vector<std::vector<size_t>> edge_groups;
  {
    obs::ScopedSpan span("pipeline.cluster_edges", &timings.cluster_edges);
    PGHIVE_ASSIGN_OR_RETURN(
        edge_groups,
        cluster_population(edges, ElementKind::kEdge,
                           &diagnostics_.edge_params));
  }
  diagnostics_.edge_clusters = edge_groups.size();
  edge_cluster_count->Add(edge_groups.size());
  {
    obs::ScopedSpan span("pipeline.extract_edges", &timings.extract_edges);
    ExtractEdgeTypes(
        BuildEdgeClusters(g, edges.ids, edge_groups, endpoint_labels),
        options_.extraction, schema);
  }
  return Status::OK();
}

void PgHivePipeline::PostProcess(const PropertyGraph& g,
                                 SchemaGraph* schema) const {
  PostProcessWithAggregates(g, nullptr, schema);
}

void PgHivePipeline::PostProcessWithAggregates(
    const PropertyGraph& g, const SchemaAggregates* aggregates,
    SchemaGraph* schema) const {
  StageTimings& timings = diagnostics_.timings;
  obs::ScopedSpan span("pipeline.post_process", &timings.post_process);

  // Finalize from aggregates: the caller's maintained state when it matches
  // the schema's instance assignment, otherwise a fresh fold of the assigned
  // instances. Post-processing runs on the calling thread: at 4 threads
  // neither a per-type parallel fold nor the pooled finalizers beat the
  // plain loops (DESIGN.md §4c).
  SchemaAggregates local;
  if (aggregates == nullptr || !aggregates->ConsistentWith(*schema)) {
    obs::ScopedSpan s("pipeline.post_fold", &timings.post_fold);
    local.FoldNew(g, *schema);  // fresh: no watermark to shrink below
    aggregates = &local;
  }
  const GraphSymbols& sym = g.symbols();
  {
    obs::ScopedSpan s("pipeline.post_constraints", &timings.post_constraints);
    FinalizeConstraints(sym, *aggregates, schema);
  }
  {
    obs::ScopedSpan s("pipeline.post_datatypes", &timings.post_datatypes);
    // The sampling mode draws from the concrete value lists in an
    // RNG-consumption order the tallies cannot reproduce — rescan for it.
    if (options_.datatypes.sample) {
      InferDataTypes(g, options_.datatypes, schema);
    } else {
      FinalizeDataTypes(sym, *aggregates, schema);
    }
  }
  {
    obs::ScopedSpan s("pipeline.post_cardinalities",
                      &timings.post_cardinalities);
    FinalizeCardinalities(*aggregates, schema);
  }
}

Result<SchemaGraph> PgHivePipeline::DiscoverSchema(const PropertyGraph& g) {
  obs::ScopedSpan span("pipeline.discover");
  if (span.recording()) {
    span.AddAttr("nodes", static_cast<uint64_t>(g.num_nodes()));
    span.AddAttr("edges", static_cast<uint64_t>(g.num_edges()));
  }
  if (obs::MetricsEnabled()) PublishGraphGauges(g);
  SchemaGraph schema;
  PGHIVE_RETURN_NOT_OK(ProcessBatch(FullBatch(g), &schema));
  if (options_.post_process) PostProcess(g, &schema);
  return schema;
}

}  // namespace pghive
