#include "core/incremental.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pghive {

IncrementalDiscoverer::IncrementalDiscoverer(IncrementalOptions options)
    : options_(options), pipeline_(options.pipeline) {}

Status IncrementalDiscoverer::Feed(const GraphBatch& batch) {
  // Schema-delta counters: how many types each batch contributed
  // (pghive.incremental.*). The chain is monotone (S_i ⊑ S_{i+1}), so the
  // after-minus-before difference is the batch's contribution.
  static obs::Counter* batches_total = obs::MetricsRegistry::Global()
      .GetCounter("pghive.incremental.batches");
  static obs::Counter* node_types_added = obs::MetricsRegistry::Global()
      .GetCounter("pghive.incremental.node_types_added");
  static obs::Counter* edge_types_added = obs::MetricsRegistry::Global()
      .GetCounter("pghive.incremental.edge_types_added");

  double seconds = 0.0;
  const size_t node_types_before = schema_.node_types.size();
  const size_t edge_types_before = schema_.edge_types.size();
  {
    obs::ScopedSpan span("incremental.batch", &seconds);
    if (span.recording()) {
      span.AddAttr("batch", static_cast<uint64_t>(batch_seconds_.size()));
      span.AddAttr("nodes", static_cast<uint64_t>(batch.num_nodes()));
      span.AddAttr("edges", static_cast<uint64_t>(batch.num_edges()));
    }
    PGHIVE_RETURN_NOT_OK(pipeline_.ProcessBatch(batch, &schema_));
    PGHIVE_RETURN_NOT_OK(FoldNew(*batch.graph));
    PostProcessBatch(*batch.graph);
  }
  batches_total->Add(1);
  if (schema_.node_types.size() > node_types_before) {
    node_types_added->Add(schema_.node_types.size() - node_types_before);
  }
  if (schema_.edge_types.size() > edge_types_before) {
    edge_types_added->Add(schema_.edge_types.size() - edge_types_before);
  }
  batch_seconds_.push_back(seconds);
  return Status::OK();
}

Status IncrementalDiscoverer::FeedMutations(
    const GraphBatch& batch, const std::vector<NodeId>& deleted_nodes,
    const std::vector<EdgeId>& deleted_edges) {
  static obs::Counter* mutation_batches = obs::MetricsRegistry::Global()
      .GetCounter("pghive.incremental.mutation_batches");
  static obs::Counter* nodes_retracted = obs::MetricsRegistry::Global()
      .GetCounter("pghive.incremental.nodes_retracted");
  static obs::Counter* edges_retracted = obs::MetricsRegistry::Global()
      .GetCounter("pghive.incremental.edges_retracted");
  static obs::Counter* types_retired = obs::MetricsRegistry::Global()
      .GetCounter("pghive.incremental.types_retired");
  static obs::Counter* aggregate_rebuilds = obs::MetricsRegistry::Global()
      .GetCounter("pghive.incremental.aggregate_rebuilds");

  double seconds = 0.0;
  RetractionStats rstats;
  {
    obs::ScopedSpan span("incremental.mutation_batch", &seconds);
    if (span.recording()) {
      span.AddAttr("batch", static_cast<uint64_t>(batch_seconds_.size()));
      span.AddAttr("nodes", static_cast<uint64_t>(batch.num_nodes()));
      span.AddAttr("edges", static_cast<uint64_t>(batch.num_edges()));
      span.AddAttr("deleted_nodes",
                   static_cast<uint64_t>(deleted_nodes.size()));
      span.AddAttr("deleted_edges",
                   static_cast<uint64_t>(deleted_edges.size()));
    }
    if (!mutations_seen_) {
      retraction_index_.Rebuild(schema_);
      mutations_seen_ = true;
    } else {
      retraction_index_.Sync(schema_);
    }
    PGHIVE_RETURN_NOT_OK(RetractInstances(*batch.graph, deleted_nodes,
                                          deleted_edges, &schema_,
                                          &aggregates_, &retraction_index_,
                                          &rstats));
    // A pure-deletion batch has nothing to embed or cluster.
    if (batch.num_nodes() > 0 || batch.num_edges() > 0) {
      PGHIVE_RETURN_NOT_OK(pipeline_.ProcessBatch(batch, &schema_));
      PGHIVE_RETURN_NOT_OK(FoldNew(*batch.graph));
    } else if (obs::MetricsEnabled()) {
      PublishAggregateGauges(aggregates_);
    }
    PostProcessBatch(*batch.graph);
  }
  mutation_batches->Add(1);
  nodes_retracted->Add(rstats.nodes_retracted);
  edges_retracted->Add(rstats.edges_retracted);
  types_retired->Add(rstats.node_types_retired + rstats.edge_types_retired);
  aggregate_rebuilds->Add(rstats.aggregate_rebuilds);
  batch_seconds_.push_back(seconds);
  return Status::OK();
}

Status IncrementalDiscoverer::FoldNew(const PropertyGraph& g) {
  {
    // O(batch): folds only the instances this batch appended.
    obs::ScopedSpan fold_span("incremental.fold");
    if (!aggregates_.FoldNew(g, schema_)) {
      return Status::Internal(
          "a schema instance list shrank below its aggregate watermark "
          "outside the retraction path");
    }
  }
  if (obs::MetricsEnabled()) PublishAggregateGauges(aggregates_);
  return Status::OK();
}

void IncrementalDiscoverer::PostProcessBatch(const PropertyGraph& g) {
  if (!options_.post_process_each_batch) {
    post_process_seconds_.push_back(0.0);
    return;
  }
  pipeline_.PostProcessWithAggregates(g, &aggregates_, &schema_);
  post_process_seconds_.push_back(
      pipeline_.last_diagnostics().timings.post_process);
}

void IncrementalDiscoverer::RestoreState(const PropertyGraph& g,
                                         SchemaGraph schema,
                                         std::vector<double> batch_seconds,
                                         SchemaAggregates aggregates) {
  schema_ = std::move(schema);
  batch_seconds_ = std::move(batch_seconds);
  post_process_seconds_.assign(batch_seconds_.size(), 0.0);
  // The retraction index points into the replaced schema; rebuild lazily on
  // the next FeedMutations.
  retraction_index_ = RetractionIndex();
  mutations_seen_ = false;
  aggregates_ = std::move(aggregates);
  if (!aggregates_.ConsistentWith(schema_)) {
    aggregates_ = SchemaAggregates();
    aggregates_.FoldNew(g, schema_);
  }
}

const SchemaGraph& IncrementalDiscoverer::Finish(const PropertyGraph& g) {
  // Pure finalization from the maintained aggregates — no rescan, and no
  // repeat of work already done by per-batch post-processing.
  if (options_.pipeline.post_process) {
    pipeline_.PostProcessWithAggregates(g, &aggregates_, &schema_);
  }
  return schema_;
}

SchemaGraph IncrementalDiscoverer::FinishedCopy(const PropertyGraph& g) const {
  SchemaGraph copy = schema_;
  if (options_.pipeline.post_process) {
    pipeline_.PostProcessWithAggregates(g, &aggregates_, &copy);
  }
  return copy;
}

namespace {

/// Reinterprets a schema type as a cluster so schema-with-schema merging
/// reuses Algorithm 2 verbatim.
Cluster NodeTypeAsCluster(const SchemaNodeType& t) {
  Cluster c;
  c.members.assign(t.instances.begin(), t.instances.end());
  c.labels = t.labels;
  c.property_keys = t.property_keys;
  return c;
}

Cluster EdgeTypeAsCluster(const SchemaEdgeType& t) {
  Cluster c;
  c.members.assign(t.instances.begin(), t.instances.end());
  c.labels = t.labels;
  c.property_keys = t.property_keys;
  c.source_labels = t.source_labels;
  c.target_labels = t.target_labels;
  return c;
}

}  // namespace

SchemaGraph MergeSchemas(const SchemaGraph& s1, const SchemaGraph& s2,
                         const TypeExtractionOptions& options) {
  SchemaGraph merged = s1;
  std::vector<Cluster> node_clusters;
  node_clusters.reserve(s2.node_types.size());
  for (const auto& t : s2.node_types) {
    node_clusters.push_back(NodeTypeAsCluster(t));
  }
  std::vector<Cluster> edge_clusters;
  edge_clusters.reserve(s2.edge_types.size());
  for (const auto& t : s2.edge_types) {
    edge_clusters.push_back(EdgeTypeAsCluster(t));
  }
  ExtractNodeTypes(node_clusters, options, &merged);
  ExtractEdgeTypes(edge_clusters, options, &merged);
  return merged;
}

}  // namespace pghive
