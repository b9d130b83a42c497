// Incremental schema discovery (paper §4.6).
//
// IncrementalDiscoverer streams batches through the same
// preprocess/cluster/extract pipeline and merges each batch's types into the
// evolving schema via Algorithm 2, so S_i ⊑ S_{i+1} forms a monotone chain
// (no label, property or endpoint is ever lost). Post-processing can run
// after every batch (Algorithm 1's postProcessing flag) or only at the end.

#ifndef PGHIVE_CORE_INCREMENTAL_H_
#define PGHIVE_CORE_INCREMENTAL_H_

#include <vector>

#include "core/pipeline.h"
#include "core/retraction.h"

namespace pghive {

struct IncrementalOptions {
  PipelineOptions pipeline;
  /// Run constraint/datatype/cardinality inference after every batch rather
  /// than only on Finish() (paper: optional postProcessing flag).
  bool post_process_each_batch = false;
};

class IncrementalDiscoverer {
 public:
  explicit IncrementalDiscoverer(IncrementalOptions options = {});

  /// Processes one new batch and merges it into the running schema.
  Status Feed(const GraphBatch& batch);

  /// Processes one MUTATION batch: first retracts `deleted_nodes` /
  /// `deleted_edges` from the evolving schema and its aggregates
  /// (core/retraction.h — instance lists compact, derived sets shrink,
  /// empty types retire), then merges `batch`'s appended elements exactly
  /// like Feed(). O(batch) amortized — no rescan of the accumulated graph.
  /// Updates are delete-then-reinsert: the caller tombstones the old id in
  /// the deletion lists and appends the replacement to `batch` (see
  /// graph/mutations.h for the canonical order and the endpoint-closure
  /// contract). Fails with InvalidArgument on an unknown or double-deleted
  /// id.
  Status FeedMutations(const GraphBatch& batch,
                       const std::vector<NodeId>& deleted_nodes,
                       const std::vector<EdgeId>& deleted_edges);

  /// Restores previously persisted state (schema + per-batch timings +
  /// the delta-maintained aggregates), so a recovered process resumes
  /// exactly where it stopped: the next Feed() or FeedMutations() continues
  /// from the restored schema as if this discoverer had processed every
  /// earlier batch itself (src/store/ uses this on recovery). `g` is the
  /// graph the schema's instance ids refer to. Aggregates that don't match
  /// the schema (ConsistentWith — e.g. an empty default) are rebuilt from
  /// `g` and the schema's instance lists here, so the discoverer never
  /// holds aggregates that disagree with its schema.
  void RestoreState(const PropertyGraph& g, SchemaGraph schema,
                    std::vector<double> batch_seconds,
                    SchemaAggregates aggregates = {});

  /// Number of batches processed so far.
  size_t batches_processed() const { return batch_seconds_.size(); }

  /// Wall-clock seconds each Feed() call took (Figure 7 series).
  const std::vector<double>& batch_seconds() const { return batch_seconds_; }

  /// The schema as of the last processed batch (constraints only filled if
  /// post_process_each_batch or after Finish()).
  const SchemaGraph& schema() const { return schema_; }

  /// Final post-processing pass over everything fed so far; returns the
  /// completed schema. `g` must be the graph the batches sliced. With
  /// PipelineOptions::post_process off this finalizes nothing (no
  /// constraints, unknown cardinalities), like the one-shot pipeline.
  const SchemaGraph& Finish(const PropertyGraph& g);

  /// What Finish(g) would return, computed on a copy — the engine's own
  /// schema, aggregates and timings are untouched, so feeding can continue
  /// on the exact path an uninterrupted one-shot run takes. The serving
  /// daemon publishes one of these per applied batch as an epoch snapshot.
  SchemaGraph FinishedCopy(const PropertyGraph& g) const;

  /// Diagnostics of the most recent batch (LSH parameters, cluster counts,
  /// stage timings) — persisted by the durable store's snapshots.
  const BatchDiagnostics& last_diagnostics() const {
    return pipeline_.last_diagnostics();
  }

  /// The pipeline's worker pool (null in sequential mode); the durable
  /// store reuses it for parallel snapshot encoding.
  ThreadPool* thread_pool() const { return pipeline_.thread_pool(); }

  /// The delta-maintained post-processing aggregates, folded forward on
  /// every Feed and retracted on every FeedMutations; they always match
  /// schema(). The durable store persists them so recovery skips the
  /// rebuild.
  const SchemaAggregates& aggregates() const { return aggregates_; }

  /// Wall-clock seconds the post-processing of each Feed() took (0 when
  /// post_process_each_batch is off) — the incremental-scaling bench series.
  const std::vector<double>& post_process_seconds() const {
    return post_process_seconds_;
  }

 private:
  /// Folds the instances the last ProcessBatch appended. Internal error
  /// when an instance list shrank below its watermark: only retraction
  /// shrinks instance lists, and it keeps the aggregates in step.
  Status FoldNew(const PropertyGraph& g);

  /// Per-batch post-processing (when enabled) and its timing series entry.
  void PostProcessBatch(const PropertyGraph& g);

  IncrementalOptions options_;
  PgHivePipeline pipeline_;
  SchemaGraph schema_;
  SchemaAggregates aggregates_;
  std::vector<double> batch_seconds_;
  std::vector<double> post_process_seconds_;
  /// Element->type index for retraction; built lazily on the first
  /// FeedMutations and re-synced (from per-type watermarks) before each
  /// retraction, so insert-only streams pay nothing for it.
  RetractionIndex retraction_index_;
  bool mutations_seen_ = false;
};

/// Merges two independently discovered schemas into the least general
/// schema covering both (paper §4.6 "Schema merging"): node/edge types merge
/// by identical label set; unlabeled types merge into labeled then unlabeled
/// ones by property Jaccard; leftovers stay ABSTRACT.
SchemaGraph MergeSchemas(const SchemaGraph& s1, const SchemaGraph& s2,
                         const TypeExtractionOptions& options = {});

}  // namespace pghive

#endif  // PGHIVE_CORE_INCREMENTAL_H_
