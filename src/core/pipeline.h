// The PG-HIVE schema discovery pipeline (paper §4, Algorithm 1).
//
// Stages per batch: load -> preprocess (label-embedding + binary property
// vectors, §4.1) -> LSH clustering (ELSH or MinHash, §4.2) -> type
// extraction & merging (Algorithm 2, §4.3) -> optional post-processing
// (constraints, datatypes, cardinalities, §4.4). The static mode runs a
// single batch covering the whole graph; core/incremental.h streams batches
// through the same ProcessBatch entry point.

#ifndef PGHIVE_CORE_PIPELINE_H_
#define PGHIVE_CORE_PIPELINE_H_

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "core/aggregates.h"
#include "core/feature_encoder.h"
#include "core/datatype_inference.h"
#include "core/schema.h"
#include "core/type_extraction.h"
#include "graph/property_graph.h"
#include "lsh/adaptive_params.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash_lsh.h"
#include "runtime/thread_pool.h"
#include "text/label_embedder.h"

namespace pghive {

/// The two LSH clustering backends evaluated in the paper.
enum class ClusteringMethod { kElsh, kMinHash };

const char* ClusteringMethodName(ClusteringMethod m);

struct PipelineOptions {
  ClusteringMethod method = ClusteringMethod::kElsh;

  /// Label embedding (Word2Vec by default, §4.1).
  LabelEmbedderOptions embedding;

  /// Feature-encoding knobs.
  FeatureEncoderOptions encoder;

  /// theta and merge behaviour (Algorithm 2).
  TypeExtractionOptions extraction;

  /// When true (default) b and T are derived from the data (§4.2);
  /// otherwise the explicit elsh/minhash options below are used.
  bool adaptive_parameters = true;
  AdaptiveTuning adaptive_tuning;
  EuclideanLshOptions elsh;
  MinHashLshOptions minhash;

  /// Post-processing toggle (Algorithm 1 lines 7-10) and sampling options.
  bool post_process = true;
  DataTypeInferenceOptions datatypes;

  /// Worker threads for the data-parallel stages (feature encoding and LSH
  /// hashing): 0 = hardware concurrency, 1 (default) = the original
  /// sequential loops, no pool created. Any value yields a bit-identical
  /// SchemaGraph — each parallel map writes only its own index's slot (see
  /// runtime/parallel.h). Post-processing always runs on the calling
  /// thread. Word2Vec training is intentionally NOT parallelized: its SGD
  /// updates are order-dependent, so sharding them would break seed-stable
  /// embeddings.
  int num_threads = 1;

  uint64_t seed = 42;
};

/// Wall-clock seconds per pipeline stage of the most recent batch (plus
/// post-processing when it ran). Since the observability layer landed this
/// is a thin view over the pipeline.* spans (obs/trace.h): each field is
/// filled by the matching stage span's duration, so the struct, the JSONL
/// span_stats and the Chrome trace can never disagree. Feeds the
/// perf-trajectory baseline that bench/micro_pipeline writes to
/// BENCH_pipeline.json.
struct StageTimings {
  double embed_train = 0.0;    // Word2Vec over the batch label corpus
  double encode_nodes = 0.0;   // feature encoding, nodes
  double cluster_nodes = 0.0;  // LSH keys + bucket clustering, nodes
  double extract_nodes = 0.0;  // Algorithm 2 merge, nodes
  double encode_edges = 0.0;
  double cluster_edges = 0.0;
  double extract_edges = 0.0;
  // Sub-kernel timings of the hot path, so each SoA/SIMD/union-find lever
  // is individually visible in BENCH_pipeline.json. encode_*_embed is the
  // representative encoding loop inside encode_* (the remainder is key
  // indexing + signature grouping). cluster_*_project is LSH key
  // computation over representatives (ELSH dot-product projections or
  // MinHash permutation min-folds); cluster_*_hash is bucket grouping +
  // union-find merge + fan-out.
  double encode_nodes_embed = 0.0;
  double encode_edges_embed = 0.0;
  double cluster_nodes_project = 0.0;
  double cluster_nodes_hash = 0.0;
  double cluster_edges_project = 0.0;
  double cluster_edges_hash = 0.0;
  double post_process = 0.0;   // constraints + datatypes + cardinalities
  // Sub-timings of post_process (they sum to roughly post_process).
  // post_fold is the fresh FoldNew of a transient aggregate state (0 when
  // the caller's maintained aggregates were used); the other three are the
  // per-pass finalizations from the aggregates.
  double post_fold = 0.0;
  double post_constraints = 0.0;
  double post_datatypes = 0.0;
  double post_cardinalities = 0.0;
};

/// Diagnostics of the most recent batch (exposed for Figure 6 and tests).
struct BatchDiagnostics {
  AdaptiveLshParams node_params;
  AdaptiveLshParams edge_params;
  size_t node_clusters = 0;  // raw LSH clusters before merging
  size_t edge_clusters = 0;
  StageTimings timings;
};

class PgHivePipeline {
 public:
  explicit PgHivePipeline(PipelineOptions options = {});

  const PipelineOptions& options() const { return options_; }

  /// Static schema discovery: one batch over the whole graph, then
  /// post-processing (when enabled).
  Result<SchemaGraph> DiscoverSchema(const PropertyGraph& g);

  /// Runs preprocess -> clustering -> type extraction for one batch,
  /// merging into `schema` (Algorithm 1 lines 3-6 + 11). Post-processing is
  /// NOT applied here; call PostProcess when needed.
  Status ProcessBatch(const GraphBatch& batch, SchemaGraph* schema);

  /// Constraint, datatype and cardinality inference over the instances
  /// currently assigned in `schema` (Algorithm 1 lines 7-10). Folds a
  /// transient aggregate state with a fresh SchemaAggregates::FoldNew, the
  /// fold every incremental Feed runs — callers holding maintained
  /// aggregates use the overload below.
  void PostProcess(const PropertyGraph& g, SchemaGraph* schema) const;

  /// Post-processing from caller-maintained aggregates (core/incremental.h
  /// folds them batch by batch). `aggregates` may be null or inconsistent
  /// with `schema` — the pipeline then folds a fresh transient state
  /// instead. The finalized schema is bit-identical either way. Runs on the
  /// calling thread.
  void PostProcessWithAggregates(const PropertyGraph& g,
                                 const SchemaAggregates* aggregates,
                                 SchemaGraph* schema) const;

  const BatchDiagnostics& last_diagnostics() const { return diagnostics_; }

  /// The worker pool behind the parallel stages; null while
  /// options().num_threads resolves to 1 (sequential mode). Lazily created
  /// on the first batch.
  ThreadPool* thread_pool() const { return pool_.get(); }

 private:
  /// Resolves options_.num_threads and creates the pool when > 1.
  ThreadPool* EnsurePool();

  PipelineOptions options_;
  // mutable: the const PostProcess records its wall-clock in the timings.
  mutable BatchDiagnostics diagnostics_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Label corpus restricted to one batch (the incremental pipeline trains
/// its embedder on the data it has seen in the batch).
std::vector<std::vector<std::string>> BuildBatchLabelCorpus(
    const GraphBatch& batch);

}  // namespace pghive

#endif  // PGHIVE_CORE_PIPELINE_H_
