// Delta-maintained post-processing aggregates (paper §4.4 made incremental).
//
// Every output of the post-processing passes — MANDATORY/OPTIONAL property
// constraints, property datatypes and edge cardinalities — is an aggregate
// of counts over a type's assigned instances:
//
//   constraints    key-presence histogram per interned key set: the count of
//                  instances carrying key k is the sum of the histogram over
//                  the key sets containing k, and k is MANDATORY iff that sum
//                  equals the instance count.
//   datatypes      per-(type, key) tally over the six DataTypes. The
//                  sequential pass folds observed value types with
//                  GeneralizeDataType, which is the join of a semilattice
//                  (commutative, associative, idempotent: Int⊔Double=Double,
//                  Date⊔Timestamp=Timestamp, mixed=String), so joining the
//                  DISTINCT observed types from the tally reproduces the
//                  sequential left fold exactly.
//   cardinalities  per-(edge type, endpoint) counted neighbour maps plus a
//                  histogram of distinct degrees (degree -> endpoint count);
//                  the maximum degree is the histogram's last key — exact,
//                  not approximate.
//
// Because type extraction only ever APPENDS instances to a type (stable type
// indices, each instance assigned exactly once — see core/type_extraction.h),
// the incremental pipeline folds just the instances appended since the last
// fold: O(batch) per batch instead of the O(accumulated graph) rescan, which
// turned a k-batch stream into O(k·N). Finalization (writing constraints /
// datatypes / cardinalities into the schema) is then independent of the
// number of instances.
//
// There is one builder: FoldNew, which folds each type's new instances in
// type-index order on the calling thread. The one-shot pipeline is a fresh
// FoldNew over the whole schema (a one-batch feed), and every rebuild —
// recovery without persisted aggregates, the transient state for a schema
// edited outside the fold/retract path, a retraction underflow — folds a
// fresh accumulator the same way. Every component is an integer count (or a
// map of counts), so the finalized schema is identical at any thread count
// and identical to the sequential rescan passes kept as a test oracle in
// tests/rescan_oracle.h (guarded by tests/golden_equivalence_test).
//
// NOT delta-maintainable: the datatype sampling mode (the RNG consumes draws
// in (type, key) order over the concrete value list, which the tally cannot
// reproduce). It keeps its value scan (InferDataTypes with options.sample).
//
// Retraction (mutation streams): every component is a count, so elements
// SUBTRACT as cleanly as they add — key-set and label-set counts, per-key
// presence, datatype tallies, endpoint label-set counts and the counted
// degree maps all decrement, and map entries are erased when their count
// reaches zero (so retracted state is bit-identical to a fresh fold of the
// survivors). The datatype JOIN is not invertible, but nothing stores it:
// FinalizeDataTypes re-derives it from the tally through the
// GeneralizeDataType semilattice, so narrowing (e.g. the last Double
// retires and the key becomes Int again) falls out for free.
//
// Any underflow (retracting something never folded) makes Retract*Element
// return false; the caller refolds the whole type accumulator from its
// surviving instances (FoldInstances on a fresh TypeAggregate).
//
// Contract: aggregates track the schema's instance lists exactly — grow via
// FoldNew, shrink ONLY through the Retract*Element path (core/retraction.h
// drives it; IncrementalDiscoverer::FeedMutations is the one caller). A
// schema edited any other way no longer matches its aggregates:
// ConsistentWith detects that, and post-processing then builds transient
// aggregates from the instance lists instead.

#ifndef PGHIVE_CORE_AGGREGATES_H_
#define PGHIVE_CORE_AGGREGATES_H_

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/schema.h"
#include "graph/property_graph.h"

namespace pghive {

/// Number of DataType enum values (tally array width).
inline constexpr size_t kNumDataTypes = 6;

/// Accumulator for one (type, property key) pair.
struct PropertyAggregate {
  /// Instances of the type whose key set contains the key.
  uint64_t present = 0;
  /// Observed value count per DataType (indexed by the enum value).
  std::array<uint64_t, kNumDataTypes> type_counts{};

  bool operator==(const PropertyAggregate&) const = default;
};

/// Retractable accumulator for one schema type (node or edge;
/// the endpoint/degree state stays empty for node types).
struct TypeAggregate {
  /// Instances folded so far — the delta-fold watermark into the type's
  /// instance list, and the denominator of the MANDATORY test.
  uint64_t folded = 0;
  /// Key-presence histogram: interned key set -> instance count. Ordered
  /// map so serialization is canonical without a sort.
  std::map<KeySetId, uint64_t> key_set_counts;
  /// Label-set histogram: interned label set -> instance count. The
  /// retraction path recomputes the type's `labels` from the sets still
  /// carrying a nonzero count.
  std::map<LabelSetId, uint64_t> label_set_counts;
  /// Per-key tallies, keyed by interned key symbol.
  std::map<SymbolId, PropertyAggregate> keys;

  // Edge-only endpoint state. src/tgt label-set histograms back the
  // recomputation of source_labels/target_labels on retraction (unlabeled
  // endpoints count under the empty label set and contribute no strings).
  std::map<LabelSetId, uint64_t> src_set_counts;
  std::map<LabelSetId, uint64_t> tgt_set_counts;
  // Counted degree maps: edge multiplicity per (source, target) — distinct
  // neighbour degree is the inner map's size, and an entry only disappears
  // when its LAST parallel edge retracts. The degree histograms (distinct
  // degree -> endpoint count) are maintained alongside so the maxima stay
  // exact under retraction (the new max is the histogram's last key).
  std::unordered_map<NodeId, std::unordered_map<NodeId, uint64_t>> out_counts;
  std::unordered_map<NodeId, std::unordered_map<NodeId, uint64_t>> in_counts;
  std::map<uint64_t, uint64_t> out_degree_hist;
  std::map<uint64_t, uint64_t> in_degree_hist;

  /// Exact maximum distinct out-/in-degree over the CURRENT edge multiset
  /// (not a running high-water mark — retraction lowers it).
  uint64_t max_out() const {
    return out_degree_hist.empty() ? 0 : out_degree_hist.rbegin()->first;
  }
  uint64_t max_in() const {
    return in_degree_hist.empty() ? 0 : in_degree_hist.rbegin()->first;
  }

  bool operator==(const TypeAggregate&) const = default;
};

/// Aggregate state for a whole schema: one TypeAggregate per schema type,
/// parallel to schema.node_types / schema.edge_types by index (extraction
/// keeps type indices stable).
struct SchemaAggregates {
  std::vector<TypeAggregate> node_types;
  std::vector<TypeAggregate> edge_types;

  /// True when every type's folded count matches its instance count (so
  /// finalization from this state equals a fresh build). False after
  /// instance-list edits outside the fold/retract path, or for aggregates
  /// that were never built.
  bool ConsistentWith(const SchemaGraph& schema) const;

  /// Folds every instance appended to `schema`'s types since the last fold
  /// (all of them, for a fresh aggregate), one type at a time in index
  /// order. O(new instances). Returns false when an instance list SHRANK
  /// below its watermark (an edit outside the retraction path) — the
  /// aggregates are then unusable until rebuilt.
  bool FoldNew(const PropertyGraph& g, const SchemaGraph& schema);

  uint64_t FoldedInstances() const;
  /// Distinct (type, key) tally entries / degree-map endpoint entries —
  /// the pghive.aggregates.* gauge sources.
  uint64_t KeyEntries() const;
  uint64_t DegreeEntries() const;
  /// Approximate heap footprint for the obs gauges.
  uint64_t ApproxBytes() const;

  bool operator==(const SchemaAggregates&) const = default;
};

/// Folds instances [agg->folded, t.instances.size()) of one type into its
/// accumulator — FoldNew's per-type step, and the retraction underflow
/// rebuild when run on a fresh TypeAggregate. The edge form also folds
/// endpoint label sets and the counted degree state.
void FoldInstances(const PropertyGraph& g, const SchemaNodeType& t,
                   TypeAggregate* agg);
void FoldInstances(const PropertyGraph& g, const SchemaEdgeType& t,
                   TypeAggregate* agg);

// --- Per-element retraction (the mutation path, core/retraction.h, drives
// these). ---

/// Retracts one previously folded element (inverse of its fold).
/// Returns false when a count underflowed — the element was never folded
/// into this accumulator, so its state is unusable until rebuilt.
bool RetractNodeElement(const GraphSymbols& sym, const Node& n,
                        TypeAggregate* agg);
bool RetractEdgeElement(const PropertyGraph& g, const Edge& e,
                        TypeAggregate* agg);

// --- Finalization: write aggregate state into the schema. Each function
// reproduces its rescan oracle (tests/rescan_oracle.h) bit-for-bit (given
// ConsistentWith). ---

/// MANDATORY/OPTIONAL from the key-set histograms: a key is MANDATORY iff
/// every instance carries it; instance-less types keep every key OPTIONAL.
void FinalizeConstraints(const GraphSymbols& sym, const SchemaAggregates& agg,
                         SchemaGraph* schema);

/// InferDataTypes (full-scan semantics) from the datatype tallies. The
/// sampling mode is NOT reproducible from tallies — callers must use
/// InferDataTypes when options.sample is set.
void FinalizeDataTypes(const GraphSymbols& sym, const SchemaAggregates& agg,
                       SchemaGraph* schema);

/// Cardinalities from the exact degree maxima (core/cardinality.h).
void FinalizeCardinalities(const SchemaAggregates& agg, SchemaGraph* schema);

/// Mirrors the aggregate footprint into the pghive.aggregates.* gauges.
void PublishAggregateGauges(const SchemaAggregates& agg);

}  // namespace pghive

#endif  // PGHIVE_CORE_AGGREGATES_H_
