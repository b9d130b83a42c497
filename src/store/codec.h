// Binary codecs for the durable-state snapshot and journal (src/store/).
//
// Each Encode*/Decode* pair round-trips one state component exactly:
// re-encoding a decoded component yields byte-identical output (doubles are
// stored as raw bit patterns, containers in their deterministic iteration
// order). Decoders are bounds-checked and return ParseError on truncated or
// malformed bytes — they never crash on corrupt input.
//
// Journal payloads are written only in the v3 layout and aggregates only in
// the snapshot-v5 layout; the v1/v2 payload and v4 aggregates decoders stay
// for reading the state directories those versions wrote.

#ifndef PGHIVE_STORE_CODEC_H_
#define PGHIVE_STORE_CODEC_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "core/aggregates.h"
#include "core/schema.h"
#include "graph/mutations.h"
#include "graph/property_graph.h"
#include "lsh/adaptive_params.h"

namespace pghive {
namespace store {

// --- Property values and graph elements. ---

void EncodeValue(const Value& v, BinaryWriter* w);
Result<Value> DecodeValue(BinaryReader* r);

// Elements encode from either the graph's interned Node/Edge or the owning
// NodeData/EdgeData transit structs (identical wire bytes); decode always
// produces the transit structs, which are re-interned on insertion.
void EncodeNode(const Node& n, BinaryWriter* w);
void EncodeNode(const NodeData& n, BinaryWriter* w);
Result<NodeData> DecodeNode(BinaryReader* r);

void EncodeEdge(const Edge& e, BinaryWriter* w);
void EncodeEdge(const EdgeData& e, BinaryWriter* w);
Result<EdgeData> DecodeEdge(BinaryReader* r);

/// Whole graph, v1 layout: node count + nodes, edge count + edges, every
/// element spelling its strings out. Decoded elements are re-inserted
/// through AddNode/AddEdge, so dense insertion-order ids are preserved
/// (decode fails if the encoded ids were not dense). Kept for reading v1
/// snapshots; v2 writes the symbols + columnar pair below.
void EncodeGraph(const PropertyGraph& g, BinaryWriter* w);
Result<PropertyGraph> DecodeGraph(BinaryReader* r);

/// v2 symbol-table section: label/key string tables + canonical set pools,
/// in interning order. Decoding re-interns everything into a fresh context,
/// reproducing the exact same dense ids (fails if the encoded tables are
/// not canonical: duplicate strings, unsorted or duplicate sets).
void EncodeSymbols(const GraphSymbols& sym, BinaryWriter* w);
Result<std::shared_ptr<GraphSymbols>> DecodeSymbols(BinaryReader* r);

/// v2 columnar graph section: per element only the interned label-set /
/// key-set ids, the value row (aligned with the key set's canonical key
/// order) and the truth tag — each distinct string and set is stored once,
/// in the symbols section. `symbols` must be the context decoded from the
/// same snapshot.
void EncodeGraphColumnar(const PropertyGraph& g, BinaryWriter* w);
Result<PropertyGraph> DecodeGraphColumnar(
    BinaryReader* r, std::shared_ptr<GraphSymbols> symbols);

/// One journal batch payload: the node and edge rows of a single
/// incremental batch, in insertion order, plus the batch's mutation half.
/// Edge endpoints are global NodeIds into the accumulated graph.
using BatchPayload = MutationBatch;

/// Journal-v1 batch payload (read only): node count + nodes, edge count +
/// edges, every element spelling its strings out. Insert half only.
Result<BatchPayload> DecodeBatchPayload(BinaryReader* r);

/// Journal-v2 batch payload (read only): a batch-local string dictionary +
/// set table, then per-element set references — each distinct label/key
/// string once per batch instead of once per element. Insert half only.
Result<BatchPayload> DecodeBatchPayloadV2(BinaryReader* r);

/// Journal-v3 batch payload, the only one written: the v2 dictionary body
/// for the insert half, followed by delete-node / delete-edge id vectors
/// and update records (old id + replacement element). Round-trips the full
/// MutationBatch.
void EncodeBatchPayloadV3(const BatchPayload& payload, BinaryWriter* w);
Result<BatchPayload> DecodeBatchPayloadV3(BinaryReader* r);

// --- Discovered schema. ---

void EncodeSchema(const SchemaGraph& schema, BinaryWriter* w);
Result<SchemaGraph> DecodeSchema(BinaryReader* r);

// --- Post-processing aggregates and LSH diagnostics. ---

/// Delta-maintained post-processing aggregates (snapshot v5 layout: counted
/// key-set / label-set / endpoint-set histograms, per-key presence and
/// datatype tallies, and counted degree maps, so the retraction-capable
/// accumulators round-trip). Every map serializes in ascending id order
/// (the unordered degree maps are sorted first), so equal aggregate content
/// always yields identical bytes. Derived members (degree histograms) are
/// not stored — the decoder rebuilds them.
///
/// DecodeAggregates takes the snapshot's format version: v4 key entries
/// carry a 24-byte numeric count/min/max triple that is read and dropped.
/// The v3 layout is not decodable; snapshot.cc discards v3 aggregate
/// sections and recovery rebuilds from the graph. The decoder accepts only
/// what the writer emits — strictly increasing ids and nonzero counts in
/// every count map, key map and degree map — and returns ParseError
/// otherwise.
void EncodeAggregates(const SchemaAggregates& agg, BinaryWriter* w);
Result<SchemaAggregates> DecodeAggregates(BinaryReader* r, uint32_t version);

void EncodeAdaptiveParams(const AdaptiveLshParams& p, BinaryWriter* w);
Result<AdaptiveLshParams> DecodeAdaptiveParams(BinaryReader* r);

// --- Small shared helpers (exposed for tests). ---

void EncodeStringSet(const std::set<std::string>& s, BinaryWriter* w);
Result<std::set<std::string>> DecodeStringSet(BinaryReader* r);

void EncodeDoubleVector(const std::vector<double>& v, BinaryWriter* w);
Result<std::vector<double>> DecodeDoubleVector(BinaryReader* r);

}  // namespace store
}  // namespace pghive

#endif  // PGHIVE_STORE_CODEC_H_
