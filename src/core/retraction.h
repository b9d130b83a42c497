// Instance retraction: the shrink half of mutation streams.
//
// Type extraction only ever APPENDS instances to schema types, so the
// delta-maintained aggregates (core/aggregates.h) track instance lists with
// a simple per-type watermark. Deletions break that invariant; this module
// restores it by retracting elements from both halves at once — the schema's
// instance lists AND the aggregates — so that after a retraction the state
// is bit-identical to what a fresh run over only the surviving elements
// would have produced for the same type assignment:
//
//   * instance lists compact order-preservingly (survivors keep their
//     relative order, exactly as if the deleted ids were never assigned);
//   * aggregates subtract per element (Retract*Element) — every component
//     is a count — falling back to a single-type rebuild on underflow;
//   * a type's derived sets (labels, property_keys, endpoint label sets)
//     are recomputed from the aggregate's count-map keys — the union over
//     the label/key sets still carried by at least one survivor — and
//     constraints entries for vanished keys are erased;
//   * a type whose last instance retracts is RETIRED: erased from the
//     schema (and its aggregate slot with it). Abstract-name ordinals are
//     allocated above the maximum LIVE ordinal, so retiring ABSTRACT_k can
//     recycle the name — consumers identify epochs, not eternal type ids.
//
// RetractionIndex answers "which type owns element id X" in O(1). It is
// maintained lazily: Sync() walks only the instances appended since the
// last sync (per-type watermark) and is called by the mutation path before
// each retraction; retirement fixups are O(#types). The index holds type
// INDICES behind a slot indirection so a retirement does not touch the
// per-element map.
//
// Deletion semantics are exact, not best-effort: deleting an id that no
// live type owns (never inserted, or already deleted) is an InvalidArgument
// error, as is a dangling edge left behind by a node deletion (callers must
// delete or update a node's incident edges in the same batch — see
// graph/mutations.h).

#ifndef PGHIVE_CORE_RETRACTION_H_
#define PGHIVE_CORE_RETRACTION_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/aggregates.h"
#include "core/schema.h"
#include "graph/property_graph.h"

namespace pghive {

/// O(1) element-id -> owning-type lookup over a schema's instance lists.
class RetractionIndex {
 public:
  /// Discards everything and re-indexes `schema` from scratch.
  void Rebuild(const SchemaGraph& schema);

  /// Indexes types and instances appended since the last Rebuild/Sync
  /// (O(new instances)). Instance lists must only have GROWN in between —
  /// shrinking goes through RetractInstances, which maintains the index
  /// itself.
  void Sync(const SchemaGraph& schema);

  /// Index of the node/edge type owning `id`, or -1 when no live type does.
  int NodeTypeOf(NodeId id) const { return TypeOf(nodes_, id); }
  int EdgeTypeOf(EdgeId id) const { return TypeOf(edges_, id); }

  void EraseNode(NodeId id) { nodes_.slot_of_id.erase(id); }
  void EraseEdge(EdgeId id) { edges_.slot_of_id.erase(id); }

  /// Records that the type's instance list was compacted to `count`
  /// survivors (all of them already indexed).
  void SetNodeWatermark(size_t type_index, uint64_t count) {
    nodes_.slots[nodes_.slot_of_type[type_index]].indexed = count;
  }
  void SetEdgeWatermark(size_t type_index, uint64_t count) {
    edges_.slots[edges_.slot_of_type[type_index]].indexed = count;
  }

  /// Removes a (now empty) type from the index and shifts the indices of
  /// every later type down by one — call in DESCENDING index order when
  /// retiring several, mirroring the schema-vector erases.
  void RetireNodeType(size_t type_index) { RetireType(&nodes_, type_index); }
  void RetireEdgeType(size_t type_index) { RetireType(&edges_, type_index); }

 private:
  static constexpr uint32_t kDeadSlot = UINT32_MAX;

  struct Kind {
    // A slot is a stable handle for one type; retirement rewrites only the
    // slot table, never the per-element map.
    struct Slot {
      uint32_t type_index = 0;  // kDeadSlot once retired
      uint64_t indexed = 0;     // instance-list watermark
    };
    std::vector<Slot> slots;
    std::vector<uint32_t> slot_of_type;  // type index -> slot
    std::unordered_map<uint64_t, uint32_t> slot_of_id;
  };

  template <typename TypeVec>
  static void SyncKind(Kind* k, const TypeVec& types) {
    for (size_t t = k->slot_of_type.size(); t < types.size(); ++t) {
      k->slot_of_type.push_back(static_cast<uint32_t>(k->slots.size()));
      k->slots.push_back({static_cast<uint32_t>(t), 0});
    }
    for (size_t t = 0; t < types.size(); ++t) {
      const uint32_t slot = k->slot_of_type[t];
      Kind::Slot& s = k->slots[slot];
      const auto& inst = types[t].instances;
      for (size_t i = s.indexed; i < inst.size(); ++i) {
        k->slot_of_id[inst[i]] = slot;
      }
      s.indexed = inst.size();
    }
  }

  static int TypeOf(const Kind& k, uint64_t id) {
    auto it = k.slot_of_id.find(id);
    if (it == k.slot_of_id.end()) return -1;
    const uint32_t t = k.slots[it->second].type_index;
    return t == kDeadSlot ? -1 : static_cast<int>(t);
  }

  static void RetireType(Kind* k, size_t type_index) {
    k->slots[k->slot_of_type[type_index]].type_index = kDeadSlot;
    k->slot_of_type.erase(k->slot_of_type.begin() +
                          static_cast<ptrdiff_t>(type_index));
    for (size_t t = type_index; t < k->slot_of_type.size(); ++t) {
      --k->slots[k->slot_of_type[t]].type_index;
    }
  }

  Kind nodes_;
  Kind edges_;
};

/// What one retraction pass did (obs + test introspection).
struct RetractionStats {
  uint64_t nodes_retracted = 0;
  uint64_t edges_retracted = 0;
  uint64_t node_types_retired = 0;
  uint64_t edge_types_retired = 0;
  /// Types whose accumulator underflowed and was rebuilt from survivors.
  uint64_t aggregate_rebuilds = 0;
};

/// Retracts the given elements from `schema` + `aggregates` (see file
/// comment for the exact guarantees). `index` must be synced with `schema`;
/// it is maintained through the retraction. On error the state may be
/// partially retracted — callers treat any failure as fatal for the stream.
Status RetractInstances(const PropertyGraph& g,
                        const std::vector<NodeId>& deleted_nodes,
                        const std::vector<EdgeId>& deleted_edges,
                        SchemaGraph* schema, SchemaAggregates* aggregates,
                        RetractionIndex* index, RetractionStats* stats);

}  // namespace pghive

#endif  // PGHIVE_CORE_RETRACTION_H_
