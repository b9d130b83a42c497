#include "core/retraction.h"

#include <algorithm>
#include <unordered_set>

#include "graph/symbols.h"

namespace pghive {

void RetractionIndex::Rebuild(const SchemaGraph& schema) {
  nodes_ = Kind();
  edges_ = Kind();
  Sync(schema);
}

void RetractionIndex::Sync(const SchemaGraph& schema) {
  SyncKind(&nodes_, schema.node_types);
  SyncKind(&edges_, schema.edge_types);
}

namespace {

void UnionInto(std::set<std::string>* out, const std::set<std::string>& in) {
  out->insert(in.begin(), in.end());
}

/// Recomputes a type's derived string sets from the count maps: the union
/// over every interned set still carried by >=1 survivor — exactly what
/// extraction's merges accumulated, minus what retraction removed.
template <typename SchemaType>
void RecomputeDerivedSets(const GraphSymbols& sym, const TypeAggregate& agg,
                          SchemaType* type) {
  type->labels.clear();
  for (const auto& [ls, n] : agg.label_set_counts) {
    UnionInto(&type->labels, sym.label_sets.strings(ls));
  }
  type->property_keys.clear();
  for (const auto& [ks, n] : agg.key_set_counts) {
    UnionInto(&type->property_keys, sym.key_sets.strings(ks));
  }
  // Constraints for keys no survivor carries are stale — post-processing
  // only ever overwrites live keys, it never erases.
  for (auto it = type->constraints.begin(); it != type->constraints.end();) {
    if (type->property_keys.count(it->first) == 0) {
      it = type->constraints.erase(it);
    } else {
      ++it;
    }
  }
  if constexpr (std::is_same_v<SchemaType, SchemaEdgeType>) {
    // Unlabeled endpoints count under the empty label set, whose string set
    // is empty — they drop out of the union on their own. Endpoint labels
    // contributed by the discovered-type fallback of BuildEdgeClusters
    // (unlabeled endpoint nodes) are NOT reproducible from the histograms
    // and are conservatively dropped here; fully labeled graphs are exact.
    type->source_labels.clear();
    for (const auto& [ls, n] : agg.src_set_counts) {
      UnionInto(&type->source_labels, sym.label_sets.strings(ls));
    }
    type->target_labels.clear();
    for (const auto& [ls, n] : agg.tgt_set_counts) {
      UnionInto(&type->target_labels, sym.label_sets.strings(ls));
    }
  }
}

/// Shared per-kind driver. `retract_one` subtracts one element from the
/// aggregate (false on underflow); an underflow refolds the whole type from
/// its survivors.
template <typename TypeVec, typename Id, typename TypeOfFn, typename EraseFn,
          typename RetractFn>
Status RetractKind(const PropertyGraph& g, const std::vector<Id>& deleted,
                   const char* what, TypeVec* types,
                   std::vector<TypeAggregate>* aggs,
                   std::unordered_map<uint64_t, std::vector<Id>>* by_type_out,
                   const TypeOfFn& type_of, const EraseFn& erase_id,
                   const RetractFn& retract_one, uint64_t* retracted,
                   uint64_t* rebuilds) {
  // Group by owning type, consuming the index entries as we go so a
  // double-delete inside one batch fails the lookup like any unknown id.
  std::unordered_map<uint64_t, std::vector<Id>>& by_type = *by_type_out;
  for (Id id : deleted) {
    const int t = type_of(id);
    if (t < 0) {
      return Status::InvalidArgument(std::string("cannot delete ") + what +
                                     " " + std::to_string(id) +
                                     ": unknown or already deleted");
    }
    by_type[static_cast<uint64_t>(t)].push_back(id);
    erase_id(id);
  }

  for (auto& [t, ids] : by_type) {
    auto& type = (*types)[t];
    TypeAggregate& agg = (*aggs)[t];
    // Compact the instance list FIRST: an underflow rebuild must see only
    // survivors.
    const std::unordered_set<uint64_t> dead(ids.begin(), ids.end());
    size_t w = 0;
    for (size_t r = 0; r < type.instances.size(); ++r) {
      if (dead.count(type.instances[r])) continue;
      type.instances[w++] = type.instances[r];
    }
    if (type.instances.size() - w != dead.size()) {
      return Status::Internal(std::string("retraction index out of sync: ") +
                              what + " ids missing from type '" + type.name +
                              "' instance list");
    }
    type.instances.resize(w);

    bool ok = true;
    for (Id id : ids) {
      if (!retract_one(id, &agg)) ok = false;
    }
    if (!ok) {
      agg = TypeAggregate();
      FoldInstances(g, type, &agg);
      ++*rebuilds;
    }
    *retracted += ids.size();
  }
  return Status::OK();
}

}  // namespace

Status RetractInstances(const PropertyGraph& g,
                        const std::vector<NodeId>& deleted_nodes,
                        const std::vector<EdgeId>& deleted_edges,
                        SchemaGraph* schema, SchemaAggregates* aggregates,
                        RetractionIndex* index, RetractionStats* stats) {
  const GraphSymbols& sym = g.symbols();

  // Edges first: retiring edge types never disturbs node-type indices, and
  // an edge's endpoint data stays readable either way (the graph itself is
  // append-only — deletion is a schema-membership fact).
  std::unordered_map<uint64_t, std::vector<EdgeId>> edges_by_type;
  PGHIVE_RETURN_NOT_OK(RetractKind(
      g, deleted_edges, "edge", &schema->edge_types, &aggregates->edge_types,
      &edges_by_type, [&](EdgeId id) { return index->EdgeTypeOf(id); },
      [&](EdgeId id) { index->EraseEdge(id); },
      [&](EdgeId id, TypeAggregate* agg) {
        return RetractEdgeElement(g, g.edge(id), agg);
      },
      &stats->edges_retracted, &stats->aggregate_rebuilds));

  std::unordered_map<uint64_t, std::vector<NodeId>> nodes_by_type;
  PGHIVE_RETURN_NOT_OK(RetractKind(
      g, deleted_nodes, "node", &schema->node_types, &aggregates->node_types,
      &nodes_by_type, [&](NodeId id) { return index->NodeTypeOf(id); },
      [&](NodeId id) { index->EraseNode(id); },
      [&](NodeId id, TypeAggregate* agg) {
        return RetractNodeElement(sym, g.node(id), agg);
      },
      &stats->nodes_retracted, &stats->aggregate_rebuilds));

  // Dangling-edge check: a deleted node must not survive as an endpoint of
  // a live edge. Checking only the touched edges' endpoints would miss
  // edges of untouched types, so check deleted nodes against the index via
  // the edges of every touched NODE's id — cheapest exact check is per
  // deleted node over its incident edges, which the graph does not index;
  // instead the equivalence contract is enforced where edges are applied
  // (drift::ApplyMutationBatch validates endpoint closure with the batch's
  // deletion sets in hand).

  // Survivor bookkeeping + retirement, per kind, descending index so the
  // erases don't shift pending indices.
  std::vector<size_t> retired;
  for (const auto& [t, ids] : edges_by_type) {
    if (schema->edge_types[t].instances.empty()) {
      retired.push_back(t);
    } else {
      RecomputeDerivedSets(sym, aggregates->edge_types[t],
                           &schema->edge_types[t]);
    }
    index->SetEdgeWatermark(t, schema->edge_types[t].instances.size());
  }
  std::sort(retired.rbegin(), retired.rend());
  for (size_t t : retired) {
    schema->edge_types.erase(schema->edge_types.begin() +
                             static_cast<ptrdiff_t>(t));
    aggregates->edge_types.erase(aggregates->edge_types.begin() +
                                 static_cast<ptrdiff_t>(t));
    index->RetireEdgeType(t);
    ++stats->edge_types_retired;
  }

  retired.clear();
  for (const auto& [t, ids] : nodes_by_type) {
    if (schema->node_types[t].instances.empty()) {
      retired.push_back(t);
    } else {
      RecomputeDerivedSets(sym, aggregates->node_types[t],
                           &schema->node_types[t]);
    }
    index->SetNodeWatermark(t, schema->node_types[t].instances.size());
  }
  std::sort(retired.rbegin(), retired.rend());
  for (size_t t : retired) {
    schema->node_types.erase(schema->node_types.begin() +
                             static_cast<ptrdiff_t>(t));
    aggregates->node_types.erase(aggregates->node_types.begin() +
                                 static_cast<ptrdiff_t>(t));
    index->RetireNodeType(t);
    ++stats->node_types_retired;
  }
  return Status::OK();
}

}  // namespace pghive
