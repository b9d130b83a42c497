#include "core/aggregates.h"

#include "core/cardinality.h"
#include "obs/metrics.h"

namespace pghive {

namespace {

/// Moves one endpoint between degree-histogram buckets (its distinct degree
/// changed from `from` to `to`; 0 means "no bucket").
void HistShift(std::map<uint64_t, uint64_t>* hist, uint64_t from,
               uint64_t to) {
  if (from == to) return;
  if (from > 0) {
    auto it = hist->find(from);
    if (it != hist->end() && --it->second == 0) hist->erase(it);
  }
  if (to > 0) ++(*hist)[to];
}

/// Folds one element (node or edge) into its type's accumulator: key-set +
/// label-set histograms and the per-key datatype tally. The
/// element's value row is aligned with its key set's canonical
/// (lexicographic) key order, so the key ids and values pair up
/// positionally — no per-key lookup.
template <typename Elem>
void FoldElement(const GraphSymbols& sym, const Elem& el, TypeAggregate* agg) {
  ++agg->folded;
  ++agg->key_set_counts[el.key_set];
  ++agg->label_set_counts[el.label_set];
  const std::vector<SymbolId>& key_ids = sym.key_sets.ids(el.key_set);
  for (size_t i = 0; i < key_ids.size(); ++i) {
    PropertyAggregate& pa = agg->keys[key_ids[i]];
    ++pa.present;
    ++pa.type_counts[static_cast<size_t>(el.properties.value_at(i).type())];
  }
}

/// Folds an edge's endpoints: endpoint label-set histograms plus the counted
/// degree maps and their degree histograms.
void FoldEdgeEndpoints(const PropertyGraph& g, const Edge& e,
                       TypeAggregate* agg) {
  ++agg->src_set_counts[g.node(e.source).label_set];
  ++agg->tgt_set_counts[g.node(e.target).label_set];
  auto& targets = agg->out_counts[e.source];
  if (++targets[e.target] == 1) {
    HistShift(&agg->out_degree_hist, targets.size() - 1, targets.size());
  }
  auto& sources = agg->in_counts[e.target];
  if (++sources[e.source] == 1) {
    HistShift(&agg->in_degree_hist, sources.size() - 1, sources.size());
  }
}

/// Decrements a counted-histogram entry, erasing it at zero. False when the
/// entry is missing (underflow).
template <typename Map, typename Key>
bool DecrementCount(Map* map, const Key& key) {
  auto it = map->find(key);
  if (it == map->end() || it->second == 0) return false;
  if (--it->second == 0) map->erase(it);
  return true;
}

/// Inverse of FoldElement. Map entries are erased at count zero so the
/// retracted state matches a fresh fold of the survivors bit-for-bit.
/// False on underflow.
template <typename Elem>
bool RetractElement(const GraphSymbols& sym, const Elem& el,
                    TypeAggregate* agg) {
  if (agg->folded == 0) return false;
  --agg->folded;
  bool ok = DecrementCount(&agg->key_set_counts, el.key_set);
  if (!DecrementCount(&agg->label_set_counts, el.label_set)) ok = false;
  const std::vector<SymbolId>& key_ids = sym.key_sets.ids(el.key_set);
  for (size_t i = 0; i < key_ids.size(); ++i) {
    auto kit = agg->keys.find(key_ids[i]);
    if (kit == agg->keys.end()) {
      ok = false;
      continue;
    }
    PropertyAggregate& pa = kit->second;
    const size_t d = static_cast<size_t>(el.properties.value_at(i).type());
    if (pa.present == 0 || pa.type_counts[d] == 0) {
      ok = false;
      continue;
    }
    --pa.present;
    --pa.type_counts[d];
    if (pa.present == 0) agg->keys.erase(kit);
  }
  return ok;
}

/// Inverse of FoldEdgeEndpoints. False on underflow.
bool RetractEdgeEndpoints(const PropertyGraph& g, const Edge& e,
                          TypeAggregate* agg) {
  bool ok = DecrementCount(&agg->src_set_counts, g.node(e.source).label_set);
  if (!DecrementCount(&agg->tgt_set_counts, g.node(e.target).label_set)) {
    ok = false;
  }
  auto retract_one =
      [&](std::unordered_map<NodeId, std::unordered_map<NodeId, uint64_t>>*
              counts,
          std::map<uint64_t, uint64_t>* hist, NodeId endpoint, NodeId other) {
        auto it = counts->find(endpoint);
        if (it == counts->end()) return false;
        auto jt = it->second.find(other);
        if (jt == it->second.end() || jt->second == 0) return false;
        if (--jt->second == 0) {
          const uint64_t degree = it->second.size();
          it->second.erase(jt);
          HistShift(hist, degree, degree - 1);
          if (it->second.empty()) counts->erase(it);
        }
        return true;
      };
  if (!retract_one(&agg->out_counts, &agg->out_degree_hist, e.source,
                   e.target)) {
    ok = false;
  }
  if (!retract_one(&agg->in_counts, &agg->in_degree_hist, e.target,
                   e.source)) {
    ok = false;
  }
  return ok;
}

/// Joins the distinct observed datatypes of a tally in enum order. Equal to
/// the sequential FoldValueTypes left fold because GeneralizeDataType is a
/// semilattice join (order-independent); an empty tally is String, matching
/// FoldValueTypes({}).
DataType JoinTally(const std::array<uint64_t, kNumDataTypes>& counts) {
  bool any = false;
  DataType acc = DataType::kString;
  for (size_t d = 0; d < kNumDataTypes; ++d) {
    if (counts[d] == 0) continue;
    const DataType dt = static_cast<DataType>(d);
    acc = any ? GeneralizeDataType(acc, dt) : dt;
    any = true;
  }
  return acc;
}

uint64_t PresentCount(const GraphSymbols& sym, const TypeAggregate& agg,
                      const std::string& key,
                      const PropertyAggregate** out_pa) {
  *out_pa = nullptr;
  const SymbolId* sid = sym.keys.Find(key);
  if (sid == nullptr) return 0;
  auto it = agg.keys.find(*sid);
  if (it == agg.keys.end()) return 0;
  *out_pa = &it->second;
  return it->second.present;
}

}  // namespace

bool SchemaAggregates::ConsistentWith(const SchemaGraph& schema) const {
  if (node_types.size() != schema.node_types.size() ||
      edge_types.size() != schema.edge_types.size()) {
    return false;
  }
  for (size_t i = 0; i < node_types.size(); ++i) {
    if (node_types[i].folded != schema.node_types[i].instances.size()) {
      return false;
    }
  }
  for (size_t i = 0; i < edge_types.size(); ++i) {
    if (edge_types[i].folded != schema.edge_types[i].instances.size()) {
      return false;
    }
  }
  return true;
}

bool SchemaAggregates::FoldNew(const PropertyGraph& g,
                               const SchemaGraph& schema) {
  bool ok = node_types.size() <= schema.node_types.size() &&
            edge_types.size() <= schema.edge_types.size();
  node_types.resize(schema.node_types.size());
  edge_types.resize(schema.edge_types.size());
  auto fold_kind = [&](const auto& types, std::vector<TypeAggregate>* aggs) {
    for (size_t i = 0; i < aggs->size(); ++i) {
      TypeAggregate& a = (*aggs)[i];
      if (a.folded > types[i].instances.size()) {
        ok = false;  // instance list shrank below the watermark
        continue;
      }
      FoldInstances(g, types[i], &a);
    }
  };
  fold_kind(schema.node_types, &node_types);
  fold_kind(schema.edge_types, &edge_types);
  return ok;
}

uint64_t SchemaAggregates::FoldedInstances() const {
  uint64_t total = 0;
  for (const auto& a : node_types) total += a.folded;
  for (const auto& a : edge_types) total += a.folded;
  return total;
}

uint64_t SchemaAggregates::KeyEntries() const {
  uint64_t total = 0;
  for (const auto& a : node_types) total += a.keys.size();
  for (const auto& a : edge_types) total += a.keys.size();
  return total;
}

uint64_t SchemaAggregates::DegreeEntries() const {
  uint64_t total = 0;
  for (const auto& a : edge_types) {
    total += a.out_counts.size() + a.in_counts.size();
  }
  return total;
}

uint64_t SchemaAggregates::ApproxBytes() const {
  // Rough heap accounting: per-entry node overhead for the tree maps, bucket
  // + element cost for the hash containers.
  constexpr uint64_t kMapNode = 48;
  constexpr uint64_t kHashEntry = 32;
  uint64_t bytes = 0;
  auto type_bytes = [&](const TypeAggregate& a) {
    bytes += sizeof(TypeAggregate);
    const uint64_t count_maps = a.key_set_counts.size() +
                                a.label_set_counts.size() +
                                a.src_set_counts.size() +
                                a.tgt_set_counts.size() +
                                a.out_degree_hist.size() +
                                a.in_degree_hist.size();
    bytes += count_maps * (kMapNode + sizeof(uint64_t) * 2);
    bytes += a.keys.size() * (kMapNode + sizeof(PropertyAggregate));
    for (const auto* m : {&a.out_counts, &a.in_counts}) {
      bytes += m->size() *
               (kHashEntry + sizeof(std::unordered_map<NodeId, uint64_t>));
      for (const auto& [k, s] : *m) bytes += s.size() * kHashEntry;
    }
  };
  for (const auto& a : node_types) type_bytes(a);
  for (const auto& a : edge_types) type_bytes(a);
  return bytes;
}

void FoldInstances(const PropertyGraph& g, const SchemaNodeType& t,
                   TypeAggregate* agg) {
  const GraphSymbols& sym = g.symbols();
  for (size_t j = agg->folded; j < t.instances.size(); ++j) {
    FoldElement(sym, g.node(t.instances[j]), agg);
  }
}

void FoldInstances(const PropertyGraph& g, const SchemaEdgeType& t,
                   TypeAggregate* agg) {
  const GraphSymbols& sym = g.symbols();
  for (size_t j = agg->folded; j < t.instances.size(); ++j) {
    const Edge& e = g.edge(t.instances[j]);
    FoldElement(sym, e, agg);
    FoldEdgeEndpoints(g, e, agg);
  }
}

bool RetractNodeElement(const GraphSymbols& sym, const Node& n,
                        TypeAggregate* agg) {
  return RetractElement(sym, n, agg);
}

bool RetractEdgeElement(const PropertyGraph& g, const Edge& e,
                        TypeAggregate* agg) {
  const bool ok = RetractElement(g.symbols(), e, agg);
  return RetractEdgeEndpoints(g, e, agg) && ok;
}

void FinalizeConstraints(const GraphSymbols& sym, const SchemaAggregates& agg,
                         SchemaGraph* schema) {
  auto run = [&](auto* types, const std::vector<TypeAggregate>& aggs) {
    for (size_t i = 0; i < types->size(); ++i) {
      auto& t = (*types)[i];
      const TypeAggregate& a = aggs[i];
      for (const auto& key : t.property_keys) {
        PropertyConstraint& c = t.constraints[key];  // default-insert
        const PropertyAggregate* pa = nullptr;
        const uint64_t present = PresentCount(sym, a, key, &pa);
        c.mandatory = a.folded > 0 && present == a.folded;
      }
    }
  };
  run(&schema->node_types, agg.node_types);
  run(&schema->edge_types, agg.edge_types);
}

void FinalizeDataTypes(const GraphSymbols& sym, const SchemaAggregates& agg,
                       SchemaGraph* schema) {
  auto run = [&](auto* types, const std::vector<TypeAggregate>& aggs) {
    for (size_t i = 0; i < types->size(); ++i) {
      auto& t = (*types)[i];
      const TypeAggregate& a = aggs[i];
      for (const auto& key : t.property_keys) {
        const PropertyAggregate* pa = nullptr;
        PresentCount(sym, a, key, &pa);
        t.constraints[key].type =
            pa == nullptr ? DataType::kString : JoinTally(pa->type_counts);
      }
    }
  };
  run(&schema->node_types, agg.node_types);
  run(&schema->edge_types, agg.edge_types);
}

void FinalizeCardinalities(const SchemaAggregates& agg, SchemaGraph* schema) {
  for (size_t i = 0; i < schema->edge_types.size(); ++i) {
    SchemaEdgeType& t = schema->edge_types[i];
    const TypeAggregate& a = agg.edge_types[i];
    t.max_out_degree = static_cast<size_t>(a.max_out());
    t.max_in_degree = static_cast<size_t>(a.max_in());
    t.cardinality = ClassifyCardinality(t.max_out_degree, t.max_in_degree);
  }
}

void PublishAggregateGauges(const SchemaAggregates& agg) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("pghive.aggregates.node_types")
      ->Set(static_cast<int64_t>(agg.node_types.size()));
  reg.GetGauge("pghive.aggregates.edge_types")
      ->Set(static_cast<int64_t>(agg.edge_types.size()));
  reg.GetGauge("pghive.aggregates.folded_instances")
      ->Set(static_cast<int64_t>(agg.FoldedInstances()));
  reg.GetGauge("pghive.aggregates.key_entries")
      ->Set(static_cast<int64_t>(agg.KeyEntries()));
  reg.GetGauge("pghive.aggregates.degree_entries")
      ->Set(static_cast<int64_t>(agg.DegreeEntries()));
  reg.GetGauge("pghive.aggregates.approx_bytes")
      ->Set(static_cast<int64_t>(agg.ApproxBytes()));
}

}  // namespace pghive
