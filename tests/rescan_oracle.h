// Rescan oracle for post-processing (paper §4.4).
//
// The library finalizes constraints, datatypes and cardinalities from
// delta-maintained aggregates (core/aggregates.h). The passes here compute
// the same outputs directly — one scan over every assigned instance per
// call — so tests can check the aggregate path against an independent
// implementation. Only tests use them.
//
//   constraints    a property is MANDATORY for a type iff every assigned
//                  instance carries it (frequency f_T(p) = 1), OPTIONAL
//                  otherwise; instance-less types keep all properties
//                  optional.
//   cardinalities  maximum distinct out-degree (targets per source) and
//                  in-degree (sources per target) per edge type, classified
//                  by ClassifyCardinality.
//   datatypes      InferDataTypes, the library's own value scan.

#ifndef PGHIVE_TESTS_RESCAN_ORACLE_H_
#define PGHIVE_TESTS_RESCAN_ORACLE_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cardinality.h"
#include "core/datatype_inference.h"
#include "core/schema.h"
#include "graph/property_graph.h"

namespace pghive {

namespace rescan_internal {

// Flips the mandatory bit for keys present in every instance, creating
// constraint entries (default String datatype) where missing. Key presence
// is answered once per distinct interned key set, not once per instance.
template <typename TypeT, typename GetKeySet>
void InferConstraintsForType(const GraphSymbols& sym, TypeT* t,
                             GetKeySet get_ks) {
  std::unordered_map<KeySetId, size_t> ks_counts;
  for (auto id : t->instances) ++ks_counts[get_ks(id)];
  for (const auto& key : t->property_keys) {
    size_t carriers = 0;
    for (const auto& [ks, n] : ks_counts) {
      if (sym.key_sets.strings(ks).count(key)) carriers += n;
    }
    PropertyConstraint& c = t->constraints[key];  // default-insert
    c.mandatory = !t->instances.empty() && carriers == t->instances.size();
  }
}

}  // namespace rescan_internal

/// Fills the `mandatory` flag of every property constraint of every type.
inline void InferPropertyConstraints(const PropertyGraph& g,
                                     SchemaGraph* schema) {
  for (auto& t : schema->node_types) {
    rescan_internal::InferConstraintsForType(
        g.symbols(), &t, [&](NodeId id) { return g.node(id).key_set; });
  }
  for (auto& t : schema->edge_types) {
    rescan_internal::InferConstraintsForType(
        g.symbols(), &t, [&](EdgeId id) { return g.edge(id).key_set; });
  }
}

/// Fills cardinality / max_out_degree / max_in_degree of every edge type.
inline void ComputeCardinalities(const PropertyGraph& g, SchemaGraph* schema) {
  for (auto& t : schema->edge_types) {
    std::unordered_map<NodeId, std::unordered_set<NodeId>> out_sets;
    std::unordered_map<NodeId, std::unordered_set<NodeId>> in_sets;
    for (EdgeId id : t.instances) {
      const Edge& e = g.edge(id);
      out_sets[e.source].insert(e.target);
      in_sets[e.target].insert(e.source);
    }
    size_t max_out = 0;
    for (const auto& [src, tgts] : out_sets) {
      max_out = std::max(max_out, tgts.size());
    }
    size_t max_in = 0;
    for (const auto& [tgt, srcs] : in_sets) {
      max_in = std::max(max_in, srcs.size());
    }
    t.max_out_degree = max_out;
    t.max_in_degree = max_in;
    t.cardinality = ClassifyCardinality(max_out, max_in);
  }
}

/// `schema` post-processed by the three rescan passes, in the pipeline's
/// order. Whatever post-processing wrote before (constraints, cardinalities)
/// is cleared first, so the result depends only on the instance lists and
/// property keys.
inline SchemaGraph RescanPostProcess(
    const PropertyGraph& g, SchemaGraph schema,
    const DataTypeInferenceOptions& datatypes = {}) {
  for (auto& t : schema.node_types) t.constraints.clear();
  for (auto& t : schema.edge_types) {
    t.constraints.clear();
    t.cardinality = SchemaCardinality::kUnknown;
    t.max_out_degree = 0;
    t.max_in_degree = 0;
  }
  InferPropertyConstraints(g, &schema);
  InferDataTypes(g, datatypes, &schema);
  ComputeCardinalities(g, &schema);
  return schema;
}

}  // namespace pghive

#endif  // PGHIVE_TESTS_RESCAN_ORACLE_H_
