#include "core/datatype_inference.h"

#include <algorithm>

#include "common/random.h"

namespace pghive {

DataType FoldValueTypes(const std::vector<const Value*>& values) {
  if (values.empty()) return DataType::kString;
  DataType acc = values[0]->type();
  for (size_t i = 1; i < values.size(); ++i) {
    acc = GeneralizeDataType(acc, values[i]->type());
    if (acc == DataType::kString) break;  // cannot generalize further
  }
  return acc;
}

namespace {

template <typename TypeT, typename GetElem>
void InferForType(const GraphSymbols& sym, TypeT* t,
                  const DataTypeInferenceOptions& options, Rng* rng,
                  GetElem get) {
  for (const auto& key : t->property_keys) {
    // Key presence is a function of the interned key set, so resolve it
    // once per distinct set; the per-instance scan then tests one byte
    // before touching the property row.
    std::vector<char> has(sym.key_sets.size(), 0);
    for (size_t ks = 0; ks < has.size(); ++ks) {
      has[ks] =
          sym.key_sets.strings(static_cast<KeySetId>(ks)).count(key) ? 1 : 0;
    }
    // Collect (pointers to) all observed values of this property, in
    // instance order — the order the sample indices below refer to.
    std::vector<const Value*> values;
    for (size_t id : t->instances) {
      const auto& elem = get(id);
      if (has[elem.key_set]) values.push_back(elem.properties.FindValue(key));
    }
    if (options.sample && values.size() > options.min_sample) {
      size_t want = std::max(
          options.min_sample,
          static_cast<size_t>(options.sample_fraction *
                              static_cast<double>(values.size())));
      if (want < values.size()) {
        auto pick = rng->SampleWithoutReplacement(values.size(), want);
        std::vector<const Value*> sampled;
        sampled.reserve(pick.size());
        for (size_t idx : pick) sampled.push_back(values[idx]);
        values = std::move(sampled);
      }
    }
    t->constraints[key].type = FoldValueTypes(values);
  }
}

}  // namespace

void InferDataTypes(const PropertyGraph& g,
                    const DataTypeInferenceOptions& options,
                    SchemaGraph* schema) {
  Rng rng(options.seed, 0xd7);
  for (auto& t : schema->node_types) {
    InferForType(g.symbols(), &t, options, &rng,
                 [&](NodeId id) -> const Node& { return g.node(id); });
  }
  for (auto& t : schema->edge_types) {
    InferForType(g.symbols(), &t, options, &rng,
                 [&](EdgeId id) -> const Edge& { return g.edge(id); });
  }
}

}  // namespace pghive
