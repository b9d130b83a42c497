#include "core/cardinality.h"

namespace pghive {

SchemaCardinality ClassifyCardinality(size_t max_out, size_t max_in) {
  if (max_out == 0 || max_in == 0) return SchemaCardinality::kUnknown;
  bool out_many = max_out > 1;
  bool in_many = max_in > 1;
  if (!out_many && !in_many) return SchemaCardinality::kZeroOrOne;
  if (!out_many && in_many) return SchemaCardinality::kManyToOne;
  if (out_many && !in_many) return SchemaCardinality::kOneToMany;
  return SchemaCardinality::kManyToMany;
}

}  // namespace pghive
