// Property datatype inference (paper §4.4, "Property data types").
//
// For each (type, property) pair the observed values are classified with the
// priority hierarchy int -> double -> bool -> date/timestamp -> string, and
// the per-value types are folded with GeneralizeDataType so the result is
// always compatible with every observed value (§4.7). A sampling mode
// classifies only a random subset (default: 10% of the values, at least
// 1000), trading a small error (measured in Figure 8) for a large speedup.

#ifndef PGHIVE_CORE_DATATYPE_INFERENCE_H_
#define PGHIVE_CORE_DATATYPE_INFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/schema.h"
#include "graph/property_graph.h"

namespace pghive {

struct DataTypeInferenceOptions {
  /// When true, classify a sample instead of all values.
  bool sample = false;
  /// Sampling fraction (paper default 10%).
  double sample_fraction = 0.10;
  /// Lower bound on the sample size (paper: at least 1000 values).
  size_t min_sample = 1000;
  uint64_t seed = 7071;
};

/// Fills the `type` field of every property constraint of every schema type
/// (creating entries where missing). Values are collected in instance order
/// and the sampling RNG is consumed in (type, key) order.
void InferDataTypes(const PropertyGraph& g,
                    const DataTypeInferenceOptions& options,
                    SchemaGraph* schema);

/// Folds a list of runtime values into the most specific compatible
/// DataType (String for an empty list). Exposed for tests / Figure 8.
DataType FoldValueTypes(const std::vector<const Value*>& values);

}  // namespace pghive

#endif  // PGHIVE_CORE_DATATYPE_INFERENCE_H_
