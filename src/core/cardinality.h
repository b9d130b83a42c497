// Edge cardinality classes (paper §4.4, "Cardinalities").
//
// For each edge type post-processing takes the maximum out-degree (distinct
// targets per source) and maximum in-degree (distinct sources per target)
// over the type's instances (FinalizeCardinalities in core/aggregates.h
// keeps both exact under insertion and retraction) and classifies the pair,
// following the paper's Example 8 (WORKS_AT: each Person works at one Org,
// an Org has many employees -> N:1):
//   (max_out, max_in) = (1, 1) -> 0:1    (1, >1) -> N:1
//                       (>1, 1) -> 0:N   (>1, >1) -> M:N
// The values are sound upper bounds (§4.7); lower bounds would require
// scanning unconnected nodes, which the paper defers to future work.

#ifndef PGHIVE_CORE_CARDINALITY_H_
#define PGHIVE_CORE_CARDINALITY_H_

#include <cstddef>

#include "core/schema.h"

namespace pghive {

/// Classifies a (max_out, max_in) pair; kUnknown when either is 0.
SchemaCardinality ClassifyCardinality(size_t max_out, size_t max_in);

}  // namespace pghive

#endif  // PGHIVE_CORE_CARDINALITY_H_
