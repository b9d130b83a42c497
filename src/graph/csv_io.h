// Property graph import/export in a Neo4j-admin-style CSV dialect.
//
// Node file header:  id,labels,truth,<prop1>,<prop2>,...
// Edge file header:  src,tgt,labels,truth,<prop1>,...
// `labels` is a ';'-separated label list; empty cells mean "property
// absent". Values are parsed with the priority rules of
// graph/value.h::ParseValue. When several property columns share a name,
// the first non-empty cell of a row wins.

#ifndef PGHIVE_GRAPH_CSV_IO_H_
#define PGHIVE_GRAPH_CSV_IO_H_

#include <string>

#include "common/result.h"
#include "graph/property_graph.h"

namespace pghive {

/// Serializes the nodes of `g` to CSV text.
std::string NodesToCsv(const PropertyGraph& g);

/// Serializes the edges of `g` to CSV text.
std::string EdgesToCsv(const PropertyGraph& g);

/// Parses a graph from node + edge CSV text produced by the exporters (or
/// hand-written in the same dialect) in one streaming pass. Each node's
/// `id` must be its row index written as std::to_string writes it; `src` /
/// `tgt` must be complete unsigned decimals. Symbol ids are assigned in
/// first-seen row order, exactly as AddNode / AddEdge would assign them.
Result<PropertyGraph> GraphFromCsv(const std::string& nodes_csv,
                                   const std::string& edges_csv);

/// Convenience: writes both files next to each other (`<prefix>.nodes.csv`,
/// `<prefix>.edges.csv`).
Status SaveGraphCsv(const PropertyGraph& g, const std::string& prefix);

/// Loads a graph previously written by SaveGraphCsv.
Result<PropertyGraph> LoadGraphCsv(const std::string& prefix);

}  // namespace pghive

#endif  // PGHIVE_GRAPH_CSV_IO_H_
