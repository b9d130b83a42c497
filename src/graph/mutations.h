// Mutation vocabulary for streamed graphs: a batch is no longer just an
// append of nodes and edges — it may also retract or rewrite elements that
// arrived in earlier batches.
//
// Semantics (shared by the journal codec, the incremental engine, and the
// serving daemon's wire format):
//
//  * delete_nodes / delete_edges name elements by the id the store assigned
//    at insert time. Deleting an unknown or already-deleted id is an error
//    (InvalidArgument) — mutation streams are exact, not best-effort.
//  * update_nodes / update_edges are modeled as delete-then-reinsert: the
//    old element (by id) is retracted and the new data is appended with a
//    fresh id in the same batch. In-place rewrites are deliberately not
//    supported — they would make a mutation stream unreplayable as an
//    insert-only stream of its net surviving elements, which is the
//    equivalence invariant drift_equivalence_test pins.
//  * Endpoint closure: deleting (or updating) a node requires every edge
//    incident to it to be deleted/updated in the same batch. This mirrors
//    the insert-side closure contract of MakeStreamBatches and is a
//    documented precondition, not a validated one (validation would cost
//    O(graph) per batch).
//
// Within one batch the canonical apply order is: retract edges, retract the
// old data of updated edges, retract nodes, retract the old data of updated
// nodes, then append update_nodes' new data, nodes, update_edges' new data,
// edges. drift::ApplyMutationBatch is the single implementation of this
// order.

#ifndef PGHIVE_GRAPH_MUTATIONS_H_
#define PGHIVE_GRAPH_MUTATIONS_H_

#include <vector>

#include "graph/property_graph.h"

namespace pghive {

/// Replacement payload for one node: retract `id`, append `data` fresh.
struct NodeUpdate {
  NodeId id = 0;
  NodeData data;
};

/// Replacement payload for one edge. `data.source`/`data.target` are the
/// endpoints of the replacement edge (they may differ from the old edge's).
struct EdgeUpdate {
  EdgeId id = 0;
  EdgeData data;
};

/// The retract/rewrite half of a batch.
struct GraphMutations {
  std::vector<NodeId> delete_nodes;
  std::vector<EdgeId> delete_edges;
  std::vector<NodeUpdate> update_nodes;
  std::vector<EdgeUpdate> update_edges;

  bool empty() const {
    return delete_nodes.empty() && delete_edges.empty() &&
           update_nodes.empty() && update_edges.empty();
  }
};

/// One streamed batch: inserts plus mutations. A batch with an empty
/// `mutations` member is exactly the pre-mutation append-only payload. The
/// journal encodes every batch, with or without mutations, as a v3 record
/// (store/journal.h).
struct MutationBatch {
  std::vector<NodeData> nodes;
  std::vector<EdgeData> edges;
  GraphMutations mutations;
};

}  // namespace pghive

#endif  // PGHIVE_GRAPH_MUTATIONS_H_
