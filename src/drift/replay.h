// Mutation-batch application and net-surviving replay.
//
// ApplyMutationBatch is the ONE implementation of the canonical apply order
// for a mutation batch (graph/mutations.h): every consumer — the durable
// store, the serving daemon, tests and benches — routes batches through it,
// so "what a mutation stream means" has a single definition.
//
// The PropertyGraph itself stays append-only (ids are dense insertion
// indices; value rows are shared between copies). Deletion is therefore a
// SCHEMA-membership fact, not a storage fact: ApplyMutationBatch appends
// the batch's new elements and returns the deletion lists for the engine's
// retraction path (IncrementalDiscoverer::FeedMutations); the deleted
// elements' bytes stay in the graph as tombstones that no type references.
// FeedMutations hands those deletion lists to RetractInstances in one call.
//
// NetSurvivingStream is the drift subsystem's ground truth: it converts a
// mutation stream into the insert-only stream of the elements that SURVIVE
// to the end (same batch boundaries, original relative order, edge
// endpoints remapped to the compacted id space). The bit-identity invariant
// tested by drift_equivalence_test is
//
//   discover(mutation stream)  ==  discover(NetSurvivingStream(stream))
//
// for the final post-processed schema.

#ifndef PGHIVE_DRIFT_REPLAY_H_
#define PGHIVE_DRIFT_REPLAY_H_

#include <vector>

#include "common/result.h"
#include "graph/mutations.h"
#include "graph/property_graph.h"

namespace pghive {
namespace drift {

/// What applying one mutation batch to a graph produced.
struct AppliedBatch {
  /// Slice of the graph covering exactly this batch's appended elements
  /// (update replacements first, then plain inserts — the canonical order).
  GraphBatch batch;
  /// Ids to retract: delete_nodes/delete_edges plus the OLD ids of updates.
  std::vector<NodeId> deleted_nodes;
  std::vector<EdgeId> deleted_edges;
  /// Appended ids in append order (replay bookkeeping).
  std::vector<NodeId> appended_nodes;
  std::vector<EdgeId> appended_edges;
};

/// Appends `payload`'s new elements to `g` in the canonical order
/// (update_nodes' replacement data, payload nodes, update_edges' replacement
/// data, payload edges) and collects the deletion lists. Fails with
/// InvalidArgument when a deleted/updated id does not exist in `g`, or when
/// an appended edge's endpoint is a node deleted in this same batch.
Result<AppliedBatch> ApplyMutationBatch(PropertyGraph* g,
                                        const MutationBatch& payload);

/// The insert-only stream of the elements surviving `stream`: one output
/// batch per input batch (possibly empty, boundaries preserved), containing
/// the batch's appended elements that are never deleted later, in append
/// order, with edge endpoints remapped into the survivors' compacted id
/// space. Fails with InvalidArgument on a malformed stream — including a
/// surviving edge whose endpoint node was deleted (the endpoint-closure
/// contract of graph/mutations.h).
Result<std::vector<MutationBatch>> NetSurvivingStream(
    const std::vector<MutationBatch>& stream);

}  // namespace drift
}  // namespace pghive

#endif  // PGHIVE_DRIFT_REPLAY_H_
