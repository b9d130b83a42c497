// The deterministic delete/update stream of the serve_mutations workload.
//
// AddMutations turns an insert-only stream (store::MakeStreamBatches) into a
// mutation stream: from the second batch on, each batch also deletes about
// 10% and updates about 5% of the nodes the previous batch inserted. Every
// edge incident to such a node goes with it in the same batch: deleted when
// it touches a deleted node, otherwise re-inserted against the updated
// node's new id (the endpoint-closure rule of graph/mutations.h).
// Inserted edges whose endpoint is already gone are dropped. Ids are the
// ones the store assigns: dense, in the canonical apply order of
// drift::ApplyMutationBatch.

#ifndef PGBENCH_MUTATION_STREAM_H_
#define PGBENCH_MUTATION_STREAM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/incremental.h"
#include "store/codec.h"

namespace pgbench {

std::vector<pghive::store::BatchPayload> AddMutations(
    const std::vector<pghive::store::BatchPayload>& inserts, uint64_t seed);

/// Replays the id assignment of `stream` and checks that every deleted or
/// updated id is alive, that every edge incident to a deleted or updated
/// node is deleted or updated in the same batch, and that every inserted
/// edge joins live nodes. InvalidArgument names the first violation.
pghive::Status CheckEndpointClosure(
    const std::vector<pghive::store::BatchPayload>& stream);

/// Applies `stream` in process, without a store: each batch goes through
/// drift::ApplyMutationBatch into `graph`, then IncrementalDiscoverer::Feed
/// (or FeedMutations when it retracts anything) on `engine`. This is the
/// uninterrupted reference the durable and served paths must reproduce.
pghive::Status ApplyStream(
    const std::vector<pghive::store::BatchPayload>& stream,
    pghive::PropertyGraph* graph, pghive::IncrementalDiscoverer* engine);

/// Totals over a stream, for the run report.
struct StreamCounts {
  uint64_t nodes = 0, edges = 0;  // inserted, replacements included
  uint64_t deleted_nodes = 0, deleted_edges = 0;
  uint64_t updated_nodes = 0, updated_edges = 0;
};
StreamCounts CountStream(const std::vector<pghive::store::BatchPayload>& s);

/// Distinct (label set, key set) signatures per inserted element, summed
/// over batches: the signature dedup a batch-at-a-time pipeline gets (the
/// counterpart of NodeSignatureGroups() over a whole graph).
double SignaturesPerElement(
    const std::vector<pghive::store::BatchPayload>& stream);

}  // namespace pgbench

#endif  // PGBENCH_MUTATION_STREAM_H_
