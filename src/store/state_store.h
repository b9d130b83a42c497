// Durable incremental schema discovery: snapshot + write-ahead journal +
// checkpoint/resume over a state directory.
//
// Directory layout:
//
//   <dir>/snapshot-<applied>.pghs   versioned binary snapshot (snapshot.h)
//   <dir>/journal-<first>.wal       WAL segments (journal.h)
//
// Write path per batch (DurableDiscoverer::Feed):
//   1. append the batch payload to the journal, fsync   (durable intent)
//   2. apply: extend the accumulated graph, run the incremental engine
//   3. checkpoint when the policy fires (every N batches or M journal
//      bytes): copy the in-memory state into a snapshot, encode it, write
//      snapshot-<applied>.pghs atomically, then delete the
//      applied journal segments and older snapshots — the spans
//      store.snapshot_build / snapshot_encode / snapshot_write / prune under
//      store.checkpoint
//
// Recovery (OpenOrRecover): load the newest snapshot that validates
// (corrupt ones are skipped and reported), restore the engine through
// IncrementalDiscoverer::RestoreState, then replay journal records with
// batch_id >= the snapshot's applied count, truncating a torn tail on the
// newest segment. Because the pipeline is deterministic in its options and
// seed, a recovered process converges to the exact schema an uninterrupted
// run produces.

#ifndef PGHIVE_STORE_STATE_STORE_H_
#define PGHIVE_STORE_STATE_STORE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "drift/drift_tracker.h"
#include "store/journal.h"
#include "store/snapshot.h"

namespace pghive {
namespace store {

struct StoreOptions {
  IncrementalOptions incremental;

  /// Checkpointer policy: snapshot + journal truncation after this many
  /// applied batches since the last checkpoint (0 disables this trigger)...
  uint64_t checkpoint_every_batches = 16;
  /// ...or after this many journal bytes since the last checkpoint,
  /// whichever fires first. 0 disables the byte trigger.
  uint64_t checkpoint_every_bytes = 8ull << 20;

  /// fsync journal appends (snapshots are always written durably: tmp +
  /// fsync + rename + dir sync). Disable only where durability does not
  /// matter (benchmarks).
  bool fsync = true;

  /// Older snapshots kept after a checkpoint, beyond the newest one (a
  /// paranoia margin against a latent bad write).
  size_t keep_extra_snapshots = 1;

  /// Open even when the stored options fingerprint differs from
  /// `incremental` (replay may then diverge from the original run).
  bool allow_options_mismatch = false;

  /// Maintain a schema-drift history (drift/drift_tracker.h): after every
  /// applied batch the post-processed schema is diffed against the previous
  /// epoch's and the result recorded. The history rides in snapshots
  /// (kDriftHistory) and is served via `pghive drift` and the daemon's
  /// /drift endpoint. Costs one FinishedCopy per batch — O(schema), a
  /// finalization from the maintained aggregates.
  bool track_drift = true;
  /// Bound on retained per-epoch diff records (cumulative counters are
  /// never truncated).
  size_t drift_max_history = drift::DriftTracker::kDefaultMaxHistory;

  /// Label aliases recorded in snapshots for provenance (the discovery
  /// input was rewritten through these before feeding).
  std::vector<std::pair<std::string, std::string>> aliases;
};

/// What OpenOrRecover found and did.
struct RecoveryReport {
  bool fresh = false;               // no prior state in the directory
  std::string snapshot_path;        // snapshot loaded (empty if none)
  uint64_t snapshot_batches = 0;    // batches contained in that snapshot
  uint64_t replayed_batches = 0;    // journal records re-applied
  uint64_t skipped_records = 0;     // records already covered by the snapshot
  bool truncated_torn_tail = false;
  std::string torn_tail_error;
  std::vector<std::string> corrupt_snapshots;  // skipped as invalid

  std::string ToString() const;
};

/// Fingerprint of every option that affects discovery output (method,
/// thresholds, seeds, embedding and LSH parameters — not thread counts).
/// Stored in snapshots; recovery under a different fingerprint is refused.
uint64_t OptionsFingerprint(const IncrementalOptions& options);

/// One-line human-readable options summary stored alongside.
std::string OptionsSummary(const IncrementalOptions& options);

/// Splits a static graph into `num_batches` streamable payloads: nodes are
/// cut contiguously exactly like SplitIntoBatches; each edge is assigned to
/// the first batch where both endpoints exist (ascending id order within a
/// batch). A durable feed never references a node from a later batch.
std::vector<BatchPayload> MakeStreamBatches(const PropertyGraph& g,
                                            size_t num_batches);

/// Incremental discovery with crash-consistent persistence.
///
/// Single-writer: opening holds an exclusive, non-blocking flock on
/// `<dir>/LOCK` for the store's lifetime, so a daemon and a one-shot CLI run
/// can never interleave appends into the same journal. The kernel releases
/// the lock when its holder exits, so a crash leaves nothing to break; the
/// pid written into the file only names the holder in the error. A held
/// lock makes OpenOrRecover fail with AlreadyExists, which the CLI maps to
/// its own exit code (4).
class DurableDiscoverer {
 public:
  /// Opens `dir` (created if missing), recovering any prior state found
  /// there. Fails with AlreadyExists when another live process (or another
  /// instance in this process) holds the directory's LOCK, with
  /// FailedPrecondition when the stored options fingerprint differs from
  /// `options.incremental` (unless allow_options_mismatch), and with
  /// IoError on unrecoverable corruption.
  static Result<std::unique_ptr<DurableDiscoverer>> OpenOrRecover(
      const std::string& dir, StoreOptions options,
      RecoveryReport* report = nullptr);

  ~DurableDiscoverer();
  DurableDiscoverer(const DurableDiscoverer&) = delete;
  DurableDiscoverer& operator=(const DurableDiscoverer&) = delete;

  /// Journals, then applies one batch. Node ids are reassigned densely in
  /// feed order; edge endpoints are global node ids and must already exist
  /// (MakeStreamBatches produces payloads satisfying this). The payload may
  /// carry mutations (graph/mutations.h): every batch is journaled as a v3
  /// record and deletions/updates are applied through the engine's
  /// retraction path in O(batch).
  Status Feed(const BatchPayload& batch);

  /// Test hook for the crash window between journal append and apply: the
  /// batch becomes durable in the journal but is NOT applied — exactly the
  /// state a process killed mid-Feed leaves behind. Recovery replays it.
  Status FeedJournalOnly(const BatchPayload& batch);

  /// Forces a checkpoint now: snapshot written, applied journal segments
  /// and stale snapshots deleted.
  Status Checkpoint();

  /// Final post-processing over everything applied (constraints, datatypes,
  /// cardinalities), then a checkpoint so the completed schema is durable.
  Result<SchemaGraph> Finish();

  const SchemaGraph& schema() const { return engine_.schema(); }

  /// The schema Finish() would produce right now, computed on a copy: the
  /// engine keeps feeding on the exact uninterrupted-run path. The serving
  /// daemon renders one of these per applied batch into an epoch snapshot.
  /// With drift tracking on, the copy computed for the current epoch's
  /// drift observation is reused instead of recomputed.
  SchemaGraph PostProcessedSchema() const;

  /// The drift history maintained across applied batches (empty when
  /// options.track_drift is off).
  const drift::DriftTracker& drift_tracker() const { return drift_; }
  const PropertyGraph& graph() const { return graph_; }
  const std::vector<double>& batch_seconds() const {
    return engine_.batch_seconds();
  }
  uint64_t batches_applied() const { return applied_batches_; }
  /// Batches applied since the last checkpoint — the "checkpoint age" the
  /// serving daemon's /readyz reports per graph.
  uint64_t batches_since_checkpoint() const {
    return batches_since_checkpoint_;
  }
  const std::string& dir() const { return dir_; }

  /// The wrapped incremental engine (read-only: aggregate state, timings,
  /// diagnostics — exposed for the compat tests and `inspect-state`).
  const IncrementalDiscoverer& engine() const { return engine_; }

 private:
  DurableDiscoverer(std::string dir, StoreOptions options);

  Status AcquireLock();
  void ReleaseLock();
  Status Recover(RecoveryReport* report);
  Status ApplyPayload(const BatchPayload& batch);
  Status AppendToJournal(const BatchPayload& batch);
  Status EnsureJournalOpen();
  StoreSnapshot BuildSnapshot() const;
  Status MaybeCheckpoint();
  Status PruneAfterCheckpoint();

  std::string dir_;
  StoreOptions options_;
  uint64_t fingerprint_ = 0;
  int lock_fd_ = -1;  // holds the LOCK flock (released in the destructor)

  IncrementalDiscoverer engine_;
  PropertyGraph graph_;

  drift::DriftTracker drift_;
  SchemaGraph post_schema_cache_;
  uint64_t post_schema_epoch_ = 0;
  bool post_schema_valid_ = false;

  JournalWriter journal_;
  uint64_t applied_batches_ = 0;
  uint64_t journaled_batches_ = 0;  // >= applied when a crash test is staged
  uint64_t batches_since_checkpoint_ = 0;
  uint64_t journal_bytes_since_checkpoint_ = 0;
};

/// Lists the snapshot files of a state directory, newest first.
std::vector<std::string> ListSnapshotFiles(const std::string& dir);

/// Lists the journal segment files of a state directory, oldest first.
std::vector<std::string> ListJournalFiles(const std::string& dir);

/// Size/record accounting of a state directory. The single definition both
/// `pghive inspect-state` prints and PublishStateDirMetrics feeds into the
/// metrics registry, so the CLI and --metrics-out can never disagree.
struct StateDirMetrics {
  uint64_t snapshot_count = 0;
  uint64_t snapshot_bytes = 0;          // all snapshot files on disk
  uint64_t newest_snapshot_batches = 0; // applied count of the newest one
  uint64_t journal_segments = 0;
  uint64_t journal_bytes = 0;           // all segment files on disk
  uint64_t journal_records = 0;         // valid records across segments
  bool torn_tail = false;               // any segment ends in a torn tail

  // Per-operation accounting across the journal's valid records: inserted
  // node/edge rows, delete-by-id operations and update (delete-then-
  // reinsert) operations. Inserts count the replacement rows of updates
  // only under journal_update_ops.
  uint64_t journal_insert_ops = 0;
  uint64_t journal_delete_ops = 0;
  uint64_t journal_update_ops = 0;
  /// Size of the newest snapshot's drift-history section (0 when absent).
  uint64_t drift_history_bytes = 0;

  std::string ToString() const;
};

/// Scans `dir` without modifying it. Unreadable files count toward sizes
/// but contribute no records.
StateDirMetrics CollectStateDirMetrics(const std::string& dir);

/// Mirrors the struct into pghive.store.state_* registry gauges.
void PublishStateDirMetrics(const StateDirMetrics& m);

}  // namespace store
}  // namespace pghive

#endif  // PGHIVE_STORE_STATE_STORE_H_
