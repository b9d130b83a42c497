// Versioned binary snapshot of the full incremental-discovery state.
//
// File layout (all integers little-endian):
//
//   "PGHS" magic | u32 format_version | u32 section_count | u32 header_crc
//   then section_count times:
//     u32 section_id | u64 payload_size | u32 payload_crc | payload bytes
//
// Every section payload is CRC32-guarded independently, so corruption is
// detected per section and reported with the section name. Unknown section
// ids are skipped on read (older binaries open newer snapshots as long as
// the sections they need are intact). Encoding a decoded snapshot yields the
// byte-identical file: doubles round-trip as raw bit patterns and all
// containers serialize in deterministic order.
//
// Section encoding (and CRC computation) fans out across the PR-1 execution
// runtime when a ThreadPool is supplied; the assembled bytes are identical
// at any thread count.

#ifndef PGHIVE_STORE_SNAPSHOT_H_
#define PGHIVE_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregates.h"
#include "core/schema.h"
#include "graph/property_graph.h"
#include "lsh/adaptive_params.h"
#include "runtime/thread_pool.h"

namespace pghive {
namespace store {

inline constexpr char kSnapshotMagic[4] = {'P', 'G', 'H', 'S'};
/// v1 stored the graph as one string-heavy section (kGraph); v2 splits it
/// into the interned symbol tables (kSymbols) + a columnar element section
/// (kGraphColumnar) — each distinct string and set written once; v3 adds
/// the optional kAggregates section carrying the delta-maintained
/// post-processing aggregates so recovery resumes without rebuilding them;
/// v4 re-encodes the aggregates in the RETRACTABLE counted layout (mutation
/// streams) and adds the optional kDriftHistory section; v5 stops writing
/// kRetiredStats (nothing read it back) and drops the numeric count/min/max
/// triple from every aggregate key entry, so each aggregate is a plain
/// count. On load, a v3 file's aggregates section (old layout) is DISCARDED
/// and the next fold rebuilds the aggregates; a v4 file's key entries are
/// read with their 24-byte numeric triple, which is dropped; a kRetiredStats
/// section is skipped like any unknown section. v1-v4 files still load;
/// the writer always emits v5.
inline constexpr uint32_t kSnapshotFormatVersion = 5;

/// Stable on-disk section identifiers — append, never renumber.
enum class SnapshotSection : uint32_t {
  kMeta = 1,        // counters, options fingerprint + summary
  kGraph = 2,       // v1 only: string-heavy accumulated property graph
  kSchema = 3,      // discovered SchemaGraph incl. instance assignments
  kTimings = 4,     // per-batch wall-clock seconds (Figure 7 series)
  kAliases = 5,     // label-alias map in effect during discovery
  kLshDiag = 6,     // adaptive LSH parameters + bucket/cluster counts
  kRetiredStats = 7,  // v1-v4 only: "value-stats", skipped on read
  kSymbols = 8,     // v2: interned symbol tables + canonical set pools
  kGraphColumnar = 9,  // v2: columnar elements over kSymbols ids
  kAggregates = 10,    // v3+: delta-maintained post-processing aggregates
                       // (layout changed in v4 and v5; v3 payloads discarded)
  kDriftHistory = 11,  // v4: serialized drift tracker (history + counters)
};

const char* SnapshotSectionName(SnapshotSection s);

/// Everything the incremental engine needs to resume exactly where a
/// stopped or crashed process left off.
struct StoreSnapshot {
  /// Number of batches whose effects this snapshot contains (also the id of
  /// the next expected batch; journal records below this id are skipped on
  /// recovery).
  uint64_t applied_batches = 0;
  /// Fingerprint of the discovery options that produced this state. Replay
  /// under different options would diverge from the uninterrupted run, so
  /// recovery refuses a mismatch.
  uint64_t options_fingerprint = 0;
  /// Human-readable options summary for `pghive inspect-state`.
  std::string options_summary;

  PropertyGraph graph;
  SchemaGraph schema;
  std::vector<double> batch_seconds;
  std::vector<std::pair<std::string, std::string>> aliases;

  // Last batch's LSH table state (adaptive parameters + raw bucket-cluster
  // counts), persisted for diagnostics continuity across restarts.
  AdaptiveLshParams node_lsh;
  AdaptiveLshParams edge_lsh;
  uint64_t node_clusters = 0;
  uint64_t edge_clusters = 0;

  /// Delta-maintained post-processing aggregates (core/aggregates.h),
  /// present (has_aggregates) when they matched the schema at checkpoint
  /// time. Absent (empty) in v1-v3 files — recovery then rebuilds them.
  SchemaAggregates aggregates;
  bool has_aggregates = false;

  /// Serialized drift tracker (drift::DriftTracker::Serialize bytes),
  /// present (has_drift) when the store tracks schema drift. The snapshot
  /// layer treats it as opaque — the store layer owns the tracker.
  std::string drift_history;
  bool has_drift = false;
};

/// Serializes the snapshot; per-section encode + CRC runs through `pool`
/// (null = sequential, identical bytes either way).
std::string EncodeSnapshot(const StoreSnapshot& snapshot,
                           ThreadPool* pool = nullptr);

/// Parses and validates a snapshot. Fails with ParseError on structural
/// corruption and IoError on a CRC mismatch (naming the bad section);
/// required sections (meta, graph, schema) must be present. The aggregates
/// section must be canonical — strictly increasing ids and nonzero counts
/// in every count map, key map and degree map, as the writer emits them.
/// The sections are also checked against each other: every schema instance
/// id must name a node/edge of the graph, and every interned id the
/// aggregates hold (key, key-set, label-set, endpoint label-set) must exist
/// in the graph's symbol pools. A violation is a ParseError, so
/// well-formed sections that disagree never reach the engine.
Result<StoreSnapshot> DecodeSnapshot(const std::string& bytes);

/// Durable write: <path>.tmp + fsync + rename + directory fsync, so a crash
/// mid-write never leaves a half-written snapshot under the final name.
Status WriteSnapshotFile(const std::string& path, const std::string& bytes);

Result<StoreSnapshot> ReadSnapshotFile(const std::string& path);

/// Non-validating structural probe for `pghive inspect-state`: reports each
/// section's id, name, size and CRC verdict instead of failing on the first
/// bad byte.
struct SnapshotSectionInfo {
  uint32_t id = 0;
  std::string name;
  uint64_t size = 0;
  bool crc_ok = false;
};
struct SnapshotInfo {
  uint32_t format_version = 0;
  bool header_ok = false;
  std::vector<SnapshotSectionInfo> sections;
};
Result<SnapshotInfo> InspectSnapshot(const std::string& bytes);

}  // namespace store
}  // namespace pghive

#endif  // PGHIVE_STORE_SNAPSHOT_H_
