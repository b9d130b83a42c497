#include "store/state_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/binary_io.h"
#include "common/csv.h"
#include "common/hash.h"
#include "drift/replay.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fs_util.h"

namespace pghive {
namespace store {

namespace {

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".pghs";
constexpr char kJournalPrefix[] = "journal-";
constexpr char kJournalSuffix[] = ".wal";

std::string NumberedFileName(const char* prefix, uint64_t n,
                             const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", prefix,
                static_cast<unsigned long long>(n), suffix);
  return buf;
}

/// Parses "<prefix><digits><suffix>" names; returns false for anything else.
bool ParseNumberedFileName(const std::string& name, const char* prefix,
                           const char* suffix, uint64_t* number) {
  const size_t prefix_len = std::string_view(prefix).size();
  const size_t suffix_len = std::string_view(suffix).size();
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, prefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *number = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

std::vector<std::string> ListNumberedFiles(const std::string& dir,
                                           const char* prefix,
                                           const char* suffix,
                                           bool newest_first) {
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    uint64_t n = 0;
    if (ParseNumberedFileName(entry.path().filename().string(), prefix,
                              suffix, &n)) {
      found.emplace_back(n, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  if (newest_first) std::reverse(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [n, path] : found) paths.push_back(std::move(path));
  return paths;
}

}  // namespace

std::vector<std::string> ListSnapshotFiles(const std::string& dir) {
  return ListNumberedFiles(dir, kSnapshotPrefix, kSnapshotSuffix,
                           /*newest_first=*/true);
}

std::vector<std::string> ListJournalFiles(const std::string& dir) {
  return ListNumberedFiles(dir, kJournalPrefix, kJournalSuffix,
                           /*newest_first=*/false);
}

uint64_t OptionsFingerprint(const IncrementalOptions& options) {
  const PipelineOptions& p = options.pipeline;
  // Serialize every option that changes discovery output — NOT num_threads
  // (the runtime guarantees thread-count-independent results), so a machine
  // with a different core count can resume the same state directory.
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(p.method));
  w.WriteU8(static_cast<uint8_t>(p.embedding.backend));
  w.WriteU32(static_cast<uint32_t>(p.embedding.dimension));
  w.WriteU64(p.embedding.seed);
  w.WriteU32(static_cast<uint32_t>(p.embedding.word2vec.window));
  w.WriteU32(static_cast<uint32_t>(p.embedding.word2vec.negative_samples));
  w.WriteDouble(p.embedding.word2vec.learning_rate);
  w.WriteU32(static_cast<uint32_t>(p.embedding.word2vec.epochs));
  w.WriteDouble(p.encoder.label_weight);
  w.WriteU32(static_cast<uint32_t>(p.encoder.minhash_label_copies));
  w.WriteDouble(p.extraction.jaccard_threshold);
  w.WriteU8(p.adaptive_parameters ? 1 : 0);
  w.WriteDouble(p.adaptive_tuning.bucket_factor);
  w.WriteDouble(p.adaptive_tuning.node_alpha_cap);
  w.WriteDouble(p.adaptive_tuning.edge_alpha_cap);
  w.WriteDouble(p.adaptive_tuning.alpha_override);
  w.WriteU32(static_cast<uint32_t>(p.adaptive_tuning.tables_override));
  w.WriteDouble(p.elsh.bucket_length);
  w.WriteU32(static_cast<uint32_t>(p.elsh.num_tables));
  w.WriteU32(static_cast<uint32_t>(p.elsh.hashes_per_table));
  w.WriteU64(p.elsh.seed);
  w.WriteU32(static_cast<uint32_t>(p.minhash.num_hashes));
  w.WriteU32(static_cast<uint32_t>(p.minhash.rows_per_band));
  w.WriteU64(p.minhash.seed);
  w.WriteU8(p.post_process ? 1 : 0);
  w.WriteU8(p.datatypes.sample ? 1 : 0);
  w.WriteDouble(p.datatypes.sample_fraction);
  w.WriteU64(p.datatypes.min_sample);
  w.WriteU64(p.datatypes.seed);
  w.WriteU64(p.seed);
  w.WriteU8(options.post_process_each_batch ? 1 : 0);
  return Fnv1a64(w.buffer().data(), w.buffer().size());
}

std::string OptionsSummary(const IncrementalOptions& options) {
  const PipelineOptions& p = options.pipeline;
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "method=%s theta=%.3f seed=%llu adaptive=%d backend=%s dim=%d "
      "post_each_batch=%d",
      ClusteringMethodName(p.method), p.extraction.jaccard_threshold,
      static_cast<unsigned long long>(p.seed), p.adaptive_parameters ? 1 : 0,
      p.embedding.backend == EmbeddingBackend::kWord2Vec ? "word2vec"
                                                         : "hash",
      p.embedding.dimension, options.post_process_each_batch ? 1 : 0);
  return buf;
}

std::vector<BatchPayload> MakeStreamBatches(const PropertyGraph& g,
                                            size_t num_batches) {
  std::vector<GraphBatch> splits = SplitIntoBatches(g, num_batches);
  std::vector<size_t> node_batch(g.num_nodes(), 0);
  for (size_t b = 0; b < splits.size(); ++b) {
    for (size_t i = splits[b].node_begin; i < splits[b].node_end; ++i) {
      node_batch[i] = b;
    }
  }
  std::vector<BatchPayload> out(splits.size());
  for (size_t b = 0; b < splits.size(); ++b) {
    out[b].nodes.reserve(splits[b].num_nodes());
    for (size_t i = splits[b].node_begin; i < splits[b].node_end; ++i) {
      out[b].nodes.push_back(ToData(g.node(i)));
    }
  }
  // An edge becomes streamable once both endpoints have been delivered, so
  // it rides with the later of its endpoints' batches. Iterating edges in id
  // order keeps the within-batch order ascending.
  for (const Edge& e : g.edges()) {
    out[std::max(node_batch[e.source], node_batch[e.target])]
        .edges.push_back(ToData(e));
  }
  return out;
}

std::string RecoveryReport::ToString() const {
  if (fresh) return "fresh state directory (no prior state)";
  std::string s = "recovered";
  if (!snapshot_path.empty()) {
    s += " from snapshot '" + snapshot_path + "' (" +
         std::to_string(snapshot_batches) + " batches)";
  } else {
    s += " without a snapshot";
  }
  s += ", replayed " + std::to_string(replayed_batches) +
       " journal record(s)";
  if (skipped_records > 0) {
    s += ", skipped " + std::to_string(skipped_records) +
         " already-applied record(s)";
  }
  if (truncated_torn_tail) {
    s += ", truncated torn journal tail (" + torn_tail_error + ")";
  }
  if (!corrupt_snapshots.empty()) {
    s += ", skipped " + std::to_string(corrupt_snapshots.size()) +
         " corrupt snapshot(s)";
  }
  return s;
}

DurableDiscoverer::DurableDiscoverer(std::string dir, StoreOptions options)
    : dir_(std::move(dir)),
      options_(std::move(options)),
      engine_(options_.incremental),
      drift_(options_.drift_max_history) {}

DurableDiscoverer::~DurableDiscoverer() { ReleaseLock(); }

Status DurableDiscoverer::AcquireLock() {
  const std::string path = dir_ + "/LOCK";
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open lock file '" + path +
                           "': " + std::strerror(errno));
  }
  // The flock belongs to this open file description, so the kernel drops it
  // when the holder exits however it dies, and a second opener in this very
  // process conflicts like any other. The file is never unlinked: an unlink
  // racing a concurrent open would let two openers lock different inodes.
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    // The recorded pid only names the holder in the message.
    char buf[32] = {};
    const ssize_t n = ::pread(fd, buf, sizeof(buf) - 1, 0);
    const long holder = n > 0 ? std::strtol(buf, nullptr, 10) : 0;
    ::close(fd);
    if (err != EWOULDBLOCK) {
      return Status::IoError("cannot lock '" + path +
                             "': " + std::strerror(err));
    }
    return Status::AlreadyExists(
        "state directory '" + dir_ + "' is locked by process " +
        (holder > 0 ? std::to_string(holder) : "?") +
        " (another daemon or CLI run holds '" + path + "')");
  }
  const std::string pid = std::to_string(::getpid()) + "\n";
  if (::ftruncate(fd, 0) != 0 ||
      ::pwrite(fd, pid.data(), pid.size(), 0) !=
          static_cast<ssize_t>(pid.size())) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot write lock file '" + path +
                           "': " + std::strerror(err));
  }
  lock_fd_ = fd;
  return Status::OK();
}

void DurableDiscoverer::ReleaseLock() {
  if (lock_fd_ < 0) return;
  ::close(lock_fd_);  // drops the flock
  lock_fd_ = -1;
}

Result<std::unique_ptr<DurableDiscoverer>> DurableDiscoverer::OpenOrRecover(
    const std::string& dir, StoreOptions options, RecoveryReport* report) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create state directory '" + dir +
                           "': " + ec.message());
  }
  RecoveryReport local;
  std::unique_ptr<DurableDiscoverer> store(
      new DurableDiscoverer(dir, std::move(options)));
  PGHIVE_RETURN_NOT_OK(store->AcquireLock());
  PGHIVE_RETURN_NOT_OK(store->Recover(&local));
  if (report != nullptr) *report = std::move(local);
  return store;
}

Status DurableDiscoverer::Recover(RecoveryReport* report) {
  obs::ScopedSpan span("store.recover");
  fingerprint_ = OptionsFingerprint(options_.incremental);

  for (const std::string& path : ListSnapshotFiles(dir_)) {
    Result<StoreSnapshot> snap = ReadSnapshotFile(path);
    if (!snap.ok()) {
      report->corrupt_snapshots.push_back(path + ": " +
                                          snap.status().message());
      continue;
    }
    if (snap->options_fingerprint != fingerprint_ &&
        !options_.allow_options_mismatch) {
      return Status::FailedPrecondition(
          "state in '" + dir_ +
          "' was produced under different discovery options (" +
          snap->options_summary +
          "); replaying it under the current options would diverge from "
          "the original run");
    }
    report->snapshot_path = path;
    report->snapshot_batches = snap->applied_batches;
    applied_batches_ = snap->applied_batches;
    graph_ = std::move(snap->graph);
    // Aggregates travel with v4 snapshots; when they are absent (v1-v3
    // files) or do not match the schema, RestoreState rebuilds them, once,
    // so journal replay and future batches fold O(batch) deltas again.
    engine_.RestoreState(graph_, std::move(snap->schema),
                         std::move(snap->batch_seconds),
                         std::move(snap->aggregates));
    if (snap->has_drift) {
      PGHIVE_RETURN_NOT_OK(drift_.Restore(snap->drift_history));
    }
    break;
  }
  if (options_.track_drift) {
    // The baseline is not serialized: re-derive it from the restored state
    // BEFORE journal replay, so replayed batches re-observe against exactly
    // the schema they originally diffed from.
    drift_.ResetBaseline(applied_batches_, PostProcessedSchema());
  }

  const std::vector<std::string> segments = ListJournalFiles(dir_);
  for (size_t i = 0; i < segments.size(); ++i) {
    PGHIVE_ASSIGN_OR_RETURN(JournalReadResult read,
                            ReadJournalSegment(segments[i]));
    if (read.torn_tail) {
      if (i + 1 != segments.size()) {
        // A bad record followed by a newer segment is not a crash signature
        // (the writer only ever appends to the newest file) — refuse rather
        // than silently drop acknowledged batches.
        return Status::IoError("corrupt journal record mid-stream in '" +
                               segments[i] + "': " + read.tail_error);
      }
      PGHIVE_RETURN_NOT_OK(TruncateFile(segments[i], read.valid_bytes));
      report->truncated_torn_tail = true;
      report->torn_tail_error = read.tail_error;
    }
    for (const JournalRecord& record : read.records) {
      if (record.batch_id < applied_batches_) {
        ++report->skipped_records;
        continue;
      }
      if (record.batch_id > applied_batches_) {
        return Status::IoError(
            "journal gap in '" + segments[i] + "': expected batch " +
            std::to_string(applied_batches_) + ", found batch " +
            std::to_string(record.batch_id));
      }
      {
        obs::ScopedSpan replay_span("store.replay_batch");
        if (replay_span.recording()) {
          replay_span.AddAttr("batch", record.batch_id);
        }
        PGHIVE_RETURN_NOT_OK(ApplyPayload(record.payload));
      }
      ++report->replayed_batches;
    }
  }
  journaled_batches_ = applied_batches_;
  if (span.recording()) {
    span.AddAttr("replayed", report->replayed_batches);
    span.AddAttr("snapshot_batches", report->snapshot_batches);
  }

  report->fresh = report->snapshot_path.empty() &&
                  report->corrupt_snapshots.empty() && segments.empty();
  return Status::OK();
}

Status DurableDiscoverer::Feed(const BatchPayload& batch) {
  if (journaled_batches_ != applied_batches_) {
    return Status::FailedPrecondition(
        "journaled-but-unapplied batches pending; reopen the store to "
        "recover them");
  }
  obs::ScopedSpan span("store.feed");
  if (span.recording()) span.AddAttr("batch", journaled_batches_);
  PGHIVE_RETURN_NOT_OK(AppendToJournal(batch));
  // Crash window: the batch is durable but not applied. A kill here is what
  // the recovery path (and FeedJournalOnly-based tests) exercise.
  PGHIVE_RETURN_NOT_OK(ApplyPayload(batch));
  return MaybeCheckpoint();
}

Status DurableDiscoverer::FeedJournalOnly(const BatchPayload& batch) {
  if (journaled_batches_ != applied_batches_) {
    return Status::FailedPrecondition(
        "journaled-but-unapplied batches pending; reopen the store to "
        "recover them");
  }
  return AppendToJournal(batch);
}

Status DurableDiscoverer::AppendToJournal(const BatchPayload& batch) {
  PGHIVE_RETURN_NOT_OK(EnsureJournalOpen());
  BinaryWriter payload;
  EncodeBatchPayloadV3(batch, &payload);
  PGHIVE_RETURN_NOT_OK(
      journal_.Append(journaled_batches_, payload.buffer()));
  journal_bytes_since_checkpoint_ += payload.size();
  ++journaled_batches_;
  return Status::OK();
}

Status DurableDiscoverer::EnsureJournalOpen() {
  if (journal_.is_open()) return Status::OK();
  const std::string path =
      dir_ + "/" +
      NumberedFileName(kJournalPrefix, journaled_batches_, kJournalSuffix);
  PGHIVE_RETURN_NOT_OK(journal_.Open(path, options_.fsync));
  if (journal_.format_version() == kJournalFormatVersion) return Status::OK();
  // Only v3 records are written. A pre-v3 segment can exist under this name
  // only when it holds no records — recovery applied any record it held, so
  // the next batch id would be past it — so replacing it with a fresh v3
  // segment loses nothing.
  PGHIVE_RETURN_NOT_OK(journal_.Close());
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Status::IoError("cannot replace pre-v3 journal segment '" + path +
                           "': " + ec.message());
  }
  return journal_.Open(path, options_.fsync);
}

Status DurableDiscoverer::ApplyPayload(const BatchPayload& batch) {
  PGHIVE_ASSIGN_OR_RETURN(drift::AppliedBatch applied,
                          drift::ApplyMutationBatch(&graph_, batch));
  if (applied.deleted_nodes.empty() && applied.deleted_edges.empty()) {
    PGHIVE_RETURN_NOT_OK(engine_.Feed(applied.batch));
  } else {
    PGHIVE_RETURN_NOT_OK(engine_.FeedMutations(
        applied.batch, applied.deleted_nodes, applied.deleted_edges));
  }
  ++applied_batches_;
  ++batches_since_checkpoint_;
  if (options_.track_drift) {
    post_schema_cache_ = engine_.FinishedCopy(graph_);
    post_schema_epoch_ = applied_batches_;
    post_schema_valid_ = true;
    drift_.Observe(applied_batches_, post_schema_cache_);
  }
  return Status::OK();
}

SchemaGraph DurableDiscoverer::PostProcessedSchema() const {
  if (post_schema_valid_ && post_schema_epoch_ == applied_batches_) {
    return post_schema_cache_;
  }
  return engine_.FinishedCopy(graph_);
}

StoreSnapshot DurableDiscoverer::BuildSnapshot() const {
  StoreSnapshot snap;
  snap.applied_batches = applied_batches_;
  snap.options_fingerprint = fingerprint_;
  snap.options_summary = OptionsSummary(options_.incremental);
  snap.graph = graph_;
  snap.schema = engine_.schema();
  snap.batch_seconds = engine_.batch_seconds();
  snap.aliases = options_.aliases;
  const BatchDiagnostics& diag = engine_.last_diagnostics();
  snap.node_lsh = diag.node_params;
  snap.edge_lsh = diag.edge_params;
  snap.node_clusters = diag.node_clusters;
  snap.edge_clusters = diag.edge_clusters;
  if (engine_.aggregates().ConsistentWith(snap.schema)) {
    snap.aggregates = engine_.aggregates();
    snap.has_aggregates = true;
  }
  if (options_.track_drift) {
    snap.drift_history = drift_.Serialize();
    snap.has_drift = true;
  }
  return snap;
}

Status DurableDiscoverer::MaybeCheckpoint() {
  const bool batches_due =
      options_.checkpoint_every_batches > 0 &&
      batches_since_checkpoint_ >= options_.checkpoint_every_batches;
  const bool bytes_due =
      options_.checkpoint_every_bytes > 0 &&
      journal_bytes_since_checkpoint_ >= options_.checkpoint_every_bytes;
  if (!batches_due && !bytes_due) return Status::OK();
  return Checkpoint();
}

Status DurableDiscoverer::Checkpoint() {
  if (journaled_batches_ != applied_batches_) {
    return Status::FailedPrecondition(
        "cannot checkpoint with journaled-but-unapplied batches pending");
  }
  static obs::Counter* snapshots_written = obs::MetricsRegistry::Global()
      .GetCounter("pghive.store.snapshots_written");
  static obs::Counter* snapshot_bytes = obs::MetricsRegistry::Global()
      .GetCounter("pghive.store.snapshot_bytes");
  obs::ScopedSpan span("store.checkpoint");
  if (span.recording()) span.AddAttr("applied_batches", applied_batches_);
  StoreSnapshot snap;
  {
    obs::ScopedSpan build_span("store.snapshot_build");
    snap = BuildSnapshot();
  }
  std::string bytes;
  {
    obs::ScopedSpan encode_span("store.snapshot_encode");
    bytes = EncodeSnapshot(snap, engine_.thread_pool());
    snap = StoreSnapshot();  // free the state copy inside the span
  }
  {
    obs::ScopedSpan write_span("store.snapshot_write");
    if (write_span.recording()) write_span.AddAttr("bytes", bytes.size());
    const std::string path =
        dir_ + "/" +
        NumberedFileName(kSnapshotPrefix, applied_batches_, kSnapshotSuffix);
    PGHIVE_RETURN_NOT_OK(WriteSnapshotFile(path, bytes));
  }
  snapshots_written->Add(1);
  snapshot_bytes->Add(bytes.size());
  obs::ScopedSpan prune_span("store.prune");
  return PruneAfterCheckpoint();
}

Status DurableDiscoverer::PruneAfterCheckpoint() {
  // The snapshot just written covers every journaled batch, so all segments
  // (including the open one) are dead weight; the next Feed starts a fresh
  // segment named after the next batch id.
  PGHIVE_RETURN_NOT_OK(journal_.Close());
  std::error_code ec;
  for (const std::string& path : ListJournalFiles(dir_)) {
    std::filesystem::remove(path, ec);
    if (ec) {
      return Status::IoError("cannot remove applied journal segment '" +
                             path + "': " + ec.message());
    }
  }
  const std::vector<std::string> snapshots = ListSnapshotFiles(dir_);
  for (size_t i = 1 + options_.keep_extra_snapshots; i < snapshots.size();
       ++i) {
    std::filesystem::remove(snapshots[i], ec);
    if (ec) {
      return Status::IoError("cannot remove stale snapshot '" +
                             snapshots[i] + "': " + ec.message());
    }
  }
  PGHIVE_RETURN_NOT_OK(SyncDir(dir_));
  batches_since_checkpoint_ = 0;
  journal_bytes_since_checkpoint_ = 0;
  return Status::OK();
}

Result<SchemaGraph> DurableDiscoverer::Finish() {
  SchemaGraph schema = engine_.Finish(graph_);
  PGHIVE_RETURN_NOT_OK(Checkpoint());
  return schema;
}

std::string StateDirMetrics::ToString() const {
  std::string s;
  s += "snapshots:        " + std::to_string(snapshot_count) + " (" +
       std::to_string(snapshot_bytes) + " bytes)\n";
  s += "newest snapshot:  " + std::to_string(newest_snapshot_batches) +
       " batches applied\n";
  s += "journal segments: " + std::to_string(journal_segments) + " (" +
       std::to_string(journal_bytes) + " bytes, " +
       std::to_string(journal_records) + " records)\n";
  s += "journal ops:      " + std::to_string(journal_insert_ops) +
       " insert / " + std::to_string(journal_delete_ops) + " delete / " +
       std::to_string(journal_update_ops) + " update\n";
  s += "drift history:    " +
       (drift_history_bytes > 0
            ? std::to_string(drift_history_bytes) + " bytes (newest snapshot)"
            : std::string("none")) +
       "\n";
  if (torn_tail) s += "journal tail:     TORN (truncated on next recovery)\n";
  return s;
}

StateDirMetrics CollectStateDirMetrics(const std::string& dir) {
  StateDirMetrics m;
  std::error_code ec;
  const std::vector<std::string> snapshots = ListSnapshotFiles(dir);
  m.snapshot_count = snapshots.size();
  for (const std::string& path : snapshots) {
    const uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec) m.snapshot_bytes += size;
  }
  if (!snapshots.empty()) {
    // The applied count is encoded in the name (snapshot-<applied>.pghs);
    // reading it from there avoids decoding the whole snapshot.
    uint64_t applied = 0;
    if (ParseNumberedFileName(
            std::filesystem::path(snapshots.front()).filename().string(),
            kSnapshotPrefix, kSnapshotSuffix, &applied)) {
      m.newest_snapshot_batches = applied;
    }
  }
  for (const std::string& path : ListJournalFiles(dir)) {
    ++m.journal_segments;
    const uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec) m.journal_bytes += size;
    Result<JournalReadResult> read = ReadJournalSegment(path);
    if (!read.ok()) continue;  // unreadable: bytes counted, no records
    m.journal_records += read->records.size();
    for (const JournalRecord& rec : read->records) {
      m.journal_insert_ops +=
          rec.payload.nodes.size() + rec.payload.edges.size();
      m.journal_delete_ops += rec.payload.mutations.delete_nodes.size() +
                              rec.payload.mutations.delete_edges.size();
      m.journal_update_ops += rec.payload.mutations.update_nodes.size() +
                              rec.payload.mutations.update_edges.size();
    }
    if (read->torn_tail) m.torn_tail = true;
  }
  if (!snapshots.empty()) {
    // Probe (don't fully decode) the newest snapshot for its drift-history
    // section size.
    Result<std::string> bytes = ReadFile(snapshots.front());
    if (bytes.ok()) {
      Result<SnapshotInfo> info = InspectSnapshot(*bytes);
      if (info.ok()) {
        for (const SnapshotSectionInfo& sec : info->sections) {
          if (sec.id == static_cast<uint32_t>(SnapshotSection::kDriftHistory)) {
            m.drift_history_bytes = sec.size;
          }
        }
      }
    }
  }
  return m;
}

void PublishStateDirMetrics(const StateDirMetrics& m) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("pghive.store.state_snapshot_count")
      ->Set(static_cast<int64_t>(m.snapshot_count));
  reg.GetGauge("pghive.store.state_snapshot_bytes")
      ->Set(static_cast<int64_t>(m.snapshot_bytes));
  reg.GetGauge("pghive.store.state_newest_snapshot_batches")
      ->Set(static_cast<int64_t>(m.newest_snapshot_batches));
  reg.GetGauge("pghive.store.state_journal_segments")
      ->Set(static_cast<int64_t>(m.journal_segments));
  reg.GetGauge("pghive.store.state_journal_bytes")
      ->Set(static_cast<int64_t>(m.journal_bytes));
  reg.GetGauge("pghive.store.state_journal_records")
      ->Set(static_cast<int64_t>(m.journal_records));
  reg.GetGauge("pghive.store.state_journal_insert_ops")
      ->Set(static_cast<int64_t>(m.journal_insert_ops));
  reg.GetGauge("pghive.store.state_journal_delete_ops")
      ->Set(static_cast<int64_t>(m.journal_delete_ops));
  reg.GetGauge("pghive.store.state_journal_update_ops")
      ->Set(static_cast<int64_t>(m.journal_update_ops));
  reg.GetGauge("pghive.store.state_drift_history_bytes")
      ->Set(static_cast<int64_t>(m.drift_history_bytes));
  reg.GetGauge("pghive.store.state_torn_tail")->Set(m.torn_tail ? 1 : 0);
}

}  // namespace store
}  // namespace pghive
