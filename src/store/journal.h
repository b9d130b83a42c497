// Write-ahead batch journal for incremental discovery.
//
// Before a batch is applied to the in-memory engine, its full node/edge
// payload is appended to the current journal segment and fsync'd, so a
// crash between append and apply loses nothing: recovery replays the
// journal through the engine and converges to the exact state an
// uninterrupted run produces.
//
// Segment file layout:
//
//   "PGHJ" magic | u32 format_version            (segment header)
//   then per record:
//     u32 payload_size | u32 payload_crc | payload
//   payload := u64 batch_id | batch payload bytes (codec.h; the segment
//              header version picks the payload layout)
//
// A record is valid only when fully present with a matching CRC. Readers
// stop at the first invalid record and report the byte offset of the last
// valid one ("torn tail"): for the newest segment that is the expected
// signature of a crash mid-append and the tail is discarded by truncation;
// for an older segment it means real corruption and recovery refuses to
// proceed.

#ifndef PGHIVE_STORE_JOURNAL_H_
#define PGHIVE_STORE_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "store/codec.h"

namespace pghive {
namespace store {

inline constexpr char kJournalMagic[4] = {'P', 'G', 'H', 'J'};
/// v1 payloads spell every element's strings out; v2 payloads carry a
/// batch-local dictionary; v3 payloads extend v2 with the batch's mutation
/// half — delete-node / delete-edge id vectors and update records. The
/// segment header version decides the payload codec for the whole segment.
/// Only v3 is written (EncodeBatchPayloadV3); v1-v3 segments are read
/// (DecodeBatchPayload / V2 / V3). The store never appends to a pre-v3
/// segment: one found under the name it opens holds no records and is
/// replaced by a fresh v3 segment.
inline constexpr uint32_t kJournalFormatVersion = 3;

/// Appends length-prefixed, CRC-guarded batch records to one segment file.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Creates (or opens for append) the segment at `path`, writing the
  /// segment header when the file is new. `fsync` = false trades crash
  /// durability for speed (tests, benchmarks).
  Status Open(const std::string& path, bool fsync = true);

  /// Appends one record (framing + payload) and fsyncs. The record is
  /// durable once this returns OK.
  Status Append(uint64_t batch_id, const std::string& batch_payload);

  Status Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  /// Bytes appended through this writer (excluding the segment header).
  uint64_t bytes_written() const { return bytes_written_; }
  /// The open segment's header version (readers decode the whole segment
  /// with this version's batch-payload codec). Fresh segments are
  /// kJournalFormatVersion; an existing segment keeps its own.
  uint32_t format_version() const { return format_version_; }

 private:
  int fd_ = -1;
  bool fsync_ = true;
  std::string path_;
  uint64_t bytes_written_ = 0;
  uint32_t format_version_ = kJournalFormatVersion;
};

/// One decoded journal record.
struct JournalRecord {
  uint64_t batch_id = 0;
  BatchPayload payload;
};

struct JournalReadResult {
  std::vector<JournalRecord> records;
  /// True when trailing bytes after the last valid record were invalid
  /// (incomplete frame, CRC mismatch, or undecodable payload).
  bool torn_tail = false;
  /// File offset just past the last valid record — the size to truncate the
  /// segment to when discarding a torn tail.
  uint64_t valid_bytes = 0;
  /// Diagnostic for the torn tail (empty when !torn_tail).
  std::string tail_error;
};

/// Reads every valid record of a segment. Fails only when the file cannot
/// be read or its header is not a journal header; record-level problems are
/// reported via torn_tail, never by crashing.
Result<JournalReadResult> ReadJournalSegment(const std::string& path);

}  // namespace store
}  // namespace pghive

#endif  // PGHIVE_STORE_JOURNAL_H_
