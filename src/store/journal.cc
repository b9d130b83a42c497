#include "store/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/binary_io.h"
#include "common/csv.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pghive {
namespace store {

namespace {

constexpr size_t kSegmentHeaderSize = 4 + 4;   // magic + version
constexpr size_t kRecordHeaderSize = 4 + 4;    // size + crc

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

Status WriteAll(int fd, const std::string& path, std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("journal write failed on", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status JournalWriter::Open(const std::string& path, bool fsync) {
  if (fd_ >= 0) return Status::FailedPrecondition("journal already open");
  fsync_ = fsync;
  path_ = path;
  // O_RDWR (not O_WRONLY): reopening an existing segment reads its header
  // version back, so the caller can tell a pre-v3 segment apart.
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return Errno("cannot open journal", path);
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    Status s = Errno("cannot stat journal", path);
    (void)Close();
    return s;
  }
  if (st.st_size == 0) {
    format_version_ = kJournalFormatVersion;
    BinaryWriter header;
    header.WriteBytes(std::string_view(kJournalMagic, 4));
    header.WriteU32(format_version_);
    PGHIVE_RETURN_NOT_OK(WriteAll(fd_, path_, header.buffer()));
    if (fsync_ && ::fsync(fd_) != 0) return Errno("fsync failed on", path_);
  } else {
    char header[kSegmentHeaderSize];
    ssize_t n = ::pread(fd_, header, sizeof(header), 0);
    if (n != static_cast<ssize_t>(sizeof(header)) ||
        std::string_view(header, 4) != std::string_view(kJournalMagic, 4)) {
      (void)Close();
      return Status::ParseError("'" + path +
                                "' is not a PG-HIVE journal (bad magic)");
    }
    uint32_t version = 0;
    std::memcpy(&version, header + 4, sizeof(version));
    if (version == 0 || version > kJournalFormatVersion) {
      (void)Close();
      return Status::ParseError("unsupported journal format version " +
                                std::to_string(version) + " in '" + path +
                                "'");
    }
    format_version_ = version;
  }
  return Status::OK();
}

Status JournalWriter::Append(uint64_t batch_id,
                             const std::string& batch_payload) {
  if (fd_ < 0) return Status::FailedPrecondition("journal not open");
  BinaryWriter record;
  {
    BinaryWriter payload;
    payload.WriteU64(batch_id);
    payload.WriteBytes(batch_payload);
    const std::string& body = payload.buffer();
    record.WriteU32(static_cast<uint32_t>(body.size()));
    record.WriteU32(Crc32(body));
    record.WriteBytes(body);
  }
  PGHIVE_RETURN_NOT_OK(WriteAll(fd_, path_, record.buffer()));
  static obs::Counter* journal_records = obs::MetricsRegistry::Global()
      .GetCounter("pghive.store.journal_records");
  static obs::Counter* journal_bytes = obs::MetricsRegistry::Global()
      .GetCounter("pghive.store.journal_bytes");
  static obs::Histogram* fsync_seconds = obs::MetricsRegistry::Global()
      .GetHistogram("pghive.store.fsync_seconds");
  if (fsync_) {
    const bool timed = obs::MetricsEnabled();
    const uint64_t start_ns = timed ? obs::TraceNowNs() : 0;
    if (::fdatasync(fd_) != 0) return Errno("fdatasync failed on", path_);
    if (timed) {
      fsync_seconds->Observe(
          static_cast<double>(obs::TraceNowNs() - start_ns) * 1e-9);
    }
  }
  journal_records->Add(1);
  journal_bytes->Add(record.size());
  bytes_written_ += record.size();
  return Status::OK();
}

Status JournalWriter::Close() {
  if (fd_ < 0) return Status::OK();
  int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Errno("close failed on", path_);
  return Status::OK();
}

Result<JournalReadResult> ReadJournalSegment(const std::string& path) {
  PGHIVE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  BinaryReader r(bytes);
  uint32_t version = 0;
  {
    auto magic = r.ReadBytes(4);
    if (!magic.ok() || *magic != std::string_view(kJournalMagic, 4)) {
      return Status::ParseError("'" + path +
                                "' is not a PG-HIVE journal (bad magic)");
    }
    PGHIVE_ASSIGN_OR_RETURN(version, r.ReadU32());
    if (version == 0 || version > kJournalFormatVersion) {
      return Status::ParseError("unsupported journal format version " +
                                std::to_string(version) + " in '" + path +
                                "'");
    }
  }

  JournalReadResult result;
  result.valid_bytes = kSegmentHeaderSize;
  while (!r.AtEnd()) {
    // Any failure from here to the end of the loop body invalidates only
    // the tail: framing cannot be resynchronized past a bad length prefix.
    if (r.remaining() < kRecordHeaderSize) {
      result.torn_tail = true;
      result.tail_error = "incomplete record header (" +
                          std::to_string(r.remaining()) + " trailing bytes)";
      break;
    }
    uint32_t size = r.ReadU32().value();
    uint32_t crc = r.ReadU32().value();
    if (size > r.remaining()) {
      result.torn_tail = true;
      result.tail_error = "record body truncated (declared " +
                          std::to_string(size) + " bytes, " +
                          std::to_string(r.remaining()) + " present)";
      break;
    }
    std::string_view body = r.ReadBytes(size).value();
    if (Crc32(body) != crc) {
      result.torn_tail = true;
      result.tail_error = "record CRC mismatch";
      break;
    }
    BinaryReader body_reader(body);
    JournalRecord record;
    auto batch_id = body_reader.ReadU64();
    if (!batch_id.ok()) {
      result.torn_tail = true;
      result.tail_error = "record payload undecodable: " +
                          batch_id.status().message();
      break;
    }
    record.batch_id = *batch_id;
    auto payload = version >= 3   ? DecodeBatchPayloadV3(&body_reader)
                   : version >= 2 ? DecodeBatchPayloadV2(&body_reader)
                                  : DecodeBatchPayload(&body_reader);
    if (!payload.ok()) {
      result.torn_tail = true;
      result.tail_error = "record payload undecodable: " +
                          payload.status().message();
      break;
    }
    record.payload = std::move(payload).value();
    result.records.push_back(std::move(record));
    result.valid_bytes = r.position();
  }
  return result;
}

}  // namespace store
}  // namespace pghive
