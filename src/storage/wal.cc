#include "srs/storage/wal.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "srs/common/crc32c.h"

namespace srs {

namespace {

constexpr uint64_t kWalMagic = 0x31'30'4C'41'57'53'52'53ULL;  // "SRSWAL01"
constexpr uint32_t kWalFormatVersion = 1;
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr uint32_t kRecordMagic = 0x57524543u;  // "CERW"

struct WalFileHeader {
  uint64_t magic = kWalMagic;
  uint32_t format_version = kWalFormatVersion;
  uint32_t endian_marker = kEndianMarker;
  uint64_t base_fingerprint = 0;
  uint64_t snapshot_version = 0;
  uint64_t snapshot_version_fingerprint = 0;
  uint32_t header_crc = 0;  ///< CRC-32C of the header with this field = 0
  uint32_t pad = 0;
};
static_assert(sizeof(WalFileHeader) == 48);

/// Fixed prelude of a record frame; `payload_len` bytes of ops follow,
/// then the u32 CRC (over version, vfp, payload).
struct RecordPrelude {
  uint32_t magic = kRecordMagic;
  uint32_t payload_len = 0;
  uint64_t version = 0;
  uint64_t version_fingerprint = 0;
};
static_assert(sizeof(RecordPrelude) == 24);

/// Payload: i64 num_nodes, u32 num_ops, then per op {i32 u, i32 v,
/// i32 insert}.
struct OpWire {
  int32_t u = 0;
  int32_t v = 0;
  int32_t insert = 0;
};
static_assert(sizeof(OpWire) == 12);

uint32_t HeaderCrc(WalFileHeader h) {
  h.header_crc = 0;
  return Crc32c(&h, sizeof(h));
}

std::vector<char> EncodePayload(const EdgeDelta& delta) {
  const int64_t num_nodes = delta.num_nodes();
  const uint32_t num_ops = static_cast<uint32_t>(delta.size());
  std::vector<char> payload(sizeof(num_nodes) + sizeof(num_ops) +
                            num_ops * sizeof(OpWire));
  char* at = payload.data();
  std::memcpy(at, &num_nodes, sizeof(num_nodes));
  at += sizeof(num_nodes);
  std::memcpy(at, &num_ops, sizeof(num_ops));
  at += sizeof(num_ops);
  for (const EdgeOp& op : delta.ops()) {
    const OpWire wire{op.u, op.v, op.insert ? 1 : 0};
    std::memcpy(at, &wire, sizeof(wire));
    at += sizeof(wire);
  }
  return payload;
}

Result<EdgeDelta> DecodePayload(const char* data, size_t size) {
  int64_t num_nodes = 0;
  uint32_t num_ops = 0;
  if (size < sizeof(num_nodes) + sizeof(num_ops)) {
    return Status::IoError("wal record payload truncated");
  }
  std::memcpy(&num_nodes, data, sizeof(num_nodes));
  std::memcpy(&num_ops, data + sizeof(num_nodes), sizeof(num_ops));
  if (size != sizeof(num_nodes) + sizeof(num_ops) +
                  static_cast<size_t>(num_ops) * sizeof(OpWire)) {
    return Status::IoError("wal record payload size mismatch");
  }
  EdgeDelta::Builder builder;
  builder.Reserve(num_ops);
  const char* at = data + sizeof(num_nodes) + sizeof(num_ops);
  for (uint32_t i = 0; i < num_ops; ++i) {
    OpWire wire;
    std::memcpy(&wire, at, sizeof(wire));
    at += sizeof(wire);
    if (wire.insert != 0) {
      builder.Insert(wire.u, wire.v);
    } else {
      builder.Remove(wire.u, wire.v);
    }
  }
  // Ops were written canonical, so Build() reproduces the identical delta
  // (same ops, same fingerprint); it also re-validates endpoint ranges.
  return builder.Build(num_nodes);
}

uint32_t RecordCrc(const RecordPrelude& prelude, const char* payload) {
  uint32_t crc = Crc32c(&prelude.version,
                        sizeof(prelude.version) +
                            sizeof(prelude.version_fingerprint));
  return Crc32c(payload, prelude.payload_len, crc);
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::Create(const std::string& path,
                                         const Header& header) {
  const int raw_fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (raw_fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  storage::Fd fd(raw_fd);
  WalFileHeader file_header;
  file_header.base_fingerprint = header.base_fingerprint;
  file_header.snapshot_version = header.snapshot_version;
  file_header.snapshot_version_fingerprint =
      header.snapshot_version_fingerprint;
  file_header.header_crc = HeaderCrc(file_header);
  SRS_RETURN_NOT_OK(
      storage::WriteAll(fd.get(), &file_header, sizeof(file_header)));
  SRS_RETURN_NOT_OK(storage::Fsync(fd.get(), path));
  SRS_RETURN_NOT_OK(storage::FsyncDirOf(path));
  return std::unique_ptr<Wal>(
      new Wal(std::move(fd), path, header, sizeof(file_header)));
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       ScanResult* scan) {
  SRS_CHECK(scan != nullptr);
  *scan = ScanResult();
  const int raw_fd = ::open(path.c_str(), O_RDWR);
  if (raw_fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  storage::Fd fd(raw_fd);
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IoError("stat " + path + ": " + std::strerror(errno));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  std::vector<char> bytes(file_size);
  uint64_t got = 0;
  while (got < file_size) {
    const ssize_t n =
        ::pread(fd.get(), bytes.data() + got, file_size - got, got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read " + path + ": " + std::strerror(errno));
    }
    if (n == 0) break;
    got += static_cast<uint64_t>(n);
  }
  if (got < sizeof(WalFileHeader)) {
    return Status::IoError(path + ": truncated wal header");
  }
  WalFileHeader file_header;
  std::memcpy(&file_header, bytes.data(), sizeof(file_header));
  if (file_header.magic != kWalMagic) {
    return Status::IoError(path + ": bad wal magic");
  }
  if (file_header.endian_marker != kEndianMarker) {
    return Status::IoError(path + ": wal endianness mismatch");
  }
  if (file_header.format_version != kWalFormatVersion) {
    return Status::IoError(path + ": unsupported wal format version " +
                           std::to_string(file_header.format_version));
  }
  if (file_header.header_crc != HeaderCrc(file_header)) {
    return Status::IoError(path + ": wal header checksum mismatch");
  }
  scan->header.base_fingerprint = file_header.base_fingerprint;
  scan->header.snapshot_version = file_header.snapshot_version;
  scan->header.snapshot_version_fingerprint =
      file_header.snapshot_version_fingerprint;

  // Scan frames until the bytes run out or a frame fails to validate.
  // Everything from the first bad frame on is the torn tail: appends are
  // sequential and each Append fsyncs before acking, so no valid record
  // can live beyond an invalid one.
  uint64_t valid_end = sizeof(WalFileHeader);
  uint64_t at = valid_end;
  while (true) {
    RecordPrelude prelude;
    if (got - at < sizeof(prelude)) break;
    std::memcpy(&prelude, bytes.data() + at, sizeof(prelude));
    if (prelude.magic != kRecordMagic) break;
    const uint64_t frame_size =
        sizeof(prelude) + prelude.payload_len + sizeof(uint32_t);
    if (got - at < frame_size) break;
    const char* payload = bytes.data() + at + sizeof(prelude);
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, payload + prelude.payload_len,
                sizeof(stored_crc));
    if (stored_crc != RecordCrc(prelude, payload)) break;
    Result<EdgeDelta> delta = DecodePayload(payload, prelude.payload_len);
    if (!delta.ok()) break;
    Record record;
    record.version = prelude.version;
    record.version_fingerprint = prelude.version_fingerprint;
    record.delta = delta.MoveValueOrDie();
    scan->records.push_back(std::move(record));
    at += frame_size;
    valid_end = at;
  }
  if (valid_end < got) {
    scan->tail_truncated = true;
    scan->dropped_bytes = got - valid_end;
    if (::ftruncate(fd.get(), static_cast<off_t>(valid_end)) != 0) {
      return Status::IoError("ftruncate " + path + ": " +
                             std::strerror(errno));
    }
    SRS_RETURN_NOT_OK(storage::Fsync(fd.get(), path));
  }
  if (::lseek(fd.get(), static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    return Status::IoError("lseek " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<Wal>(
      new Wal(std::move(fd), path, scan->header, valid_end));
}

Status Wal::Fail(Status status) {
  if (failed_.ok()) failed_ = status;
  return status;
}

Status Wal::Append(const Record& record) {
  if (!failed_.ok()) return failed_;
  const std::vector<char> payload = EncodePayload(record.delta);
  RecordPrelude prelude;
  prelude.payload_len = static_cast<uint32_t>(payload.size());
  prelude.version = record.version;
  prelude.version_fingerprint = record.version_fingerprint;
  const uint32_t crc = RecordCrc(prelude, payload.data());

  std::vector<char> frame(sizeof(prelude) + payload.size() + sizeof(crc));
  std::memcpy(frame.data(), &prelude, sizeof(prelude));
  std::memcpy(frame.data() + sizeof(prelude), payload.data(),
              payload.size());
  std::memcpy(frame.data() + sizeof(prelude) + payload.size(), &crc,
              sizeof(crc));
  Status written = storage::WriteAll(fd_.get(), frame.data(), frame.size());
  if (written.ok()) written = storage::Fsync(fd_.get(), path_);
  if (!written.ok()) return Fail(std::move(written));
  size_bytes_ += frame.size();
  return Status::OK();
}

Status Wal::Reset(const Header& header) {
  if (!failed_.ok()) return failed_;
  if (::ftruncate(fd_.get(), 0) != 0) {
    return Fail(Status::IoError("ftruncate " + path_ + ": " +
                                std::strerror(errno)));
  }
  if (::lseek(fd_.get(), 0, SEEK_SET) < 0) {
    return Fail(
        Status::IoError("lseek " + path_ + ": " + std::strerror(errno)));
  }
  WalFileHeader file_header;
  file_header.base_fingerprint = header.base_fingerprint;
  file_header.snapshot_version = header.snapshot_version;
  file_header.snapshot_version_fingerprint =
      header.snapshot_version_fingerprint;
  file_header.header_crc = HeaderCrc(file_header);
  Status written =
      storage::WriteAll(fd_.get(), &file_header, sizeof(file_header));
  if (written.ok()) written = storage::Fsync(fd_.get(), path_);
  if (!written.ok()) return Fail(std::move(written));
  header_ = header;
  size_bytes_ = sizeof(file_header);
  return Status::OK();
}

}  // namespace srs
