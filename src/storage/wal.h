#pragma once

/// \file wal.h
/// \brief Append-only write-ahead log of `EdgeDelta` batches.
///
/// The WAL is the durability half of the persistence pair (the other half
/// is storage/snapshot_file.h): every delta is CRC-framed and fsync'd to
/// the log **before** `SrsService::ApplyDelta` swaps the served version,
/// so an acknowledged delta survives any crash. Recovery loads the last
/// snapshot and replays the log tail through the exact same
/// `VersionedGraph::Apply` chain the live process ran — each record
/// carries the version id and version fingerprint it minted, which lets
/// the replayer verify the chain reproduces them bit-for-bit before
/// serving.
///
/// Format (all integers little-endian):
///
///     [WalFileHeader]             magic, format, chain identity, CRC
///     [record]*                   framed deltas, strictly increasing
///                                 version ids
///
/// Each record is `{u32 magic, u32 payload_len, u64 version, u64 vfp,
/// payload, u32 crc}` where the CRC covers version, vfp, and payload, and
/// the payload is the canonical op list. A crash can tear only the last
/// record (appends are sequential and fsync'd); `Wal::Open` stops at the
/// first frame that is short, mis-magicked, or CRC-invalid, truncates the
/// torn bytes, and positions for append. Anything before the torn frame
/// was fsync'd by an earlier append and is trusted.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "srs/common/result.h"
#include "srs/graph/delta.h"
#include "srs/storage/file_util.h"

namespace srs {

/// \brief One log file: create fresh, or open-and-scan, then append.
class Wal {
 public:
  /// Chain identity stamped in the file header. `snapshot_version` /
  /// `snapshot_version_fingerprint` name the snapshot the log's records
  /// extend — records at or below that version are obsolete (a crash
  /// between checkpoint rename and log reset leaves some; recovery skips
  /// them).
  struct Header {
    uint64_t base_fingerprint = 0;
    uint64_t snapshot_version = 0;
    uint64_t snapshot_version_fingerprint = 0;
  };

  /// One logged delta: the version it minted, the version fingerprint the
  /// chain computed for it, and the delta itself.
  struct Record {
    uint64_t version = 0;
    uint64_t version_fingerprint = 0;
    EdgeDelta delta;
  };

  /// What Open() found on disk.
  struct ScanResult {
    Header header;
    std::vector<Record> records;  ///< valid prefix, in append order
    bool tail_truncated = false;  ///< a torn/corrupt tail was cut off
    uint64_t dropped_bytes = 0;   ///< bytes the truncation removed
  };

  /// Creates (or truncates) `path` with `header`, fsync'd, ready for
  /// Append.
  static Result<std::unique_ptr<Wal>> Create(const std::string& path,
                                             const Header& header);

  /// Opens an existing log: validates the header, scans the records into
  /// `*scan`, truncates any torn tail, and positions for append. IoError
  /// if the file is missing, unreadable, or its header is corrupt.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           ScanResult* scan);

  /// Appends one CRC-framed record and fsyncs before returning — when
  /// this returns OK the record is durable.
  ///
  /// Failures are sticky: after any write or fsync error in Append or
  /// Reset, every later Append and Reset returns that first error until
  /// the process restarts. A failed write can leave a torn frame, and
  /// recovery stops at the first bad frame, so a record appended behind
  /// it would be acknowledged and then lost. A failed fsync is never
  /// retried either: the kernel may already have dropped the dirty pages
  /// it could not write.
  Status Append(const Record& record);

  /// Truncates the log to a fresh `header` (the checkpoint path: called
  /// only *after* the new snapshot file is durably renamed). Fsync'd.
  /// Sticky on failure, like Append.
  Status Reset(const Header& header);

  /// Current log size in bytes (header included).
  uint64_t SizeBytes() const { return size_bytes_; }

  const Header& header() const { return header_; }

 private:
  Wal(storage::Fd fd, std::string path, Header header, uint64_t size_bytes)
      : fd_(std::move(fd)),
        path_(std::move(path)),
        header_(header),
        size_bytes_(size_bytes) {}

  /// Records the first failure of Append/Reset and returns `status`.
  Status Fail(Status status);

  storage::Fd fd_;
  std::string path_;
  Header header_;
  uint64_t size_bytes_ = 0;
  Status failed_;  ///< first write/fsync failure; OK while healthy
};

}  // namespace srs
