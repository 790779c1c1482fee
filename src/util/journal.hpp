/// \file journal.hpp
/// \brief Generic CRC-32-guarded, two-phase-commit append-only journal.
///
/// PR 5 built this machinery for Monte-Carlo sample checkpoints (the SLCK
/// container); this file is the same container generalized so any engine
/// with a deterministic committed-event sequence can journal it durably.
/// Clients pick a magic/version pair (JournalFormat), a 64-bit config
/// fingerprint, a 64-bit `meta` word (population size, gate count, ...) and
/// a per-record `kind` tag; the container owns the framing, the CRCs and
/// the crash-consistency story:
///
///   header (36 bytes, little-endian)
///     magic            u32   client format tag ("SLCK", "SLOP", ...)
///     version          u32   client format version
///     config_hash      u64   fingerprint of the producing run
///     meta             u64   client word (validated on load, like the hash)
///     committed_bytes  u64   end of the valid region (two-phase commit)
///     header_crc       u32   CRC-32 of the 32 bytes above
///   records, back to back, from byte 36 up to committed_bytes
///     payload_len      u64   payload bytes that follow the envelope
///     kind             u32   client record tag
///     record_crc       u32   CRC-32 of payload_len+kind+payload
///     payload                payload_len opaque bytes
///
/// Two-phase commit: a record is appended and flushed *before*
/// committed_bytes is advanced, so a crash (or a short write — see
/// util/fault.hpp) at any instant leaves either the old or the new
/// committed state, never a half-trusted record. On load, bytes beyond
/// committed_bytes are ignored (the dropped-tail count is reported);
/// corruption *inside* the committed region — bad magic/version/CRC, a
/// record overrunning the region, a file shorter than committed_bytes — is
/// rejected with CheckpointError naming the byte offset and cause. Never
/// UB, never a partial trust.
///
/// See docs/ROBUSTNESS.md for the operational story.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace statleak {

/// Structured rejection of an unusable journal/checkpoint file: truncated,
/// corrupt, or written by a different run configuration. Subclass of
/// statleak::Error; the CLI maps it to exit code 5.
class CheckpointError : public Error {
 public:
  using Error::Error;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320). Exposed for tests that
/// hand-craft or corrupt journal bytes. Chainable: pass the previous return
/// value as `seed` to extend a checksum over discontiguous spans.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

// --- little-endian scalar packing ------------------------------------------
// statleak targets little-endian hosts only (x86-64, AArch64 LE); raw
// memcpy of the in-memory representation IS the wire format of the journal
// container and of every client payload.

/// Appends the bytes of `value` to `buf`.
template <typename T>
void put(std::vector<std::uint8_t>& buf, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  buf.insert(buf.end(), p, p + sizeof(T));
}

/// Reads a T from the bytes at `p`.
template <typename T>
T get(const std::uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

/// The client format tag pair stamped into (and validated against) the
/// header. Different clients — the MC checkpoint, the optimizer journal —
/// use different magics so a file is never replayed by the wrong engine.
struct JournalFormat {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
};

inline constexpr std::size_t kJournalHeaderBytes = 36;
/// Record envelope: payload_len u64, kind u32, record_crc u32.
inline constexpr std::size_t kJournalRecordBytes = 16;

/// One validated record as loaded from the committed region.
struct JournalRecord {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;  ///< byte offset of the envelope (diagnostics)
  std::vector<std::uint8_t> payload;
};

/// Everything a resuming run restores from a journal.
struct JournalContents {
  std::uint64_t config_hash = 0;
  std::uint64_t meta = 0;
  std::uint64_t dropped_tail_bytes = 0;  ///< uncommitted bytes ignored on load
  std::vector<JournalRecord> records;
};

/// True when `path` exists and is non-empty (i.e. worth loading).
bool journal_exists(const std::string& path);

/// Loads and fully validates a journal. Throws CheckpointError with a
/// precise diagnostic on any structural problem or when the stored
/// config_hash / meta do not match the expectations.
JournalContents load_journal(const std::string& path,
                             const JournalFormat& format,
                             std::uint64_t expected_hash,
                             std::uint64_t expected_meta);

/// Appends records to a journal file. Construction either creates a fresh
/// file (truncating whatever was there — callers load first if they want to
/// resume) or continues an existing valid one. append() is thread-safe:
/// concurrent producers interleave whole records under the writer's lock.
class JournalWriter {
 public:
  /// Creates `path` with a fresh header (truncates existing contents).
  static std::unique_ptr<JournalWriter> create(const std::string& path,
                                               const JournalFormat& format,
                                               std::uint64_t config_hash,
                                               std::uint64_t meta);

  /// Opens an existing, valid journal to append more records; any
  /// uncommitted tail is dropped so new records extend the committed region
  /// contiguously. Throws CheckpointError when the file does not validate.
  static std::unique_ptr<JournalWriter> resume(const std::string& path,
                                               const JournalFormat& format,
                                               std::uint64_t config_hash,
                                               std::uint64_t meta);

  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Durably appends one record. Two-phase: the record is flushed before
  /// the header's committed_bytes advances. After an I/O failure (or an
  /// injected short write — fault::Point::kShortWrite, addressed by the
  /// record ordinal since open) the writer goes dead — further appends are
  /// silently dropped, exactly as if the process had died — and healthy()
  /// reports false.
  void append(std::uint32_t kind, const void* payload, std::size_t size);

  bool healthy() const;
  /// Records successfully appended since this writer was opened.
  std::uint64_t records_appended() const;

 private:
  struct Impl;
  explicit JournalWriter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace statleak
