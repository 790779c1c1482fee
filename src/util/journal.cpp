#include "util/journal.hpp"

#include <array>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "util/fault.hpp"

namespace statleak {

namespace {

/// First 32 header bytes (everything the header CRC covers).
std::vector<std::uint8_t> header_prefix(const JournalFormat& format,
                                        std::uint64_t config_hash,
                                        std::uint64_t meta,
                                        std::uint64_t committed_bytes) {
  std::vector<std::uint8_t> buf;
  buf.reserve(32);
  put<std::uint32_t>(buf, format.magic);
  put<std::uint32_t>(buf, format.version);
  put<std::uint64_t>(buf, config_hash);
  put<std::uint64_t>(buf, meta);
  put<std::uint64_t>(buf, committed_bytes);
  return buf;
}

std::vector<std::uint8_t> header_bytes(const JournalFormat& format,
                                       std::uint64_t config_hash,
                                       std::uint64_t meta,
                                       std::uint64_t committed_bytes) {
  std::vector<std::uint8_t> buf =
      header_prefix(format, config_hash, meta, committed_bytes);
  put<std::uint32_t>(buf, crc32(buf.data(), buf.size()));
  return buf;
}

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw CheckpointError("checkpoint '" + path + "': " + why);
}

/// Reads the whole file; throws on open/read failure.
std::vector<std::uint8_t> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) reject(path, "cannot open for reading");
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> chunk;
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) reject(path, "read error");
  return bytes;
}

/// Validated view of a journal header.
struct Header {
  std::uint64_t config_hash = 0;
  std::uint64_t meta = 0;
  std::uint64_t committed_bytes = 0;
};

/// Parses + validates the 36-byte header against the file size and the
/// expected run configuration. Every failure is a structured rejection.
Header check_header(const std::string& path,
                    const std::vector<std::uint8_t>& bytes,
                    const JournalFormat& format, std::uint64_t expected_hash,
                    std::uint64_t expected_meta) {
  if (bytes.size() < kJournalHeaderBytes) {
    reject(path, "truncated header (" + std::to_string(bytes.size()) +
                     " bytes, need " + std::to_string(kJournalHeaderBytes) +
                     ")");
  }
  const auto magic = get<std::uint32_t>(bytes.data());
  if (magic != format.magic) {
    reject(path, "bad magic (not a statleak checkpoint of this kind)");
  }
  const auto version = get<std::uint32_t>(bytes.data() + 4);
  if (version != format.version) {
    reject(path, "unsupported version " + std::to_string(version) +
                     " (this build reads version " +
                     std::to_string(format.version) + ")");
  }
  const auto stored_crc = get<std::uint32_t>(bytes.data() + 32);
  if (stored_crc != crc32(bytes.data(), 32)) {
    reject(path, "header CRC mismatch (corrupt header)");
  }
  Header h;
  h.config_hash = get<std::uint64_t>(bytes.data() + 8);
  h.meta = get<std::uint64_t>(bytes.data() + 16);
  h.committed_bytes = get<std::uint64_t>(bytes.data() + 24);
  if (h.committed_bytes < kJournalHeaderBytes) {
    reject(path, "committed_bytes " + std::to_string(h.committed_bytes) +
                     " smaller than the header");
  }
  if (h.committed_bytes > bytes.size()) {
    reject(path, "file shorter than committed region (" +
                     std::to_string(bytes.size()) + " bytes on disk, " +
                     std::to_string(h.committed_bytes) + " committed)");
  }
  if (h.config_hash != expected_hash) {
    reject(path,
           "written by a different run configuration (config hash "
           "mismatch) — delete it or point --checkpoint elsewhere");
  }
  if (h.meta != expected_meta) {
    reject(path, "population mismatch (file describes " +
                     std::to_string(h.meta) + " units, run wants " +
                     std::to_string(expected_meta) + ")");
  }
  return h;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Table generated once for polynomial 0xEDB88320 (reflected IEEE 802.3).
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

bool journal_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) && !ec &&
         std::filesystem::file_size(path, ec) > 0 && !ec;
}

JournalContents load_journal(const std::string& path,
                             const JournalFormat& format,
                             std::uint64_t expected_hash,
                             std::uint64_t expected_meta) {
  const std::vector<std::uint8_t> bytes = slurp(path);
  const Header h =
      check_header(path, bytes, format, expected_hash, expected_meta);

  JournalContents contents;
  contents.config_hash = h.config_hash;
  contents.meta = h.meta;
  contents.dropped_tail_bytes = bytes.size() - h.committed_bytes;

  std::size_t off = kJournalHeaderBytes;
  while (off < h.committed_bytes) {
    if (h.committed_bytes - off < kJournalRecordBytes) {
      reject(path, "committed record envelope truncated at byte " +
                       std::to_string(off));
    }
    const auto payload_len = get<std::uint64_t>(bytes.data() + off);
    const auto kind = get<std::uint32_t>(bytes.data() + off + 8);
    const auto stored_crc = get<std::uint32_t>(bytes.data() + off + 12);
    if (payload_len > h.committed_bytes - off - kJournalRecordBytes) {
      reject(path, "record at byte " + std::to_string(off) +
                       " overruns the committed region (" +
                       std::to_string(payload_len) + " payload bytes)");
    }
    // CRC covers payload_len+kind+payload; the crc field itself is skipped.
    std::uint32_t crc = crc32(bytes.data() + off, 12);
    crc = crc32(bytes.data() + off + kJournalRecordBytes, payload_len, crc);
    if (crc != stored_crc) {
      reject(path, "record CRC mismatch at byte " + std::to_string(off) +
                       " (corrupt committed data)");
    }
    JournalRecord rec;
    rec.kind = kind;
    rec.offset = off;
    const std::uint8_t* payload = bytes.data() + off + kJournalRecordBytes;
    rec.payload.assign(payload, payload + payload_len);
    contents.records.push_back(std::move(rec));
    off += kJournalRecordBytes + payload_len;
  }
  return contents;
}

// --- writer -----------------------------------------------------------------

struct JournalWriter::Impl {
  std::mutex mutex;
  std::FILE* file = nullptr;
  std::string path;
  JournalFormat format;
  std::uint64_t config_hash = 0;
  std::uint64_t meta = 0;
  std::uint64_t committed = 0;
  std::uint64_t records = 0;
  bool dead = false;

  ~Impl() {
    if (file != nullptr) std::fclose(file);
  }

  /// Rewrites bytes [0, 36) with the current committed_bytes. Phase two of
  /// the commit: only runs after the record payload is flushed.
  bool write_header_locked() {
    const std::vector<std::uint8_t> hdr =
        header_bytes(format, config_hash, meta, committed);
    if (std::fseek(file, 0, SEEK_SET) != 0) return false;
    if (std::fwrite(hdr.data(), 1, hdr.size(), file) != hdr.size()) {
      return false;
    }
    return std::fflush(file) == 0;
  }
};

JournalWriter::JournalWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

JournalWriter::~JournalWriter() = default;

std::unique_ptr<JournalWriter> JournalWriter::create(
    const std::string& path, const JournalFormat& format,
    std::uint64_t config_hash, std::uint64_t meta) {
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  impl->format = format;
  impl->config_hash = config_hash;
  impl->meta = meta;
  impl->committed = kJournalHeaderBytes;
  impl->file = std::fopen(path.c_str(), "wb+");
  if (impl->file == nullptr) {
    throw CheckpointError("checkpoint '" + path +
                          "': cannot open for writing");
  }
  if (!impl->write_header_locked()) {
    throw CheckpointError("checkpoint '" + path +
                          "': failed to write header");
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(std::move(impl)));
}

std::unique_ptr<JournalWriter> JournalWriter::resume(
    const std::string& path, const JournalFormat& format,
    std::uint64_t config_hash, std::uint64_t meta) {
  // Validate via the loader's machinery (cheap relative to the runs being
  // journaled) so a writer never appends after a corrupt committed region.
  const std::vector<std::uint8_t> bytes = slurp(path);
  const Header h = check_header(path, bytes, format, config_hash, meta);

  auto impl = std::make_unique<Impl>();
  impl->path = path;
  impl->format = format;
  impl->config_hash = config_hash;
  impl->meta = meta;
  impl->committed = h.committed_bytes;
  impl->file = std::fopen(path.c_str(), "rb+");
  if (impl->file == nullptr) {
    throw CheckpointError("checkpoint '" + path +
                          "': cannot open for appending");
  }
  // Drop any uncommitted tail now so new records extend the committed
  // region contiguously.
  if (bytes.size() > h.committed_bytes) {
    std::error_code ec;
    std::filesystem::resize_file(path, h.committed_bytes, ec);
    if (ec) {
      throw CheckpointError("checkpoint '" + path +
                            "': cannot drop uncommitted tail");
    }
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(std::move(impl)));
}

void JournalWriter::append(std::uint32_t kind, const void* payload,
                           std::size_t size) {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> lock(im.mutex);
  if (im.dead) return;  // a dead writer behaves like a dead process

  std::vector<std::uint8_t> rec;
  rec.reserve(kJournalRecordBytes + size);
  put<std::uint64_t>(rec, static_cast<std::uint64_t>(size));
  put<std::uint32_t>(rec, kind);
  std::uint32_t crc = crc32(rec.data(), 12);
  crc = crc32(payload, size, crc);
  put<std::uint32_t>(rec, crc);
  const auto* p = static_cast<const std::uint8_t*>(payload);
  rec.insert(rec.end(), p, p + size);

  // Phase one: append + flush the record past the committed region.
  std::size_t write_len = rec.size();
  bool injected_short_write = false;
  if (STATLEAK_FAULT_FIRES(fault::Point::kShortWrite, im.records)) {
    // Simulate dying mid-flush: half the record reaches the disk and the
    // header is never advanced, so the tail is dropped on the next load.
    write_len = rec.size() / 2;
    injected_short_write = true;
  }
  bool ok = std::fseek(im.file, static_cast<long>(im.committed),
                       SEEK_SET) == 0 &&
            std::fwrite(rec.data(), 1, write_len, im.file) == write_len &&
            std::fflush(im.file) == 0;
  if (!ok || injected_short_write) {
    im.dead = true;
    return;
  }

  // Phase two: advance committed_bytes. Failure here leaves the old header
  // committed — the record becomes an ignorable tail, not corruption.
  im.committed += rec.size();
  if (!im.write_header_locked()) {
    im.committed -= rec.size();
    im.dead = true;
    return;
  }
  ++im.records;
}

bool JournalWriter::healthy() const {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> lock(im.mutex);
  return !im.dead;
}

std::uint64_t JournalWriter::records_appended() const {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> lock(im.mutex);
  return im.records;
}

}  // namespace statleak
