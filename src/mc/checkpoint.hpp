/// \file checkpoint.hpp
/// \brief Versioned, CRC-guarded checkpoint files for long Monte-Carlo runs.
///
/// PR 1's counter-based per-sample RNG streams make MC samples independent
/// and order-free: sample i's value depends only on (seed, i), never on
/// which samples ran before it. A checkpoint therefore only has to record
/// *which slots finished and their values* — resuming skips those slots and
/// recomputes the rest, and the merged result is bit-identical to an
/// uninterrupted run for any thread count or batch size.
///
/// The container is the generic two-phase-commit journal of
/// util/journal.hpp ("SLCK" magic, format version 2; version 1 was the
/// pre-generalization layout with an MC-specific record envelope). One
/// record kind is used:
///
///   kind kMcSampleBlock (payload)
///     begin      u64   first slot of the block
///     count      u64   number of consecutive slots
///     payload          count delays then count leakages (f64 bits)
///
/// The header's `meta` word is the population size. Crash consistency,
/// tail-drop on resume and the corruption taxonomy (all rejected as
/// CheckpointError, CLI exit 5) are the container's — see util/journal.hpp
/// and docs/ROBUSTNESS.md.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mc/monte_carlo.hpp"
#include "netlist/circuit.hpp"
#include "tech/process.hpp"
#include "tech/variation.hpp"
#include "util/journal.hpp"

namespace statleak {

inline constexpr std::uint32_t kCheckpointMagic = 0x4B434C53u;  // "SLCK"
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::size_t kCheckpointHeaderBytes = kJournalHeaderBytes;
/// The MC checkpoint's one record kind (journal `kind` tag).
inline constexpr std::uint32_t kMcSampleBlock = 0;

/// Revision of the Monte-Carlo sample arithmetic, mixed into
/// mc_checkpoint_hash. It changes whenever a code change moves sample bits
/// for the same inputs, so a checkpoint written before the change is
/// rejected instead of resumed into a population that mixes both
/// arithmetics. Revision 1: leakage terms use the in-repo exp
/// (util/exp.hpp) instead of libm's; earlier builds mixed no revision.
/// Revision 2: normal_cdf runs the in-repo erfc (util/erfc.hpp), which
/// moves the Halley step of normal_inverse_cdf and with it every Sobol
/// draw.
inline constexpr std::uint64_t kMcArithmeticRevision = 2;

/// The journal format tag of MC checkpoint files.
inline constexpr JournalFormat mc_checkpoint_format() {
  return JournalFormat{kCheckpointMagic, kCheckpointVersion};
}

/// Fingerprint of everything that pins Monte-Carlo sample values: the
/// master seed, the population size, the delay mode, the sampler kind and
/// importance shift (a Sobol or shifted run draws different values than a
/// pseudo one, so cross-resume is rejected), the implementation point
/// (per-gate kind/vth/size), the variation model, the per-gate device
/// widths (which fold in the cell library's area tables via the Pelgrom
/// path), and the process node's physical constants (so a checkpoint from
/// one environment corner — temperature, Vdd, node flavor — is rejected at
/// any other), plus kMcArithmeticRevision. Thread count, batch size, the
/// ISA variant and the control-variate flag are
/// deliberately excluded — results are invariant to them, so a checkpoint
/// written by an 8-thread run with 64-sample blocks resumes under a
/// single-thread run with 1-sample blocks and vice versa.
std::uint64_t mc_checkpoint_hash(const Circuit& circuit,
                                 const VariationModel& var,
                                 const McConfig& config,
                                 std::span<const double> widths,
                                 const ProcessNode& node);

/// Validates that a record's slot range [begin, begin + count) is non-empty
/// and lies inside a population of `num_samples` slots; throws
/// CheckpointError otherwise. CheckpointWriter::append enforces this on
/// every record, and the distributed coordinator (src/dist/) applies the
/// same check to every shard block a worker reports before committing it.
void validate_checkpoint_range(std::uint64_t begin, std::uint64_t count,
                               std::uint64_t num_samples);

/// Everything a resuming run restores from a checkpoint.
struct CheckpointData {
  std::uint64_t num_samples = 0;
  std::size_t done_count = 0;            ///< number of set bits in `done`
  std::uint64_t dropped_tail_bytes = 0;  ///< uncommitted bytes ignored on load
  std::vector<std::uint8_t> done;        ///< per-slot completion mask
  std::vector<double> delay_ps;          ///< full-size; undone slots are 0
  std::vector<double> leakage_na;        ///< full-size; undone slots are 0
};

/// True when `path` exists and is non-empty (i.e. worth loading).
bool checkpoint_exists(const std::string& path);

/// Loads and fully validates a checkpoint. Throws CheckpointError with a
/// precise diagnostic on any structural problem or when `config_hash` /
/// `num_samples` do not match the file.
CheckpointData load_checkpoint(const std::string& path,
                               std::uint64_t config_hash,
                               std::uint64_t num_samples);

/// Appends completed sample blocks to a checkpoint file. Construction
/// either creates a fresh file (truncating whatever was there when the
/// existing contents do not validate against hash/num_samples — callers
/// load first if they want to resume) or continues an existing valid one.
/// append() is thread-safe: shard workers flush their completed ranges
/// concurrently at the configured cadence.
class CheckpointWriter {
 public:
  /// Creates `path` with a fresh header (truncates existing contents).
  static std::unique_ptr<CheckpointWriter> create(const std::string& path,
                                                  std::uint64_t config_hash,
                                                  std::uint64_t num_samples);

  /// Opens an existing, valid checkpoint to append more records. Throws
  /// CheckpointError when the file does not validate.
  static std::unique_ptr<CheckpointWriter> resume(const std::string& path,
                                                  std::uint64_t config_hash,
                                                  std::uint64_t num_samples);

  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Durably appends one block: slots [begin, begin + delay.size()) with
  /// the given values. Two-phase: payload is flushed before the header's
  /// committed_bytes advances. After an I/O failure (or an injected short
  /// write) the writer goes dead — further appends are silently dropped,
  /// exactly as if the process had died — and healthy() reports false.
  void append(std::uint64_t begin, std::span<const double> delay,
              std::span<const double> leak);

  bool healthy() const;
  std::uint64_t records_appended() const;

 private:
  struct Impl;
  explicit CheckpointWriter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace statleak
