/// \file checkpoint.hpp
/// \brief Durable checkpoint/resume for the statistical optimizer: a CRC
///        journal of committed decisions with bit-identical replay.
///
/// The paper's dual-Vth + sizing loop is a deterministic greedy search:
/// given the implementation state, the candidate scan, the trial and the
/// accept verdict of every iteration are pure functions (pinned across
/// engines and thread counts by tests/opt_trajectory_test.cpp).
/// The full optimizer state is NOT cheap to snapshot — lock masks, round
/// counters, the boost loop's best-seen snapshot, the recover phase's tried
/// set all live on the stack — but it does not need to be: journaling the
/// *decision sequence* is enough. On resume the optimizer re-runs the
/// identical control flow; at each scan site it pops the next journal
/// record instead of scanning (the scan is the expensive part), re-executes
/// the trial/commit/rollback to rebuild the engine caches, recomputes the
/// accept verdict and verifies it against the record. Hidden state rebuilds
/// itself; when the journal runs dry mid-loop the run switches to live
/// scanning + appending in place — a deadline-expired or killed run is
/// simply a journal prefix, and the resumed trajectory and final
/// implementation are bit-identical to an uninterrupted run.
///
/// Container: the generic two-phase-commit journal of util/journal.hpp
/// ("SLOP" magic). Record kinds:
///
///   kOptMoveRecord (24-byte payload)
///     phase      u8    kSizing / kAssign / kRecover
///     kind       u8    OptMoveKind (kNone = the scan found no candidate)
///     accepted   u8    accept verdict of the trial
///     pad        u8
///     iteration  u32   OptResult::iterations at the scan (cross-check)
///     gate       u32   target gate (kInvalidGate for kNone)
///     step       u32   phase-1 payload: target size-step index
///     new_size   f64   phase-2 payload: downsize target
///   kOptSnapshotRecord
///     num_gates  u64   then per-gate vth (u8 each) and size (f64 each)
///   kOptCompleteRecord (32-byte payload)
///     iterations, sizing, hvt, downsize, rejected   i32 each
///     feasible   u8 + 3 pad
///     final_objective  f64
///
/// Snapshots are periodic integrity cross-checks (verified wherever they
/// are encountered during replay), appended every OptConfig::
/// checkpoint_every committed moves and at completion; they are NOT replay
/// state, so the cadence may differ between the producing and the resuming
/// run. A journal ending in kOptCompleteRecord replays fully and appends
/// nothing — re-running a finished journal is a cheap no-op verification.
/// Any replay/journal disagreement — wrong phase or iteration at a scan
/// site, a different accept verdict, a snapshot that does not match the
/// rebuilt implementation — is a structured CheckpointError (CLI exit 5),
/// as are all file-level corruption classes (see util/journal.hpp).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "opt/config.hpp"
#include "tech/variation.hpp"
#include "util/journal.hpp"

namespace statleak {

inline constexpr std::uint32_t kOptCheckpointMagic = 0x504F4C53u;  // "SLOP"
inline constexpr std::uint32_t kOptCheckpointVersion = 1;

/// Journal record kinds of the optimizer checkpoint format.
inline constexpr std::uint32_t kOptMoveRecord = 0;
inline constexpr std::uint32_t kOptSnapshotRecord = 1;
inline constexpr std::uint32_t kOptCompleteRecord = 2;

/// The journal format tag of optimizer journal files.
inline constexpr JournalFormat opt_checkpoint_format() {
  return JournalFormat{kOptCheckpointMagic, kOptCheckpointVersion};
}

/// The optimizer phase a journaled decision belongs to.
enum class OptPhase : std::uint8_t {
  kSizing = 0,
  kAssign = 1,
  kRecover = 2,
};

/// What a journaled scan decided to do.
enum class OptMoveKind : std::uint8_t {
  kNone = 0,          ///< scan found no candidate (the phase's exit move)
  kUpsize = 1,        ///< phase-1 sizing move
  kHvt = 2,           ///< phase-2 high-Vth swap
  kDownsize = 3,      ///< phase-2 downsize
  kRecoverLvt = 4,    ///< phase-3 low-Vth restore
  kRecoverUpsize = 5, ///< phase-3 upsize
};

/// Fingerprint of everything that pins the optimization trajectory: the
/// seed, the constraint/objective config (delay target, yield target,
/// leakage percentile, iteration cap, assignment rounds), the circuit
/// topology (kinds, fanins, outputs — NOT the implementation point, which
/// the optimizer resets on entry), the cell library's size grid and the
/// process node's physical constants, and the variation model. The thread
/// count, deadline and snapshot cadence are deliberately excluded — the
/// trajectory is invariant to all of them, so a journal written by an
/// 8-thread run resumes under a single-thread run and vice versa.
std::uint64_t opt_checkpoint_hash(const Circuit& circuit,
                                  const CellLibrary& lib,
                                  const VariationModel& var,
                                  const OptConfig& config);

/// The outcome a replayed scan hands back to the optimizer in place of a
/// live candidate scan.
struct OptScanOutcome {
  OptMoveKind kind = OptMoveKind::kNone;
  GateId gate = kInvalidGate;
  std::uint32_t step = 0;
  double new_size = 0.0;
};

/// The statistical optimizer's journal session: loads/creates the file at
/// construction, serves replay at scan sites, appends live decisions and
/// snapshots once the replayed prefix is exhausted. One instance per
/// optimizer run; not thread-safe (commits are serial by design).
class OptJournal {
 public:
  /// Opens `path`. An existing non-empty file is validated against
  /// `config_hash` and the gate count and replayed; otherwise a fresh
  /// journal is created. Throws CheckpointError on mismatch or corruption.
  OptJournal(std::string path, std::uint64_t config_hash,
             const Circuit& circuit, int checkpoint_every);
  ~OptJournal();
  OptJournal(const OptJournal&) = delete;
  OptJournal& operator=(const OptJournal&) = delete;

  /// True while committed records remain to be replayed.
  bool replaying() const;
  /// True when the journal held any committed records at open (i.e. this
  /// run is a resume).
  bool resumed() const { return resumed_; }

  /// Serves the scan outcome of the next committed record, verifying the
  /// phase/iteration cross-checks. Returns false when the journal is
  /// exhausted — the caller scans live. A successful replay_scan MUST be
  /// confirmed by record_decision / record_no_candidate for the same site.
  bool replay_scan(OptPhase phase, int iteration, OptScanOutcome& out);

  /// Reports one scan decision (accepted or rejected) after it was applied.
  /// Live: appends a move record, plus a snapshot every `checkpoint_every`
  /// committed moves. Replay: verifies the pending record matches.
  void record_decision(OptPhase phase, int iteration, OptMoveKind kind,
                       GateId gate, std::uint32_t step, double new_size,
                       bool accepted, const Circuit& circuit);

  /// Reports a scan that found no candidate (the phase's exit).
  void record_no_candidate(OptPhase phase, int iteration,
                           const Circuit& circuit);

  /// Reports schedule completion: appends a final snapshot + completion
  /// record (live) or verifies them (replay). Deadline-stopped runs do not
  /// call this — their journal stays a resumable prefix.
  void record_complete(const OptResult& result, const Circuit& circuit);

  // ------------------------------------------------------------ counters --
  /// Committed decisions replayed instead of re-scored.
  std::int64_t moves_replayed() const { return moves_replayed_; }
  /// Records (moves + snapshots + completion) durably appended this run.
  std::int64_t records_appended() const;
  /// Snapshot records appended this run.
  std::int64_t snapshots_appended() const { return snapshots_appended_; }
  /// False after an I/O failure or injected short write killed the writer
  /// (appends are silently dropped from then on, like a dead process).
  bool healthy() const;

 private:
  struct MoveRecord;
  [[noreturn]] void diverge(const std::string& why) const;
  MoveRecord decode_move(const JournalRecord& rec) const;
  void verify_snapshot(const JournalRecord& rec,
                       const Circuit& circuit) const;
  /// Consumes + verifies any snapshot records at the replay cursor.
  void consume_snapshots(const Circuit& circuit);
  void append_move(OptPhase phase, int iteration, OptMoveKind kind,
                   GateId gate, std::uint32_t step, double new_size,
                   bool accepted);
  void append_snapshot(const Circuit& circuit);

  std::string path_;
  std::vector<JournalRecord> records_;  ///< committed records at open
  std::size_t next_ = 0;                ///< replay cursor into records_
  bool pending_ = false;  ///< replay_scan served, confirmation outstanding
  bool resumed_ = false;
  std::unique_ptr<JournalWriter> writer_;
  int checkpoint_every_ = 256;
  std::int64_t commits_ = 0;  ///< accepted moves (cadence counter)
  std::int64_t moves_replayed_ = 0;
  std::int64_t snapshots_appended_ = 0;
};

}  // namespace statleak
