/// \file batch_score.hpp
/// \brief The statistical optimizer's move-pricing scans.
///
/// The statistical optimizer's scoring scans price every legal move against
/// the same committed state (scoring is read-only; commits are serial). They
/// read the circuit's kind, Vth and size arrays, the load cache and the
/// leakage analyzer's committed moments in place; the optimizer reports
/// each implementation change, a rollback's restore included, through
/// on_resize() and on_vth_change(), the pair FlatSstaEngine takes. A scan
/// touches flat arrays instead of the one-gate-at-a-time reference walk of
/// tests/batch_score_test.cpp (a Gate view, a binary size-step search and
/// several library calls per gate).
///
/// The phase-1 (sizing) scan is one pass per worker over its gate shard.
/// Each legal upsizing move (non-input gate at or above the criticality
/// floor, a next size step, not locked) is priced in place: own-delay gain
/// from the DelayTerms decomposition, hypothetical leak moments at the
/// target size, the Wilkinson quantile of the totals with the move, score.
/// Each worker keeps the serial argmax rule "first strictly-greater score
/// wins, gates ascending"; shard winners are reduced in shard order, which
/// reproduces the serial winner exactly for every thread count.
///
/// The phase-2 (assignment) scan is lazy instead (CELF-style, Leskovec et
/// al. 2007). A gate's two moves (HVT swap, one-step downsize) depend only
/// on its implementation, its output load and its committed leak moments,
/// which change for O(1) gates per commit. So four PERSISTENT dense slot
/// lanes (slot 2g = HVT swap of gate g, 2g+1 = downsize) hold what every
/// re-key reads: legality, own-delay increase, and the leak mean and
/// variance deltas. A notification queues the gate (a resize also its fanin
/// drivers, whose loads changed) and the next assign scan rebuilds its
/// lanes; the rest of a move (committed and hypothetical moments, downsize
/// target) is read or recomputed where it is used. On top of the lanes the
/// scorer keeps a per-slot KEY, a proven upper bound on the slot's score up
/// to one per-scan factor r (see best_assign), and the maximum key of every
/// 64-slot block. A scan re-keys only the slots whose inputs moved: rebuilt
/// lanes and changed lock bytes, found by a byte diff against copies the
/// scorer keeps, and changed criticality, read from the SSTA engine's
/// change feed (ssta/flat_incremental.hpp). Keys see criticality only
/// through max(crit, crit_floor), so only a change of that clamped value
/// re-keys a slot. The scan then seeds a threshold with the exact score of
/// the max-key slot, and walks blocks and slots in slot order, exact-
/// scoring only those whose r * key can reach the threshold. Every slot
/// that could attain the maximum score is visited, so the expression DAG
/// per candidate and the serial first-attainer rule are untouched and
/// every score stays bit-identical to the reference scan; the scan is
/// serial, so thread count cannot change it.
///
/// Bit contract: both scans price a move through the same two helpers
/// (own_delay(), moved_moments()) and LeakDeltaPricer::quantile_na() on
/// LeakageAnalyzer::cached_moments(), the expression sequence of
/// LeakageAnalyzer::quantile_if_na(). Their terms are the exact
/// subexpressions of the reference scan (CellLibrary::delay_terms(),
/// leak_unit_na(), LeakageModel factors) in the same association order, so
/// the candidate chosen — gate, move and score bits — is the reference
/// scan's (pinned scan by scan by tests/batch_score_test.cpp, and end to
/// end by the trajectory goldens of tests/opt_trajectory_test.cpp across
/// thread counts). With Pelgrom width scaling enabled the hypothetical
/// moments come from LeakageModel::gate_moments() — the same function the
/// reference scan prices through.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cells/library.hpp"
#include "leakage/leakage.hpp"
#include "netlist/circuit.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/loads.hpp"
#include "util/parallel.hpp"

namespace statleak {

/// One scored move candidate; the optimizer's argmax unit.
struct MoveCandidate {
  double score = 0.0;
  GateId gate = kInvalidGate;
  std::size_t step = 0;   ///< phase-1 payload: target size step
  bool to_hvt = false;    ///< phase-2 payload: Vth swap vs downsize
  double new_size = 0.0;  ///< phase-2 payload: downsize target
};

class BatchScorer {
 public:
  /// The circuit, the leakage analyzer and the load cache must outlive the
  /// scorer, which reads them in place.
  BatchScorer(const CellLibrary& lib, const LeakageAnalyzer& leak,
              const Circuit& circuit, const LoadCache& loads,
              ThreadPool& pool);

  /// Call after gate `id` changed size (a rollback's restore included):
  /// refreshes its size step and queues its slots and its fanin drivers'
  /// (whose loads changed) for rebuild.
  void on_resize(GateId id);
  /// Call after gate `id` changed threshold class: queues its slots for
  /// rebuild.
  void on_vth_change(GateId id);

  /// Phase-1 scan: best criticality-weighted upsizing move.
  /// Candidate filter and score are the reference scan's, bit for bit.
  MoveCandidate best_sizing(std::span<const double> criticality,
                            std::span<const std::uint64_t> locked,
                            double q_now, double pct, double crit_floor,
                            double gain_eps);

  /// Phase-2 scan: best HVT swap or downsize move. `changed` names the
  /// gates whose criticality may have moved since the previous assign scan
  /// (the engine's feed, or "all", which diffs every gate).
  MoveCandidate best_assign(std::span<const double> criticality,
                            CriticalityChanges changed,
                            std::span<const unsigned char> locked,
                            double q_now, double pct, double crit_floor,
                            double eps);

  /// Scoring-scan counters since construction: one "pass" per best_* call;
  /// blocks() counts candidates priced in groups of up to 64 — the sizing
  /// scan's legal candidates, the assign scan's live slots — once per scan,
  /// so it does not depend on the thread count.
  std::int64_t passes() const { return passes_; }
  std::int64_t blocks() const { return blocks_; }
  /// Live assign-phase candidates discharged by the key bound without
  /// evaluating the exact Wilkinson quantile. Skips never change the
  /// argmax — the bound is a proven over-estimate of the exact score.
  std::int64_t pruned() const { return pruned_; }

  /// Assign-scan bookkeeping since construction.
  struct AssignStats {
    std::int64_t rekeys = 0;        ///< slot keys recomputed
    std::int64_t full_rekeys = 0;   ///< scans that re-keyed every slot
    std::int64_t full_diffs = 0;    ///< scans that diffed every gate's
                                    ///< criticality (the feed read "all")
    std::int64_t drift_rekeys = 0;  ///< ... because r passed 1 + 1e-3
    std::int64_t exact = 0;         ///< exact quantiles evaluated
    std::int64_t unbounded = 0;     ///< scans run with the bound off
  };
  const AssignStats& assign_stats() const { return stats_; }

  /// Test access to the key bound of the last assign scan: every live slot
  /// with a finite key scores at most key_ratio() * key * (1 + 1e-6).
  /// key_ratio() is 0 after a scan that ran with the bound off.
  double key_ratio() const { return key_ratio_; }
  std::span<const double> slot_keys() const { return key_; }
  /// Test access: per gate, max(criticality, floor) as the keys last saw
  /// it; after a bounded scan it equals the scanned criticality's clamp.
  std::span<const double> keyed_criticality() const { return crit_seen_; }

 private:
  /// Per-scan constants of the assign-phase benefit bound
  /// benefit <= p * dm + q * dv (see assign_bound()).
  struct AssignBound {
    bool ok = false;  ///< bound usable on this scan
    double p = 0.0;
    double q = 0.0;
  };
  AssignBound assign_bound(const LeakDeltaPricer& pricer, double q_now) const;
  /// Smallest r with p <= r * p0_ and q <= r * q0_.
  double key_drift(const AssignBound& bound) const;

  /// Index into terms_/leak_unit_ of gate `id`'s kind at `vth`.
  std::size_t term_index(GateId id, Vth vth) const;
  /// Own mean delay of gate `id` at `vth` and `size`, driving its current
  /// load: the exact delay_ps() decomposition (CellLibrary::DelayTerms).
  double own_delay(GateId id, Vth vth, double size) const;
  /// Leak moments of gate `id` at `vth` and `size`: nominal x the model's
  /// factors, or gate_moments() under Pelgrom width scaling — the
  /// reference scan's expressions.
  GateLeakMoments moved_moments(GateId id, Vth vth, double size) const;

  /// The gate's Vth and size after slot `s`'s move (only for a live slot).
  struct SlotMove {
    Vth vth;
    double size;
  };
  SlotMove slot_move(std::size_t s) const;
  /// Hypothetical leak moments of slot `s`'s move.
  GateLeakMoments slot_moments(std::size_t s) const;
  /// dm^2 + (om + nmean) * dm of slot `s` (cf-free excess of its pairwise
  /// variance term; see assign_bound()).
  double slot_vexb(std::size_t s) const;

  /// Recomputes the persistent per-slot lanes of one gate's two assign
  /// moves from the circuit, loads and committed leak moments, and grows
  /// the key rectangle's maxima to cover them.
  void rebuild_gate_slots(GateId id);
  /// Drains the dirty-gate queue through rebuild_gate_slots (serial; called
  /// at the top of every assign scan). The gates stay flagged until their
  /// slots are re-keyed.
  void rebuild_dirty_slots();
  void mark_dirty(GateId id);

  /// Key of one slot under the stored p0_/q0_: -inf for a dead or locked
  /// slot, +inf for a live one outside the bound (dm < 0 or dv < 0).
  /// `crit` may come clamped to floor_seen_: the key clamps it again, which
  /// keeps its bits.
  double slot_key(std::size_t s, double crit, unsigned char lock) const;
  /// Re-keys one gate's two slots and keeps live_slots_ and the block
  /// maximum current. Returns true when a maximal key fell: the caller then
  /// recomputes the block maximum with refresh_block().
  bool rekey_gate(GateId id, double crit, unsigned char lock);
  void refresh_block(std::size_t b);
  /// Re-keys the gates whose lanes, lock byte or clamped criticality
  /// changed since the keys were built: the listed gates of `changed`, or
  /// every gate when it reads "all". Stops with false once more than n/8
  /// did (the caller then re-keys everything).
  bool patch_keys(std::span<const double> criticality,
                  const CriticalityChanges& changed,
                  std::span<const unsigned char> locked);
  /// Recomputes the rectangle maxima over every legal slot with dm, dv >= 0.
  void recompute_maxima();
  /// Re-keys every slot under `bound`, which becomes p0_/q0_.
  void rekey_all(const AssignBound& bound,
                 std::span<const double> criticality,
                 std::span<const unsigned char> locked, double crit_floor,
                 double eps);

  const CellLibrary& lib_;
  const LeakageAnalyzer& leak_;
  const Circuit& circuit_;
  // The circuit's implementation, by GateId.
  std::span<const CellKind> kind_;
  std::span<const Vth> vth_;
  std::span<const double> size_;
  std::span<const double> loads_;
  ThreadPool& pool_;
  std::span<const double> steps_;
  bool pelgrom_ = false;
  double mean_factor_ = 1.0;
  double var_factor_ = 0.0;  ///< m2_factor - mean_factor^2

  /// Delay terms per (kind, vth): index = kind * 2 + (vth == kHigh).
  std::vector<CellLibrary::DelayTerms> terms_;
  std::vector<double> leak_unit_;  ///< same indexing

  std::vector<std::size_t> step_;  ///< size step of size_[g]

  // Persistent assign-move slot lanes (index by slot = 2 * gate + kind,
  // kind 0 = HVT swap, 1 = one-step downsize — the serial candidate order):
  // what a re-key reads. Rebuilt per gate after on_resize()/on_vth_change()
  // queued it; read-only during scans.
  std::vector<std::uint8_t> sl_alive_;  ///< structurally legal move
  std::vector<double> sl_dd_;           ///< own-delay increase of the move
  /// Committed minus hypothetical leak mean and variance.
  std::vector<double> sl_dm_, sl_dv_;
  std::vector<GateId> dirty_;             ///< gates queued for rebuild
  /// Rebuilt or queued, not re-keyed (patch_keys also flags the listed
  /// gates whose clamped criticality moved).
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<GateId> rekey_;  ///< patch_keys scratch: gates to re-key

  // Lazy assign-scan keys (see best_assign).
  std::vector<double> key_;   ///< per slot
  std::vector<double> bmax_;  ///< max key per 64-slot block
  std::vector<double> crit_seen_;  ///< max(crit, floor_seen_) keyed from
  std::vector<unsigned char> lock_seen_;  ///< lock bytes keyed from
  double floor_seen_ = 0.0, eps_seen_ = 0.0;
  double p0_ = 0.0, q0_ = 0.0;  ///< bound constants the keys carry
  /// Over-estimated maxima of dm, dv and vexb over legal slots with dm,
  /// dv >= 0: they grow on rebuild and are recomputed at a full re-key.
  double dm_hi_ = 0.0, dv_hi_ = 0.0, vexb_hi_ = 0.0;
  std::int64_t live_slots_ = 0;  ///< slots with key > -inf
  bool keyed_ = false;
  double key_ratio_ = 0.0;

  /// One sizing-scan shard's winner and legal-candidate count.
  struct Shard {
    MoveCandidate best;
    std::int64_t legal = 0;
  };
  std::vector<Shard> shards_;
  std::int64_t passes_ = 0;
  std::int64_t blocks_ = 0;
  std::int64_t pruned_ = 0;
  AssignStats stats_;
};

}  // namespace statleak
