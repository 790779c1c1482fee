/// \file flat_incremental.hpp
/// \brief Block-based statistical static timing analysis on a Circuit's
///        rank-space graph: the one SSTA engine, one-shot or incremental.
///
/// Forward PERT traversal propagating canonical forms: at each gate, the
/// fanin arrivals are combined with iterated Clark MAX (recording per-fanin
/// "win" probabilities), then the gate's own canonical delay is added. The
/// circuit delay is the Clark MAX over all primary outputs. A backward pass
/// turns the recorded win probabilities into per-gate criticality — the
/// probability mass of critical paths through each gate — which the
/// statistical optimizer uses to price timing cost.
///
/// One-shot callers (metrics, estimators, benches) construct an engine and
/// query it once. The statistical optimizer keeps one alive and reports
/// implementation changes through on_resize() / on_vth_change(); the next
/// query re-propagates only the levelized fanout cone of the dirty gates,
/// stopping early where a recomputed arrival is bit-identical to its cached
/// value. Because each gate's iterated Clark MAX is a deterministic function
/// of its fanin arrivals and the gate's own parameters, and cones are
/// re-propagated in the same topological order a full pass would use, every
/// query returns values bit-identical to a from-scratch full pass — the
/// plain full-pass reference in tests/graph_oracle.hpp (pinned by
/// tests/ssta_incremental_test.cpp).
///
/// The trial API serves the optimizer's tentative-apply/reject pattern:
/// begin_trial() starts an undo log; queries and notifications work as
/// usual; rollback_trial() restores every cached value the trial touched in
/// O(touched). The caller restores the circuit's own size/Vth fields (the
/// engine only reads the circuit). commit_trial() keeps the new state and
/// drops the log.
///
/// Layout: every per-gate array is indexed by topo rank, the gate's
/// position in Circuit::topo_order(): arrivals, own delays, criticality,
/// the dirty bitset and the undo logs. The rank-space fanin and fanout CSR
/// and the GateId -> rank map are the circuit's own (built once by
/// Circuit::finalize(); the engine holds views of them). The consumer-edge
/// CSR is the engine's, in rank space too, and every per-fanin win weight
/// sits in one flat array aligned with the rank-CSR fanin slots, so a trial
/// undo entry is a memcpy of a fixed slice, never an allocation.
/// A fanin always has a lower rank than its gate, so the cone retime, the
/// full pass, the criticality scatter and the criticality walk all stream
/// through memory in rank order. The primary inputs are the leading ranks
/// (Kahn's order starts with the fanin-free gates, and only inputs have no
/// fanins); the constructor checks that once, so no walk tests a gate for
/// being an input or for having fanins. The output arrivals also live in
/// one contiguous array in output order, written by the retime and restored
/// by a rollback, so the output chain replay streams as well.
///
/// GateIds appear only at the API edge: on_resize() and on_vth_change() map
/// an id to its rank, analyze() alone materialises arrivals by GateId, and
/// the criticality the optimizer reads is published by GateId (the scatter
/// publishes every entry, a walk only the entries it rewrote).
///
/// Own-delay cache: only the moved gate and its fanin drivers change delay
/// on a move, so the engine recomputes the canonical own delay eagerly at
/// notification time — O(moved gates) per move — and cone retiming reuses
/// the cached value. The cached value comes from the same shared
/// canonical_gate_delay() helper the reference calls (ssta/
/// delay_model.hpp), and a gate's own delay is a deterministic function of
/// its (kind, vth, size, load), so every arrival keeps the reference bits.
///
/// Output-max replay chain: instead of re-folding the Clark max over *all*
/// primary outputs (and re-running the O(outputs^2) win-weight cascade)
/// whenever any output arrival moved, the engine caches the running chain
/// value and per-step tightness for every prefix of the output fold,
/// replays only from the first output whose arrival changed, stops as soon
/// as the recomputed prefix converges bitwise with the cached one, and
/// defers the weight cascade until criticality is actually queried.
/// Combined with the saturating Clark max (ssta/delay_model.hpp), which
/// skips the erfc/exp calls when one operand statistically dominates, the
/// replayed chain still produces the reference bits: the fold order,
/// expression shapes, and tightness values are identical — only redundant
/// work is elided.
///
/// Dirty sets: both walks keep their dirty gates in one RankSet
/// (util/rank_set.hpp). The cone retime takes it upward (a fanout always
/// has a higher rank); the criticality walk drains it downward (a fanin
/// always has a lower one). Any topological order visits the same dirty set
/// and computes each gate from final operands, so the walk order decides no
/// bit and no counter.
///
/// Lane-parallel cone retime: the retime takes the dirty ranks in windows.
/// A window closes before the lowest fanout rank of any gate in it
/// (first_fanout_), so no member feeds another and every fanout a member
/// inserts lies above the window: each member's fanin arrivals are final
/// when the window opens. Two-input gates fill one eight-lane queue, gates
/// of three and four inputs another, and a full queue runs the eight-lane
/// fold (ssta/clark_lanes.hpp), whose lanes equal the scalar fold bit for
/// bit. One-input gates, and queues left with fewer than kMinLanes gates at
/// the end of a window, take the scalar fold. Each result is applied as
/// soon as its batch is done, with the same compare, undo log, criticality
/// seed and fanout insert as a one-by-one drain. Within a window that order
/// decides nothing: the members' arrivals and weights are disjoint, a
/// fanout lands above the window whoever inserts it, and the undo log, the
/// seeds and the output window are sets whose contents do not depend on the
/// order (the log cap trips at the same count). So no bit and no counter
/// depends on the windows.
///
/// Undo log per trial: a trial starts without one when the previous trial
/// wrote more arrivals than trial_log_cap() (its log overflowed, or would
/// have). Such a trial has lost its baseline from the start, so its
/// rollback reprimes with a full pass, exactly like a trial that overflows
/// the log on its own; it just skips logging a cone that is most likely too
/// big to restore entry by entry anyway.
///
/// Incremental criticality: the reference builds criticality with a
/// scatter in reverse Circuit::topo_order() — decreasing rank — and that
/// order decides the bits. For any one gate the scatter's sum is a fixed
/// sequence: 0.0, then its sink weight if it is an output, then
/// crit[c] * win[slot] for each consumer edge, consumers in decreasing
/// rank, pins ascending, consumers of criticality 0 skipped. The engine
/// stores those consumer edges per gate in that order, so a gather over
/// them reproduces the scatter's bits. Criticality depends only on the win
/// weights and the sink weights, so after a retime the values that can
/// move are the fanins of gates whose win weights changed (recorded by the
/// retime) and the outputs whose sink weight changed bitwise. The refresh
/// seeds those into the dirty set and walks it from the highest rank down,
/// stopping where a recomputed value equals the cached one bitwise.
/// Priming, lost trial baselines and dense updates (more than n/8 seeds)
/// keep the full scatter, which is cheaper per gate than the walk: a walk
/// update costs about 3.5 scattered gates (47 against 13.8 ns on a
/// 10^5-gate circuit). So a walk pays only while it recomputes fewer than
/// n/3.5 gates. A sparse refresh predicts its walk's size from its seed
/// count times the last walk's updates per seed, and scatters when the
/// prediction passes that cutover. The choice decides no bit: the walk
/// and the scatter leave the same values.
///
/// Criticality change feed: the engine lists the GateIds whose published
/// criticality a walk rewrote (a walk writes only entries whose bits
/// changed), so a consumer that mirrors the published array can catch up
/// in O(what moved) instead of diffing every gate. A scatter, or a list
/// grown past the walk cutover (n/3.5 entries, the most one walk is meant
/// to recompute), turns the feed into "all". The consumer clears
/// it once it has caught up. Rollbacks need no entry of their own: a
/// rollback never writes the published array, and one that follows an
/// in-trial refresh leaves criticality unprimed, so the next refresh
/// scatters.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "ssta/canonical.hpp"
#include "ssta/clark_lanes.hpp"
#include "sta/loads.hpp"
#include "tech/variation.hpp"
#include "util/rank_set.hpp"
#include "util/simd.hpp"

namespace statleak {

/// Result of one SSTA pass.
struct SstaResult {
  /// Per gate. FlatSstaEngine::analyze() fills it; analyze_ref() leaves it
  /// empty.
  std::vector<Canonical> arrival;
  Canonical circuit_delay;         ///< max over primary outputs
  std::vector<double> criticality; ///< per gate, in [0, 1]; sums to ~1 per cut

  /// Timing yield P(D <= t_max) under the Gaussian circuit-delay model.
  double yield(double t_max_ps) const { return circuit_delay.cdf(t_max_ps); }
  /// Delay at the given yield (quantile of the circuit delay).
  double delay_at_yield_ps(double eta) const {
    return circuit_delay.quantile(eta);
  }
};

/// The gates whose published criticality may have changed bitwise since the
/// feed was last cleared: every gate when `all` is set, else exactly those
/// listed (repeats allowed). See the file comment.
struct CriticalityChanges {
  bool all = true;
  std::span<const GateId> gates;
};

/// Flat SoA SSTA engine. Holds references; circuit, library and variation
/// model must outlive it. The circuit's topology must stay frozen;
/// implementation attributes (size, Vth) may change between queries as long
/// as every change is reported via on_resize() / on_vth_change().
class FlatSstaEngine {
 public:
  /// `isa` picks the variant of the cone retime's eight-lane Clark kernel
  /// (ssta/clark_lanes.hpp); kAvx512 falls back to kBaseline on a host
  /// without AVX-512. Both give the same bits.
  FlatSstaEngine(const Circuit& circuit, const CellLibrary& lib,
                 const VariationModel& var, SimdIsa isa = host_simd_isa());

  /// Call after gate `id` changed size: patches the load cache, refreshes
  /// the own-delay cache of `id` and its fanin drivers, and marks them
  /// dirty.
  void on_resize(GateId id);

  /// Call after gate `id` changed threshold class: refreshes its own-delay
  /// cache and marks it dirty.
  void on_vth_change(GateId id);

  const LoadCache& loads() const { return loads_; }

  // ------------------------------------------------------------- trials --
  void begin_trial();
  void commit_trial();
  void rollback_trial();
  bool trial_active() const { return trial_active_; }

  /// Caps the per-trial arrival-undo log. A trial whose dirty cone logs
  /// more arrivals than the cap stops logging and marks its baseline lost:
  /// a rollback then reprimes with a full pass (bit-identical to the
  /// incremental state) instead of restoring entry by entry. The trial
  /// after one that wrote more arrivals than the cap starts with its
  /// baseline already lost and logs nothing.
  /// The full pass is far dearer than the restore it replaces (a Clark MAX
  /// with erfc/exp per gate against a copy per logged entry), so the cap
  /// only bounds the log tax commit-heavy phases pay on huge cones. Default
  /// max(n/8 + 1024, 16384): about 1 MiB of undo, so circuits up to that
  /// many gates always restore from the log. The setter exists for tests,
  /// which shrink it to force the lost-baseline path on small circuits.
  void set_trial_log_cap(std::size_t cap) { trial_log_cap_ = cap; }
  std::size_t trial_log_cap() const { return trial_log_cap_; }

  /// Attaches an observability registry (nullptr detaches). Counts queries
  /// under "ssta.analyze_passes" / "ssta.forward_passes" and its work under
  /// "ssta.flat_full_passes" / "ssta.flat_incremental_passes" /
  /// "ssta.flat_cone_gates_retimed" and "ssta.crit_walks" /
  /// "ssta.crit_full_passes" / "ssta.crit_updates", and trials begun
  /// without an undo log under "ssta.unlogged_trials". Phase timers
  /// "ssta.retime" and "ssta.criticality" time each retime and criticality
  /// refresh call.
  void attach_observer(obs::Registry* registry) { obs_ = registry; }

  /// Canonical delay of one gate, recomputed from the live circuit (same
  /// definition as the cached value used during retiming).
  Canonical gate_delay(GateId id) const;

  /// Full analysis with criticality and per-gate arrivals (copy).
  SstaResult analyze() const;
  /// Circuit delay and per-gate criticality, no copy (the optimizer's
  /// view). The arrival vector is left empty.
  const SstaResult& analyze_ref() const;
  /// Forward-only analysis: circuit-delay canonical without criticality.
  Canonical circuit_delay() const;

  /// The criticality change feed since the last clear (see the file
  /// comment). A fresh engine's feed reads "all".
  CriticalityChanges criticality_changes() const {
    return {crit_changed_all_, crit_changed_};
  }
  void clear_criticality_changes() {
    crit_changed_all_ = false;
    crit_changed_.clear();
  }

 private:
  struct ArrivalUndo {
    std::uint32_t rank = 0;
    std::uint32_t win_off = 0;  ///< into win_undo_; length = fanin count
    Canonical arrival;
  };
  struct LoadUndo {
    GateId id = kInvalidGate;
    double load_ff = 0.0;
  };
  struct DelayUndo {
    std::uint32_t rank = 0;
    Canonical delay;
  };
  struct ConsumerEdge {
    std::uint32_t rank = 0;  ///< consumer
    std::uint32_t slot = 0;  ///< its fanin slot (index into win_)
  };

  /// Sentinel for out_dirty_min_ when no output arrival is pending replay,
  /// and for out_index_ at a gate that is not a primary output.
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  void mark_dirty(std::uint32_t r);
  void refresh_own_delay(std::uint32_t r) const;
  void log_own_delay(std::uint32_t r) const;
  void flush() const;
  void full_pass() const;
  Canonical fold_fanins(std::uint32_t r, double* w) const;
  /// Writes a recomputed arrival and its fanin weights back (logging the
  /// old ones in a trial). Returns whether the arrival changed bitwise.
  bool apply_retime(std::uint32_t r, const Canonical& fresh,
                    const double* w) const;
  /// Eight gates of one cone-retime window, gathered for clark_fold_x8.
  struct LaneQueue {
    CanonicalLanes ops[kLaneMaxFanins];
    CanonicalLanes delay;
    std::int64_t deg[8];
    std::uint32_t rank[8];
    std::uint32_t slots = 0;  ///< operand slots filled per lane
    std::uint32_t lanes = 0;
    std::uint32_t width = 0;  ///< largest deg
  };
  /// A queue of fewer gates than this runs the scalar fold instead.
  static constexpr std::uint32_t kMinLanes = 3;
  /// Adds rank r to `q`; a full queue runs.
  void queue_lane(LaneQueue& q, std::uint32_t r) const;
  /// Folds the queued gates, applies them and empties q.
  void run_lanes(LaneQueue& q) const;
  /// One visited rank of the cone retime: applies its recomputed arrival
  /// and, when it moved, records the output and inserts the fanouts.
  void cone_apply(std::uint32_t r, const Canonical& fresh,
                  const double* w) const;
  void replay_output_chain() const;
  void refresh_sink_weights() const;
  void refresh_criticality() const;
  void scatter_criticality() const;
  /// Returns the number of gates it recomputed.
  std::size_t walk_criticality() const;
  void log_arrival(std::uint32_t r) const;
  void clear_pending() const;
  std::span<const std::uint32_t> fanins(std::uint32_t r) const {
    return {fanin_.data() + fanin_offset_[r],
            fanin_.data() + fanin_offset_[r + 1]};
  }
  std::span<const std::uint32_t> fanouts(std::uint32_t r) const {
    return {fanout_.data() + fanout_offset_[r],
            fanout_.data() + fanout_offset_[r + 1]};
  }

  const Circuit& circuit_;
  const CellLibrary& lib_;
  const VariationModel& var_;
  LoadCache loads_;
  SimdIsa isa_;
  /// Circuit::topo_order(): rank -> GateId. The criticality scatter
  /// accumulates in this order, so bit-identity with the reference rests on
  /// it.
  std::span<const GateId> topo_;
  std::span<const std::uint32_t> rank_;  ///< GateId -> rank
  /// Ranks [0, num_inputs_) are the primary inputs.
  std::uint32_t num_inputs_ = 0;
  /// The circuit's rank-space CSR: fanins of rank r are the ranks
  /// fanin_[fanin_offset_[r] .. fanin_offset_[r + 1]), pin-ordered; fanouts
  /// likewise.
  std::span<const std::uint32_t> fanin_offset_;
  std::span<const std::uint32_t> fanin_;
  std::span<const std::uint32_t> fanout_offset_;
  std::span<const std::uint32_t> fanout_;
  /// Consumer edges of rank r, cons_[fanout_offset_[r] ..
  /// fanout_offset_[r + 1]), in the scatter's addition order (see the file
  /// comment).
  std::vector<ConsumerEdge> cons_;
  /// Rank -> the lowest rank among its fanouts, or kNone: a cone-retime
  /// window closes there.
  std::vector<std::uint32_t> first_fanout_;
  std::vector<std::uint32_t> out_index_;  ///< rank -> output index, or kNone
  std::vector<std::uint32_t> out_rank_;   ///< output index -> rank
  obs::Registry* obs_ = nullptr;

  /// circuit_delay and the by-GateId criticality; arrival stays empty.
  mutable SstaResult state_;
  mutable std::vector<Canonical> arrival_;    ///< by rank
  mutable std::vector<Canonical> own_delay_;  ///< cached canonical delays
  mutable std::vector<double> win_;  ///< CSR win weights (fanin-slot aligned)
  mutable std::vector<double> crit_;  ///< by rank
  mutable std::vector<double> sink_weights_;
  mutable bool primed_ = false;
  mutable bool crit_primed_ = false;

  // Output-max replay chain: out_arrival_[i] is the arrival of output i,
  // out_prefix_[i] the running Clark-chain value after folding
  // outputs[0..i], out_tight_[i] the tightness of the fold step that
  // consumed outputs[i] (index 0 unused). The inclusive dirty window
  // [out_dirty_min_, out_dirty_max_] names the outputs whose arrivals
  // changed since the chain was last replayed; outside a dirty window the
  // cached suffix is bit-exact. sink_weights_ is derived from out_tight_
  // lazily — weights_stale_ marks it pending.
  mutable std::vector<Canonical> out_arrival_;
  mutable std::vector<Canonical> out_prefix_;
  mutable std::vector<double> out_tight_;
  mutable std::uint32_t out_dirty_min_ = kNone;
  mutable std::uint32_t out_dirty_max_ = 0;
  mutable bool weights_stale_ = true;

  /// Dirty ranks. Between walks the set holds exactly the ranks in
  /// pending_; each walk drains it.
  mutable RankSet dirty_;
  mutable std::vector<std::uint32_t> pending_;

  // Incremental criticality. The criticality array is exact for the win
  // weights and crit_sink_ it was last built from; crit_seeds_ lists every
  // rank whose win weights changed since (with repeats). crit_primed_ false
  // means the next refresh scatters.
  mutable std::vector<std::uint32_t> crit_seeds_;
  mutable std::vector<double> crit_sink_;
  std::size_t dense_seeds_ = 0;  ///< n/8: more seeds than this scatter
  /// A walk predicted to recompute more gates than this scatters instead.
  double walk_cutover_ = 0.0;
  /// Gates the last walk recomputed per seed (0 before the first walk).
  mutable double walk_updates_per_seed_ = 0.0;
  /// The change feed: GateIds a walk republished since the last clear, or
  /// every gate once crit_changed_all_ is set.
  mutable std::vector<GateId> crit_changed_;
  mutable bool crit_changed_all_ = true;

  mutable LaneQueue pairs_;   ///< two-input gates
  mutable LaneQueue chains_;  ///< three or more inputs
  // Per flush, for ssta.flat_cone_gates_retimed and ssta.lane_gates.
  mutable std::int64_t cone_visits_ = 0;
  mutable std::int64_t lane_gates_ = 0;

  mutable std::vector<Canonical> operands_;       ///< retime scratch
  mutable std::vector<double> weights_scratch_;   ///< max fanin degree

  bool trial_active_ = false;
  std::size_t trial_log_cap_ = 0;  ///< set in the constructor
  mutable bool trial_lost_baseline_ = false;
  /// Arrivals written by cone retimes during the current trial, and by the
  /// last finished one: the next trial starts unlogged when that exceeds
  /// trial_log_cap_.
  mutable std::size_t trial_writes_ = 0;
  std::size_t last_trial_writes_ = 0;
  mutable std::vector<ArrivalUndo> arrival_undo_;
  mutable std::vector<double> win_undo_;  ///< flat saved win-weight slices
  mutable std::vector<LoadUndo> load_undo_;
  mutable std::vector<DelayUndo> delay_undo_;
  mutable std::vector<char> touched_;  ///< by rank; 1: arrival, 2: load,
                                       ///< 4: own delay
  mutable std::vector<std::uint32_t> touched_list_;
  mutable std::vector<std::uint32_t> trial_pending_;
  mutable Canonical trial_out_max_;
  mutable bool trial_primed_ = false;
  mutable bool trial_crit_primed_ = false;
  /// The criticality array was rebuilt during the trial: a rollback cannot
  /// reuse it.
  mutable bool trial_crit_overwritten_ = false;
  mutable std::size_t trial_crit_seeds_ = 0;  ///< crit_seeds_ length at begin
  /// Copy-on-replay save of the output chain: the prefix/tightness arrays
  /// are snapshotted at most once per trial, the first time a replay would
  /// overwrite them, so trials that never touch an output arrival pay
  /// nothing for chain restore.
  mutable bool trial_chain_saved_ = false;
  mutable std::vector<Canonical> trial_out_prefix_;
  mutable std::vector<double> trial_out_tight_;
  mutable std::uint32_t trial_out_dirty_min_ = kNone;
  mutable std::uint32_t trial_out_dirty_max_ = 0;
  mutable bool trial_weights_stale_ = true;
};

}  // namespace statleak
