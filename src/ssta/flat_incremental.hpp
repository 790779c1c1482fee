/// \file flat_incremental.hpp
/// \brief Flat-SoA incremental SSTA engine on a FlatCircuit snapshot — the
///        statistical optimizer's timing engine.
///
/// Same analysis and same bits as the full-pass reference analyzer
/// SstaEngine (ssta.hpp), but incremental: the engine caches per-gate
/// arrivals and fanin win weights, implementation changes are reported
/// through on_resize() / on_vth_change(), and the next query re-propagates
/// only the levelized fanout cone of the dirty gates, stopping early where a
/// recomputed arrival is bit-identical to its cached value. Because each
/// gate's iterated Clark MAX is a deterministic function of its fanin
/// arrivals and the gate's own parameters, and cones are re-propagated in
/// the same topological order a full pass would use, every query returns
/// values bit-identical to a from-scratch SstaEngine (pinned by
/// tests/ssta_incremental_test.cpp).
///
/// The trial API serves the optimizer's tentative-apply/reject pattern:
/// begin_trial() starts an undo log; queries and notifications work as
/// usual; rollback_trial() restores every cached value the trial touched in
/// O(touched). The caller restores the circuit's own size/Vth fields (the
/// engine only reads the circuit). commit_trial() keeps the new state and
/// drops the log.
///
/// Layout: the engine walks the FlatCircuit CSR adjacency and stores every
/// per-fanin win weight in one flat array aligned with the CSR fanin slots,
/// so a trial undo entry is a memcpy of a fixed slice, never an allocation.
///
/// Own-delay cache: only the moved gate and its fanin drivers change delay
/// on a move, so the engine recomputes the canonical own delay eagerly at
/// notification time — O(moved gates) per move — and cone retiming reuses
/// the cached value. The cached value comes from the same shared
/// canonical_gate_delay() helper the reference analyzer calls (ssta/
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
/// Criticality is refreshed by a backward pass over the *original* circuit
/// topo order (the accumulation order decides criticality bits, so it must
/// match the reference analyzer's traversal).

#pragma once

#include <cstdint>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "netlist/flat_circuit.hpp"
#include "obs/registry.hpp"
#include "ssta/canonical.hpp"
#include "ssta/ssta.hpp"
#include "sta/loads.hpp"
#include "tech/variation.hpp"

namespace statleak {

/// Flat SoA SSTA engine. Holds references; circuit, library and variation
/// model must outlive it. The circuit's topology must stay frozen;
/// implementation attributes (size, Vth) may change between queries as long
/// as every change is reported via on_resize() / on_vth_change().
class FlatSstaEngine {
 public:
  FlatSstaEngine(const Circuit& circuit, const CellLibrary& lib,
                 const VariationModel& var);

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
  /// incremental state) instead of restoring entry by entry.
  /// The full pass is far dearer than the restore it replaces (a Clark MAX
  /// with erfc/exp per gate against a copy per logged entry), so the cap
  /// only bounds the log tax commit-heavy phases pay on huge cones. Default
  /// max(n/8 + 1024, 16384): about 1 MiB of undo, so circuits up to that
  /// many gates always restore from the log. The setter exists for tests,
  /// which shrink it to force the lost-baseline path on small circuits.
  void set_trial_log_cap(std::size_t cap) { trial_log_cap_ = cap; }
  std::size_t trial_log_cap() const { return trial_log_cap_; }

  /// Attaches an observability registry (nullptr detaches). Shares the
  /// reference analyzer's "ssta.analyze_passes" / "ssta.forward_passes" names
  /// and counts its own layout-specific work under
  /// "ssta.flat_full_passes" / "ssta.flat_incremental_passes" /
  /// "ssta.flat_cone_gates_retimed".
  void attach_observer(obs::Registry* registry) { obs_ = registry; }

  /// Canonical delay of one gate, recomputed from the live circuit (same
  /// definition as the cached value used during retiming).
  Canonical gate_delay(GateId id) const;

  /// Full analysis with criticality (copy).
  SstaResult analyze() const;
  /// Full analysis with criticality, no copy (the optimizer's view).
  const SstaResult& analyze_ref() const;
  /// Forward-only analysis: circuit-delay canonical without criticality.
  Canonical circuit_delay() const;

  /// The frozen topology snapshot the engine runs on (for callers that
  /// want to share the CSR arrays, e.g. batched move pricing).
  const FlatCircuit& flat() const { return flat_; }

 private:
  struct ArrivalUndo {
    GateId id = kInvalidGate;
    Canonical arrival;
    std::uint32_t win_off = 0;  ///< into win_undo_; length = fanin count
  };
  struct LoadUndo {
    GateId id = kInvalidGate;
    double load_ff = 0.0;
  };
  struct DelayUndo {
    GateId id = kInvalidGate;
    Canonical delay;
  };

  /// Sentinel for out_dirty_min_ when no output arrival is pending replay.
  static constexpr std::uint32_t kNoDirty = 0xFFFFFFFFu;

  void mark_dirty(GateId id);
  void refresh_own_delay(GateId id) const;
  void log_own_delay(GateId id) const;
  void flush() const;
  void full_pass() const;
  bool retime_gate(GateId id, bool& state_changed) const;
  void replay_output_chain() const;
  void refresh_sink_weights() const;
  void refresh_criticality() const;
  void log_arrival(GateId id) const;
  void clear_pending() const;

  const Circuit& circuit_;
  const CellLibrary& lib_;
  const VariationModel& var_;
  LoadCache loads_;
  FlatCircuit flat_;
  /// Original Circuit::topo_order() — NOT flat_.topo (which re-buckets by
  /// level): the criticality backward pass accumulates in traversal order,
  /// so bit-identity with the reference analyzer requires the same order.
  std::vector<GateId> topo_;
  std::vector<int> level_;      ///< per-gate logic level
  std::vector<char> is_output_; ///< per-gate primary-output flag
  obs::Registry* obs_ = nullptr;

  mutable SstaResult state_;
  mutable std::vector<double> win_;  ///< CSR win weights (fanin-slot aligned)
  mutable std::vector<double> sink_weights_;
  mutable std::vector<Canonical> own_delay_;  ///< cached canonical delays
  mutable bool primed_ = false;
  mutable bool crit_primed_ = false;

  // Output-max replay chain: out_prefix_[i] is the running Clark-chain
  // value after folding outputs[0..i], out_tight_[i] the tightness of the
  // fold step that consumed outputs[i] (index 0 unused). The inclusive
  // dirty window [out_dirty_min_, out_dirty_max_] names the outputs whose
  // arrivals changed since the chain was last replayed; outside a dirty
  // window the cached suffix is bit-exact. sink_weights_ is derived from
  // out_tight_ lazily — weights_stale_ marks it pending.
  std::vector<std::uint32_t> out_pos_;  ///< gate -> index into flat_.outputs
  mutable std::vector<Canonical> out_prefix_;
  mutable std::vector<double> out_tight_;
  mutable std::uint32_t out_dirty_min_ = kNoDirty;
  mutable std::uint32_t out_dirty_max_ = 0;
  mutable bool weights_stale_ = true;

  mutable std::vector<GateId> pending_;
  mutable std::vector<char> queued_;
  mutable std::vector<std::vector<GateId>> buckets_;  ///< scratch, by level

  mutable std::vector<Canonical> operands_;       ///< retime scratch
  mutable std::vector<double> weights_scratch_;   ///< max fanin degree

  bool trial_active_ = false;
  std::size_t trial_log_cap_ = 0;  ///< set in the constructor
  mutable bool trial_lost_baseline_ = false;
  mutable std::vector<ArrivalUndo> arrival_undo_;
  mutable std::vector<double> win_undo_;  ///< flat saved win-weight slices
  mutable std::vector<LoadUndo> load_undo_;
  mutable std::vector<DelayUndo> delay_undo_;
  mutable std::vector<char> touched_;  ///< 1: arrival, 2: load, 4: own delay
  mutable std::vector<GateId> touched_list_;
  mutable std::vector<GateId> trial_pending_;
  mutable Canonical trial_out_max_;
  mutable std::vector<double> trial_sink_weights_;
  mutable bool trial_primed_ = false;
  mutable bool trial_crit_primed_ = false;
  mutable bool trial_crit_overwritten_ = false;
  /// Copy-on-replay save of the output chain: the prefix/tightness arrays
  /// are snapshotted at most once per trial, the first time a replay would
  /// overwrite them, so trials that never touch an output arrival pay
  /// nothing for chain restore.
  mutable bool trial_chain_saved_ = false;
  mutable std::vector<Canonical> trial_out_prefix_;
  mutable std::vector<double> trial_out_tight_;
  mutable std::uint32_t trial_out_dirty_min_ = kNoDirty;
  mutable std::uint32_t trial_out_dirty_max_ = 0;
  mutable bool trial_weights_stale_ = true;
};

}  // namespace statleak
