/// \file flat_incremental.hpp
/// \brief Block-based statistical static timing analysis on a FlatCircuit
///        snapshot: the one SSTA engine, one-shot or incremental.
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
/// Layout: the engine walks the FlatCircuit CSR adjacency and stores every
/// per-fanin win weight in one flat array aligned with the CSR fanin slots,
/// so a trial undo entry is a memcpy of a fixed slice, never an allocation.
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
/// Dirty sets: both walks keep their dirty gates in one bitset over
/// positions in flat_.topo, which is level-major. The cone retime walks it
/// upward (a fanout always sits at a higher position); the criticality walk
/// walks it downward (a fanin always sits at a lower one).
///
/// Incremental criticality: the reference builds criticality with a
/// scatter over the *original* circuit topo order, and that order decides
/// the bits. For any one gate the scatter's sum is a fixed sequence: 0.0,
/// then its sink weight if it is an output, then crit[c] * win[slot] for
/// each consumer edge, consumers in decreasing topo position, pins
/// ascending, consumers of criticality 0 skipped. The engine stores those
/// consumer edges per gate in that order, so a gather over them reproduces
/// the scatter's bits. Criticality depends only on the win weights and the
/// sink weights, so after a retime the values that can move are the fanins
/// of gates whose win weights changed (recorded by the retime) and the
/// outputs whose sink weight changed bitwise. The refresh seeds those into
/// the dirty set and walks it from the deepest level down, stopping where a
/// recomputed value equals the cached one bitwise. Priming, lost trial
/// baselines and dense updates (more than n/8 seeds) keep the full scatter,
/// which is cheaper per gate than the gather.

#pragma once

#include <cstdint>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "netlist/flat_circuit.hpp"
#include "obs/registry.hpp"
#include "ssta/canonical.hpp"
#include "sta/loads.hpp"
#include "tech/variation.hpp"

namespace statleak {

/// Result of one SSTA pass.
struct SstaResult {
  std::vector<Canonical> arrival;  ///< per gate
  Canonical circuit_delay;         ///< max over primary outputs
  std::vector<double> criticality; ///< per gate, in [0, 1]; sums to ~1 per cut

  /// Timing yield P(D <= t_max) under the Gaussian circuit-delay model.
  double yield(double t_max_ps) const { return circuit_delay.cdf(t_max_ps); }
  /// Delay at the given yield (quantile of the circuit delay).
  double delay_at_yield_ps(double eta) const {
    return circuit_delay.quantile(eta);
  }
};

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

  /// Attaches an observability registry (nullptr detaches). Counts queries
  /// under "ssta.analyze_passes" / "ssta.forward_passes" and its work under
  /// "ssta.flat_full_passes" / "ssta.flat_incremental_passes" /
  /// "ssta.flat_cone_gates_retimed" and "ssta.crit_walks" /
  /// "ssta.crit_full_passes" / "ssta.crit_updates". Phase timers
  /// "ssta.retime" and "ssta.criticality" time each retime and criticality
  /// refresh call.
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
  struct ConsumerEdge {
    GateId gate = kInvalidGate;  ///< consumer
    std::uint32_t slot = 0;      ///< its fanin slot (index into win_)
  };

  /// Sentinel for out_dirty_min_ when no output arrival is pending replay.
  static constexpr std::uint32_t kNoDirty = 0xFFFFFFFFu;

  void mark_dirty(GateId id);
  void refresh_own_delay(GateId id) const;
  void log_own_delay(GateId id) const;
  void flush() const;
  void full_pass() const;
  bool retime_gate(GateId id) const;
  void replay_output_chain() const;
  void refresh_sink_weights() const;
  void refresh_criticality() const;
  void scatter_criticality() const;
  void walk_criticality() const;
  void log_arrival(GateId id) const;
  void clear_pending() const;
  bool is_dirty(GateId id) const {
    return (dirty_[pos_[id] >> 6] >> (pos_[id] & 63) & 1) != 0;
  }
  /// Sets `id`'s dirty bit; returns its word index.
  std::size_t set_dirty(GateId id) const {
    const std::uint32_t p = pos_[id];
    dirty_[p >> 6] |= std::uint64_t{1} << (p & 63);
    return p >> 6;
  }

  const Circuit& circuit_;
  const CellLibrary& lib_;
  const VariationModel& var_;
  LoadCache loads_;
  FlatCircuit flat_;
  /// Original Circuit::topo_order() — NOT flat_.topo (which re-buckets by
  /// level): the criticality scatter accumulates in traversal order, so
  /// bit-identity with the reference requires the same order.
  std::vector<GateId> topo_;
  std::vector<std::uint32_t> pos_;  ///< gate -> position in flat_.topo
  std::vector<char> is_output_;     ///< per-gate primary-output flag
  /// Consumer edges of gate g: cons_[cons_offset_[g] .. cons_offset_[g + 1])
  /// in the scatter's addition order (see the file comment).
  std::vector<std::uint32_t> cons_offset_;
  std::vector<ConsumerEdge> cons_;
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

  /// Dirty bits by flat_.topo position. Between walks they are set exactly
  /// for the gates in pending_; each walk leaves them all clear.
  mutable std::vector<std::uint64_t> dirty_;
  mutable std::vector<GateId> pending_;

  // Incremental criticality. The criticality array is exact for the win
  // weights and crit_sink_ it was last built from; crit_seeds_ lists every
  // gate whose win weights changed since (with repeats). crit_primed_ false
  // means the next refresh scatters.
  mutable std::vector<GateId> crit_seeds_;
  mutable std::vector<double> crit_sink_;
  std::size_t dense_seeds_ = 0;  ///< n/8: more seeds than this scatter

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
  mutable std::uint32_t trial_out_dirty_min_ = kNoDirty;
  mutable std::uint32_t trial_out_dirty_max_ = 0;
  mutable bool trial_weights_stale_ = true;
};

}  // namespace statleak
