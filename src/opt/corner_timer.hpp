/// \file corner_timer.hpp
/// \brief Cached corner timing for the deterministic sizer.
///
/// The deterministic optimizer evaluates every gate at one fixed process
/// corner (dL, dVth). Its greedy loop needs, per iteration, a full corner
/// STA plus, for every candidate, the gate's delay one size step up, at HVT
/// or one size step down, and the upsizing penalty its fanin drivers pay.
/// Each of those is an alpha-power `CellLibrary::delay_ps` call, and almost
/// none of their inputs change from one iteration to the next.
///
/// CornerTimer owns the implementation mutations of the circuit it times
/// and keeps, per gate:
///
///   - the current corner delay,
///   - the delay one size step up, at HVT, and one size step down,
///   - the upsizing penalty: the sum over fanin drivers, in pin order, of
///     (driver delay at load + pin-cap delta - current driver delay).
///
/// Every value is produced by the exact library call the uncached sizer
/// made, and every entry is recomputed whenever any of its inputs changed,
/// so reading the cache gives the same bits as recomputing from scratch.
/// Entries are invalidated by the mutators and rebuilt lazily on read:
///
///   - set_vth(g): g's delays, and the penalties of g's fanouts;
///   - set_size_step(g): g's delays and penalty; the delays of g's fanin
///     drivers (their loads changed); the penalties of g's fanouts; and the
///     penalties of every fanout of those drivers (the drivers' loads and
///     delays feed them).
///
/// analyze() and critical_delay_ps() are incremental, like FlatSstaEngine,
/// and walk the same graph: the circuit's topo ranks, with a RankSet
/// (util/rank_set.hpp) per walk:
///
///   - a mutator that invalidates a gate's current delay inserts the gate
///     into the forward set and its fanin drivers into the backward set
///     (the delay enters only their required times);
///   - the forward walk drains its set upward by rank, rebuilding a stale
///     delay where it meets one, and inserts a gate's fanouts only where
///     its recomputed arrival differs bitwise from the cached one;
///   - the backward walk (analyze() only) drains its set downward, re-mins
///     each required time and inserts the fanins of the gates whose
///     required time moved, with the same bitwise cutoff;
///   - a gate whose arrival or required time moved, forward-only walks
///     included, joins the slack set, which analyze() drains last.
///
/// Construction seeds every cell into the forward walk, and an analyze()
/// whose target differs from the previous one seeds every gate into the
/// backward walk, so a full pass is the same walk with every gate dirty.
/// Each recomputed value uses the max/min/slack expression of the full-pass
/// reference in tests/graph_oracle.hpp; max and min of finite values are
/// exact, so the visiting order does not matter and the arrivals, required
/// times and slacks equal the reference's corner pass bit for bit (pinned by
/// corner_timer_test). The sets hold ranks; every per-gate value (delays,
/// entries, steps, and the StaResult arrays) stays indexed by GateId, so the
/// sizer's candidate scan reads them directly. The walks read those values
/// through the by-id CSR and insert through the rank-space one.
///
/// A non-finite current delay raises NumericalError when it is computed:
/// the max/min passes would otherwise drop a NaN and return a plausible
/// slack. The gate stays stale and in the forward set, so the next query
/// throws again. A NaN or -inf target raises NumericalError too and leaves
/// the backward walk unprimed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "sta/loads.hpp"
#include "sta/sta.hpp"
#include "util/rank_set.hpp"

namespace statleak {

class CornerTimer {
 public:
  /// Times `circuit` at the corner (dl_nm, dvth_v) applied to every gate.
  /// Holds references: circuit and library must outlive the timer, and
  /// every size/Vth change of the circuit must go through the mutators
  /// below while the timer is in use.
  CornerTimer(Circuit& circuit, const CellLibrary& lib, double dl_nm,
              double dvth_v);

  // ----------------------------------------------------------- mutators --
  /// Sets gate `id` to library size step `step`.
  void set_size_step(GateId id, std::size_t step);
  /// Sets the threshold class of gate `id`.
  void set_vth(GateId id, Vth vth);

  /// Library size step of gate `id` (nearest grid step of its size).
  std::size_t step(GateId id) const { return step_[id]; }

  // ------------------------------------------------------------ queries --
  /// Corner timing against `t_max_ps`: arrivals, required times and
  /// slacks. The reference stays valid until the next analyze() or
  /// critical_delay_ps() call.
  const StaResult& analyze(double t_max_ps);
  /// Forward walk only: the corner critical delay.
  double critical_delay_ps();

  /// Current corner delay of gate `id` (0 for primary inputs).
  double delay_ps(GateId id) {
    return (stale_[id] & kNow) != 0 ? rebuild_now(id) : now_[id];
  }
  /// Delay of `id` one size step up, at its current Vth and load. Requires
  /// step(id) + 1 < number of size steps.
  double delay_up_ps(GateId id);
  /// Delay of `id` at HVT, at its current size and load.
  double delay_hvt_ps(GateId id);
  /// Delay of `id` one size step down. Requires step(id) > 0.
  double delay_down_ps(GateId id);
  /// Summed delay increase of `id`'s fanin drivers if `id` moved one size
  /// step up. Requires step(id) + 1 < number of size steps.
  double upsize_penalty_ps(GateId id);

  /// Since construction: queries answered (analyze() and
  /// critical_delay_ps() calls), library delay evaluations made, and gates
  /// whose arrival or required time a walk recomputed.
  std::uint64_t sta_passes() const { return sta_passes_; }
  std::uint64_t delay_evals() const { return delay_evals_; }
  std::uint64_t arrival_updates() const { return arrival_updates_; }
  std::uint64_t required_updates() const { return required_updates_; }

 private:
  // The current delays are read by every pass, so they get their own
  // array; the alternatives are read only by candidate scans.
  struct Entry {
    double up = 0.0;
    double hvt = 0.0;
    double down = 0.0;
    double penalty = 0.0;
  };
  // Stale bits per entry field.
  static constexpr unsigned char kNow = 1;
  static constexpr unsigned char kUp = 2;
  static constexpr unsigned char kHvt = 4;
  static constexpr unsigned char kDown = 8;
  static constexpr unsigned char kPenalty = 16;
  static constexpr unsigned char kDelays = kNow | kUp | kHvt | kDown;

  /// Marks fields of the gate at rank `r` stale; a stale current delay
  /// also seeds the walks.
  void invalidate(std::uint32_t r, unsigned char bits);
  double eval(const Gate& g, Vth vth, double size, double load_ff);
  double rebuild_now(GateId id);
  void forward();
  void backward(double t_max_ps);
  Circuit& circuit_;
  const CellLibrary& lib_;
  const double dl_nm_;
  const double dvth_v_;
  LoadCache loads_;
  // The circuit's graph: the walks read values through the by-id CSR and
  // insert into their sets through the rank-space one.
  const Csr& fanin_;
  const Csr& fanout_;
  const Csr& rank_fanin_;
  const Csr& rank_fanout_;
  std::span<const GateId> topo_;         ///< rank -> GateId
  std::span<const std::uint32_t> rank_;  ///< GateId -> rank
  /// Ranks [0, num_inputs_) are the primary inputs.
  std::uint32_t num_inputs_ = 0;

  std::vector<std::size_t> step_;
  std::vector<double> now_;
  std::vector<Entry> entry_;
  std::vector<unsigned char> stale_;
  StaResult result_;

  /// Required times before the +inf -> t_max clamp: what the
  /// backward walk propagates. result_.required_ps holds the clamped ones.
  std::vector<double> req_raw_;
  /// Arrival to recompute: a stale delay, or a fanin's arrival moved.
  RankSet forward_;
  /// Required time to recompute: a fanout's delay was invalidated since the
  /// last backward walk, or its required time moved.
  RankSet backward_;
  /// Arrival or required time moved since the last slack refresh.
  RankSet slack_dirty_;
  bool backward_primed_ = false;
  double backward_target_ps_ = 0.0;

  std::uint64_t sta_passes_ = 0;
  std::uint64_t delay_evals_ = 0;
  std::uint64_t arrival_updates_ = 0;
  std::uint64_t required_updates_ = 0;
};

}  // namespace statleak
