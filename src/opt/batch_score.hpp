/// \file batch_score.hpp
/// \brief Candidate-batched move pricing on the FlatCircuit snapshot.
///
/// The statistical optimizer's scoring scans price every legal move against
/// the same committed state (scoring is read-only; commits are serial), so
/// the scan is embarrassingly parallel per candidate AND restructurable:
/// instead of a one-gate-at-a-time walk through the AoS Gate graph — a
/// Gate-struct dereference, a binary size-step search and several
/// virtual-free-but-cold library calls per gate; tests/batch_score_test.cpp
/// keeps that walk as the reference scan — the batched scorer works SoA:
///
///   1. a filter pass over flat mirror arrays (vth/size/step per gate,
///      maintained by the optimizer through set_impl()) collects the legal
///      candidates of the worker's gate shard into SoA candidate arrays,
///      gathering every per-candidate input (load, delay terms, leak-unit
///      currents, cached "old" leak moments) into contiguous lanes;
///   2. blocks of K candidates are priced in staged gate-major passes:
///      pure-arithmetic stages (delay completion, leak-moment completion,
///      final score) carry STATLEAK_VEC_LOOP hints, while the one stage
///      with transcendental calls (the Wilkinson lognormal quantile) stays
///      a scalar loop over dense lanes — vectorized libm would break the
///      bit contract;
///   3. each worker keeps the serial argmax rule "first strictly-greater
///      score wins, candidates in (gate ascending, HVT before downsize)
///      order"; shard winners are reduced in shard order, reproducing the
///      serial winner exactly for every thread count and block size.
///
/// The phase-2 (assignment) scan goes one step further: a gate's two
/// possible moves (HVT swap, one-step downsize) depend only on its own
/// implementation, its output load and its committed leak moments, all of
/// which change for O(1) gates per commit. The scorer therefore keeps the
/// full stage-1/stage-2 output — move delay delta, hypothetical moments,
/// moment deltas — in PERSISTENT dense slot lanes (slot 2g = HVT swap of
/// gate g, slot 2g+1 = downsize), rebuilt lazily for the gates set_impl()
/// dirtied (a resize also dirties the resized gate's fanin drivers, whose
/// loads changed). A scan then reduces to: compact the live unlocked slots
/// of the shard (one u32 per candidate instead of a 13-lane gather), run
/// the vectorized benefit-bound passes over the compact list, and exact-
/// score the few survivors — the expression DAG per candidate is untouched,
/// only the evaluation time of its invariant prefix moves from scan to
/// rebuild, so every score stays bit-identical to the reference scan.
///
/// Bit contract: every stage completes a decomposed expression whose terms
/// are the exact subexpressions of the reference scan (CellLibrary::
/// delay_terms(), leak_unit_na(), LeakageModel factors, LeakDeltaPricer) in
/// the same association order, so the candidate chosen — gate, move and
/// score bits — is the reference scan's (pinned scan by scan by
/// tests/batch_score_test.cpp, and end to end by the trajectory goldens of
/// tests/opt_trajectory_test.cpp across thread counts and block sizes).
/// With Pelgrom width scaling enabled the leak-moment stage falls back to
/// per-candidate LeakageModel::gate_moments() calls — the same function
/// the reference scan prices through.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cells/library.hpp"
#include "leakage/leakage.hpp"
#include "netlist/flat_circuit.hpp"
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
  /// `block` is the candidate-block size K (>= 1). The flat snapshot and
  /// load cache must outlive the scorer; mirrors are seeded from the
  /// snapshot (taken at the optimizer's reset point).
  BatchScorer(const CellLibrary& lib, const LeakageAnalyzer& leak,
              const FlatCircuit& flat, const LoadCache& loads,
              ThreadPool& pool, std::size_t block);

  /// Reports one gate's implementation change into the mirror arrays.
  /// Every mutation of the circuit during the run must be reported (the
  /// optimizer routes all of them through here).
  void set_impl(GateId id, Vth vth, double size);

  /// Phase-1 scan: best criticality-weighted upsizing move.
  /// Candidate filter and score are the reference scan's, bit for bit.
  MoveCandidate best_sizing(std::span<const double> criticality,
                            std::span<const std::uint64_t> locked,
                            double q_now, double pct, double crit_floor,
                            double gain_eps);

  /// Phase-2 scan: best HVT swap or downsize move.
  MoveCandidate best_assign(std::span<const double> criticality,
                            std::span<const unsigned char> locked,
                            double q_now, double pct, double crit_floor,
                            double eps);

  /// Scoring-scan counters since construction (one "pass" per best_* call;
  /// blocks of up to K candidates actually priced).
  std::int64_t passes() const { return passes_; }
  std::int64_t blocks() const { return blocks_; }
  /// Assign-phase candidates discharged by the quantile-free upper bound
  /// (see price_slots_assign) without evaluating the exact Wilkinson
  /// quantile. Skips never change the argmax — the bound is a proven
  /// over-estimate of the exact score.
  std::int64_t pruned() const { return pruned_; }

 private:
  struct Worker {
    // SoA candidate lanes (phase-1 filter-pass output, gathered contiguous).
    std::vector<GateId> gate;
    std::vector<std::size_t> tgt_step;
    std::vector<double> load;
    std::vector<double> cur_size;
    std::vector<double> tgt_size;
    std::vector<double> intr_now, idr_now;  ///< current-impl delay terms
    std::vector<double> leak_unit_tgt;
    std::vector<double> old_mean, old_var;  ///< committed leak moments
    std::vector<double> crit;
    // Phase-1 stage arrays, sized to one block and reused per block.
    std::vector<double> delta;
    std::vector<double> new_mean, new_var;
    // Phase-2 compact scan state: live unlocked slot ids of the shard in
    // serial candidate order, plus per-candidate scratch for the benefit
    // upper bound (sized to the compact count each scan).
    std::vector<std::uint32_t> slot;
    std::vector<double> dm, dvub;  ///< guarded mean delta / variance-drop ub
    std::vector<double> bound;     ///< benefit upper bound
    std::int64_t blocks = 0;
    void clear();
  };

  /// Per-scan constants for the assign-phase benefit upper bound: Lipschitz
  /// constants of the Wilkinson lognormal quantile q(m, v) = m * exp(z *
  /// sqrt(L) - L / 2), L = ln(1 + v / m^2), over the moment rectangle any
  /// guarded candidate move can reach. Derivation in price_blocks_assign.
  struct AssignPrune {
    bool usable = false;
    double anchor = 0.0;  ///< max(0, q_now - q(m0, v0)), inflated
    double half_m = 0.0;  ///< 0.5 * m0: candidate mean-delta guard
    double half_v = 0.0;  ///< 0.5 * v0: candidate variance-delta guard
    double quarter_v = 0.0;  ///< 0.25 * v0: variance-excess guard
    double cf = 0.0;         ///< pairwise covariance factor
    double cf2m = 0.0;       ///< cf * 2 * m0
    double m0 = 0.0;         ///< committed total leak mean
    double v0 = 0.0;         ///< committed total leak variance (incl. pairwise)
    double z = 0.0;          ///< normal deviate of the scored percentile
  };
  static AssignPrune make_assign_prune(const LeakDeltaPricer& pricer,
                                       double q_now);

  void price_blocks_sizing(Worker& w, const LeakDeltaPricer& pricer,
                           double q_now, double crit_floor, double gain_eps,
                           MoveCandidate& local) const;
  void price_slots_assign(Worker& w, const LeakDeltaPricer& pricer,
                          const AssignPrune& prune,
                          std::span<const double> criticality, double q_now,
                          double crit_floor, double eps, MoveCandidate& local,
                          std::int64_t& pruned) const;

  /// Recomputes the persistent per-slot lanes of one gate's two assign
  /// moves from the current mirrors, loads and committed leak moments.
  void rebuild_gate_slots(GateId id);
  /// Drains the dirty-gate queue through rebuild_gate_slots (serial; called
  /// at the top of every assign scan).
  void rebuild_dirty_slots();
  void mark_dirty(GateId id);

  const CellLibrary& lib_;
  const LeakageAnalyzer& leak_;
  const FlatCircuit& flat_;
  std::span<const double> loads_;
  ThreadPool& pool_;
  std::size_t block_;
  std::span<const double> steps_;
  bool pelgrom_ = false;
  double mean_factor_ = 1.0;
  double var_factor_ = 0.0;  ///< m2_factor - mean_factor^2

  /// Delay terms per (kind, vth): index = kind * 2 + (vth == kHigh).
  std::vector<CellLibrary::DelayTerms> terms_;
  std::vector<double> leak_unit_;  ///< same indexing

  // Mutable implementation mirrors (index by GateId).
  std::vector<Vth> vth_;
  std::vector<double> size_;
  std::vector<std::size_t> step_;

  // Persistent assign-move slot lanes (index by slot = 2 * gate + kind,
  // kind 0 = HVT swap, 1 = one-step downsize — the serial candidate order).
  // Rebuilt per gate on set_impl() dirtying; read-only during scans.
  std::vector<std::uint8_t> sl_alive_;  ///< structurally legal move
  std::vector<double> sl_dd_;           ///< own-delay increase of the move
  std::vector<double> sl_nmean_, sl_nvar_;  ///< hypothetical leak moments
  std::vector<double> sl_om_, sl_ov_;       ///< committed leak moments
  std::vector<double> sl_dm_, sl_dv_;       ///< om - nmean, ov - nvar
  std::vector<double> sl_vexb_;  ///< dm^2 + (om + nmean) * dm (cf-free)
  std::vector<double> sl_tgt_;   ///< downsize target size
  std::vector<GateId> dirty_;
  std::vector<std::uint8_t> dirty_flag_;

  std::vector<Worker> workers_;
  std::vector<MoveCandidate> shard_best_;
  std::vector<std::int64_t> shard_pruned_;
  std::int64_t passes_ = 0;
  std::int64_t blocks_ = 0;
  std::int64_t pruned_ = 0;
};

}  // namespace statleak
