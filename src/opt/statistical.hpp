/// \file statistical.hpp
/// \brief The paper's contribution: statistical leakage optimization with
///        dual-Vth assignment and sizing under a timing-yield constraint.
///
/// Minimize Q_p(total leakage)  s.t.  P(delay <= t_max) >= eta,
///
/// where Q_p is a high percentile (default 99th) of the analytic Wilkinson
/// leakage distribution and the yield comes from block-based SSTA.
///
/// Algorithm (greedy sensitivity loop, mirroring the DAC'04 flow):
///
///   Phase 1 (sizing for yield): from the all-LVT minimum-size point,
///     upsize while yield < eta. Candidates are statistically critical
///     gates; the score is criticality-weighted mean-delay reduction per
///     unit of leakage-percentile increase. Every move is applied inside an
///     SSTA trial (a dirty-cone retime, ssta/flat_incremental.hpp) and kept
///     only if the yield rises; harmful moves are rolled back and locked.
///
///   Phase 2 (statistical assignment): candidate moves are LVT->HVT swaps
///     and one-step downsizes. Each move is priced in O(1):
///       benefit = Q_p(now) - Q_p(with move)     [Wilkinson re-fit]
///       cost    = criticality(g) * own mean-delay increase + eps
///     The best-scoring move is applied inside an SSTA trial and accepted
///     iff the retimed yield still meets eta; otherwise rolled back and
///     locked. Locks are cleared between rounds, because accepted downsizes
///     free timing room.
///
/// Moves are priced by the BatchScorer (opt/batch_score.hpp) on the flat
/// SSTA engine's snapshot.
///
///   Phase 3 (yield recovery): if eta is not reachable (or numerical
///     coupling dented it), the most critical gates are reverted to LVT /
///     upsized until yield recovers or moves run out.

#pragma once

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "opt/config.hpp"
#include "tech/variation.hpp"

namespace statleak {

class StatisticalOptimizer {
 public:
  StatisticalOptimizer(const CellLibrary& lib, const VariationModel& var,
                       OptConfig config);

  /// Optimizes the implementation attributes (size, Vth) of `circuit` in
  /// place, starting from the all-LVT minimum-size point.
  ///
  /// With an observability registry attached the run records phase wall
  /// times ("stat.total" / "stat.sizing" / "stat.assign" / "stat.recover",
  /// and "stat.score" for the candidate scans inside sizing and assign),
  /// commit/rejection counters under "stat.*", and one "stat" trace event
  /// per loop iteration (exactly OptResult::iterations events). The
  /// optimization trajectory — and therefore the result — is bit-identical
  /// with and without a registry.
  OptResult run(Circuit& circuit, obs::Registry* obs = nullptr) const;

  const OptConfig& config() const { return config_; }

 private:
  const CellLibrary& lib_;
  const VariationModel& var_;
  OptConfig config_;
};

}  // namespace statleak
