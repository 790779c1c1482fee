/// \file deterministic.hpp
/// \brief Baseline: deterministic dual-Vth assignment + sizing.
///
/// The flow the DAC'04 paper compares against — leakage optimization at a
/// single process corner (nominal, or a k-sigma guard-banded corner):
///
///   Phase 1 (sizing up):  TILOS-style greedy upsizing until the corner
///     delay meets t_max. Candidates are negative-slack gates; the score is
///     path-delay reduction per unit of added leakage.
///   Phase 2 (assignment): greedy Vth swaps and downsizing. Each move slows
///     only the moved gate, so a move is safe iff its own delay increase
///     fits inside the gate's corner slack; the best
///     leakage-saving-per-slack-consumed move is committed until none fits.
///
/// Both phases time on a CornerTimer (opt/corner_timer.hpp), which caches
/// every gate's corner delays, re-evaluates a library delay only when one
/// of its inputs changed, and re-times only the cones of the delays that
/// changed; the trajectory is the same as re-timing the whole circuit every
/// iteration, bit for bit.
///
/// Everything here is evaluated at the chosen corner. What happens to this
/// solution *under the real process distribution* — the yield loss and
/// leakage tail the statistical optimizer avoids — is exactly experiment T3.

#pragma once

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "opt/config.hpp"
#include "tech/variation.hpp"

namespace statleak {

class DeterministicOptimizer {
 public:
  /// `var` is consulted only when config.corner_k_sigma > 0 (guard-band).
  DeterministicOptimizer(const CellLibrary& lib, const VariationModel& var,
                         OptConfig config);

  /// Optimizes the implementation attributes (size, Vth) of `circuit`
  /// in place, starting from the all-LVT minimum-size point.
  ///
  /// With an observability registry attached the run records phase wall
  /// times ("det.sizing" / "det.assign"), commit/rejection counters under
  /// "det.*", the timer's work ("det.sta_passes", "det.delay_evals",
  /// "det.arrival_updates", "det.required_updates"; added once per run),
  /// and one "det" trace event per loop iteration (exactly
  /// OptResult::iterations events; the yield field stays 0 — a corner flow
  /// has no yield model). Results are bit-identical with and without a
  /// registry attached.
  OptResult run(Circuit& circuit, obs::Registry* obs = nullptr) const;

  const OptConfig& config() const { return config_; }

 private:
  const CellLibrary& lib_;
  const VariationModel& var_;
  OptConfig config_;
};

}  // namespace statleak
