/// \file loads.hpp
/// \brief Output-load computation shared by STA, SSTA and Monte Carlo.
///
/// The load seen by a gate's output is wire capacitance (fixed + per-fanout)
/// plus the input-pin capacitance of every receiver. Primary outputs
/// additionally drive a fixed external load modeling the flop/pad they feed.
/// Loads depend on receiver sizes but not on Vth or process variation, so a
/// LoadCache can be computed once and patched incrementally when the
/// optimizer resizes a gate.

#pragma once

#include <span>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"

namespace statleak {

/// External load on primary outputs, in multiples of a unit-inverter pin cap.
inline constexpr double kPrimaryOutputLoadFactor = 4.0;

/// Load [fF] on the output net of `id`, computed from scratch.
double output_load_ff(const Circuit& circuit, const CellLibrary& lib,
                      GateId id);

/// Per-gate output loads with incremental update on resize.
class LoadCache {
 public:
  LoadCache(const Circuit& circuit, const CellLibrary& lib);

  /// Call after `resized` changed size: updates the loads of its fanin
  /// drivers (the only loads that depend on a gate's own size).
  void on_resize(GateId resized);

  /// Writes one cached load back verbatim. Used by the incremental SSTA
  /// engines' trial rollback, which saved the value with load_ff() before a
  /// tentative resize; never recomputes anything.
  void restore_load(GateId id, double load_ff);

  double load_ff(GateId id) const { return loads_[id]; }
  std::span<const double> loads() const { return loads_; }

 private:
  const Circuit& circuit_;
  const CellLibrary& lib_;
  std::vector<double> loads_;
};

}  // namespace statleak
