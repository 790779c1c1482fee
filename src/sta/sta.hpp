/// \file sta.hpp
/// \brief Deterministic static timing analysis.
///
/// Classic PERT traversal over the gate DAG: arrival times forward, required
/// times backward, slack per gate, critical-path extraction. Supports two
/// evaluation modes:
///
///   * nominal       — library delays at zero variation,
///   * corner        — every gate shifted by the same k-sigma worst-case
///                     (dL, dVth) excursion (the guard-band baseline the
///                     deterministic optimizer uses).
///
/// Per-sample timing (each gate with its own (dL, dVth) draw) is the
/// Monte-Carlo engine's job: see BatchDelayKernel (sta/batch_delay.hpp).

#pragma once

#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "sta/loads.hpp"
#include "tech/variation.hpp"

namespace statleak {

/// Result of a full deterministic timing pass.
struct StaResult {
  std::vector<double> arrival_ps;   ///< per gate
  std::vector<double> required_ps;  ///< per gate, w.r.t. the given t_max
  std::vector<double> slack_ps;     ///< required - arrival
  double critical_delay_ps = 0.0;   ///< max arrival over primary outputs

  /// Worst slack over all gates.
  double worst_slack_ps() const;
};

/// Deterministic STA over a circuit with cached loads. The engine holds
/// references: circuit and library must outlive it. After a gate's size
/// changes, call on_resize(); Vth changes need no load update. Every pass
/// re-evaluates every gate delay; the deterministic sizer times on the
/// cached CornerTimer (opt/corner_timer.hpp), which this engine's
/// analyze_corner() is the bitwise reference of.
class StaEngine {
 public:
  StaEngine(const Circuit& circuit, const CellLibrary& lib);

  const LoadCache& loads() const { return loads_; }
  void on_resize(GateId id) { loads_.on_resize(id); }

  /// Nominal delay of one gate (pseudo-inputs have zero delay).
  double gate_delay_ps(GateId id) const;

  /// Gate delay at a global k-sigma corner of the variation model (both dL
  /// and dVth pushed k standard deviations slow).
  double gate_delay_corner_ps(GateId id, const VariationModel& var,
                              double k_sigma) const;

  /// Full nominal analysis against a delay target.
  StaResult analyze(double t_max_ps) const;

  /// Full corner analysis: all gates at the same k-sigma slow excursion.
  StaResult analyze_corner(double t_max_ps, const VariationModel& var,
                           double k_sigma) const;

  /// Nominal critical delay only (no required/slack computation).
  double critical_delay_ps() const;

  /// Gates of the nominal critical path, input to output.
  std::vector<GateId> critical_path() const;

 private:
  template <typename DelayFn>
  StaResult analyze_impl(double t_max_ps, DelayFn&& delay) const;

  const Circuit& circuit_;
  const CellLibrary& lib_;
  LoadCache loads_;
};

}  // namespace statleak
