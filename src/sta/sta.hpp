/// \file sta.hpp
/// \brief Deterministic static timing: one-shot critical-delay queries.
///
/// Forward PERT traversal over the gate DAG in one of two evaluation modes:
///
///   * nominal — library delays at zero variation,
///   * corner  — every gate shifted by the same k-sigma worst-case
///               (dL, dVth) excursion (the guard-band baseline the
///               deterministic optimizer uses).
///
/// Required times and slacks are the deterministic sizer's job: see the
/// incremental CornerTimer (opt/corner_timer.hpp). Per-sample timing (each
/// gate with its own (dL, dVth) draw) is the Monte-Carlo engine's: see
/// BatchDelayKernel (sta/batch_delay.hpp). The full-pass reference with
/// required times, slacks and critical-path extraction is the test oracle
/// tests/graph_oracle.hpp.

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
};

/// Deterministic critical-delay queries over a circuit with loads cached at
/// construction. The engine holds references: circuit and library must
/// outlive it. Vth changes are seen by the next query; size changes need a
/// new engine (the loads would be stale).
class StaEngine {
 public:
  StaEngine(const Circuit& circuit, const CellLibrary& lib);

  const LoadCache& loads() const { return loads_; }

  /// Nominal critical delay: max arrival over the primary outputs.
  double critical_delay_ps() const;

  /// Critical delay with every gate at the same k-sigma slow corner of the
  /// variation model (both dL and dVth pushed k standard deviations slow).
  double corner_delay_ps(const VariationModel& var, double k_sigma) const;

 private:
  template <typename DelayFn>
  double max_arrival_ps(DelayFn&& delay) const;

  const Circuit& circuit_;
  const CellLibrary& lib_;
  LoadCache loads_;
};

}  // namespace statleak
