/// \file ssta.hpp
/// \brief Block-based statistical static timing analysis: the full-pass
///        reference analyzer.
///
/// Forward PERT traversal propagating canonical forms: at each gate, the
/// fanin arrivals are combined with iterated Clark MAX (recording per-fanin
/// "win" probabilities), then the gate's own canonical delay is added. The
/// circuit delay is the Clark MAX over all primary outputs. A backward pass
/// turns the recorded win probabilities into per-gate criticality — the
/// probability mass of critical paths through each gate — which the
/// statistical optimizer uses to price timing cost.
///
/// SstaEngine is a one-shot analyzer: metrics, estimators and benches query
/// it once per implementation point, and it is the bitwise reference the
/// optimizer's incremental engine (ssta/flat_incremental.hpp) is tested
/// against. It computes lazily — the first query runs the forward pass (and
/// the first analyze() the criticality pass) and caches the result — so it
/// snapshots the circuit at that query: the load cache is built at
/// construction, and later size/Vth changes are never seen. Construct a new
/// engine to analyze a changed implementation.

#pragma once

#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
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

/// Full-pass SSTA analyzer. Holds references; circuit, library and variation
/// model must outlive it, and the circuit must not change while it is in
/// use (see the file comment).
class SstaEngine {
 public:
  SstaEngine(const Circuit& circuit, const CellLibrary& lib,
             const VariationModel& var);

  const LoadCache& loads() const { return loads_; }

  /// Attaches an observability registry (nullptr detaches). The engine
  /// counts its queries ("ssta.analyze_passes", "ssta.forward_passes") and
  /// the forward passes it actually ran ("ssta.full_passes"); observation
  /// never changes any computed value.
  void attach_observer(obs::Registry* registry) { obs_ = registry; }

  /// Canonical delay of one gate under the variation model.
  Canonical gate_delay(GateId id) const;

  /// Full analysis with criticality (copy of the cached state).
  SstaResult analyze() const;

  /// Like analyze(), without the copy: the reference stays valid until the
  /// engine is destroyed.
  const SstaResult& analyze_ref() const;

  /// Forward-only analysis: circuit-delay canonical without computing
  /// per-gate criticality.
  Canonical circuit_delay() const;

 private:
  void forward_pass() const;
  void criticality_pass() const;

  const Circuit& circuit_;
  const CellLibrary& lib_;
  const VariationModel& var_;
  LoadCache loads_;
  obs::Registry* obs_ = nullptr;

  // Cached analysis state (logically const: computed on the first query).
  mutable SstaResult state_;
  mutable std::vector<std::vector<double>> win_;  ///< per-gate fanin weights
  mutable std::vector<double> sink_weights_;      ///< per primary output
  mutable bool primed_ = false;       ///< arrival/win/circuit_delay computed
  mutable bool crit_primed_ = false;  ///< criticality computed
};

}  // namespace statleak
