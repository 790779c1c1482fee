/// \file spatial_ssta.hpp
/// \brief Block-based SSTA under the grid spatial-correlation model.
///
/// Same algorithm as the plain SSTA (ssta/flat_incremental.hpp, whose
/// full-pass reference is tests/graph_oracle.hpp) — canonical forms, Clark
/// MAX — but the canonical form carries one sensitivity per *shared
/// source*: the two inter-die sources plus one (dL, dVth) pair per grid
/// region:
///
///   A = mean + sum_k g[k] * Z_k + loc * z
///
/// Source layout: g[0] = dL inter-die, g[1] = dVth inter-die,
/// g[2 + r] = dL of region r, g[2 + R + r] = dVth of region r.
/// MAX correlation comes from the dot product of the g vectors, so two
/// paths through the same region are recognized as correlated even when
/// they share no gates — the effect the plain engine cannot represent.

#pragma once

#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "spatial/spatial_model.hpp"

namespace statleak {

/// Canonical form over an arbitrary set of shared Gaussian sources.
struct VectorCanonical {
  double mean = 0.0;
  std::vector<double> g;  ///< sensitivity per shared source
  double loc = 0.0;       ///< aggregated independent term

  double variance() const;
  double sigma() const;
  double cdf(double t) const;
  double quantile(double p) const;

  /// A + B (independent local parts). Vector lengths must match (or one may
  /// be empty, treated as all-zero).
  static VectorCanonical sum(const VectorCanonical& a,
                             const VectorCanonical& b);

  /// Clark max with correlation from the shared-source dot product.
  static VectorCanonical max(const VectorCanonical& a,
                             const VectorCanonical& b,
                             double* tightness_out = nullptr);
};

/// SSTA engine under the spatial model. Holds references; all constructor
/// arguments must outlive the engine. A one-shot full-pass analyzer, shaped
/// like the plain reference pass in tests/graph_oracle.hpp: loads are read
/// at construction and the circuit delay is computed on the first query and
/// cached, so the engine snapshots the circuit at that query — later
/// size/Vth changes are never seen.
class SpatialSstaEngine {
 public:
  SpatialSstaEngine(const Circuit& circuit, const CellLibrary& lib,
                    const SpatialVariationModel& model,
                    const std::vector<Point>& placement);

  /// Number of shared sources (2 + 2 * regions).
  std::size_t num_sources() const;

  /// Canonical delay of one gate.
  VectorCanonical gate_delay(GateId id) const;

  /// Circuit-delay canonical (max over primary outputs).
  VectorCanonical circuit_delay() const;

  /// Region of a gate (from the placement).
  int region_of(GateId id) const;

  /// Attaches an observability registry (nullptr detaches); the engine
  /// counts queries ("ssta.spatial_passes"). Read-only observation.
  void attach_observer(obs::Registry* registry) { obs_ = registry; }

 private:
  const Circuit& circuit_;
  const CellLibrary& lib_;
  const SpatialVariationModel& model_;
  std::vector<int> regions_;     ///< per gate
  std::vector<double> loads_ff_; ///< per gate output load
  obs::Registry* obs_ = nullptr;

  // Cached analysis state (logically const: computed on the first query).
  mutable VectorCanonical out_max_;
  mutable bool primed_ = false;
};

}  // namespace statleak
