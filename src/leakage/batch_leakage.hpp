/// \file batch_leakage.hpp
/// \brief Sample-blocked, gate-major total-leakage kernel.
///
/// Companion to BatchDelayKernel (see batch_delay.hpp for the blocking
/// scheme and bit-identity contract). Leakage needs no graph traversal —
/// the total is a plain sum over cells — so the kernel precomputes each
/// cell's nominal leakage and exponent coefficients and accumulates a block
/// of lanes gate-major. Per lane, the additions run over non-input gates in
/// ascending GateId order, each term the exact CellLibrary::leakage_na(..,
/// dl, dv) expression, so each lane's floating-point sum is bit-identical
/// to the per-sample sum of the scalar oracle in tests/mc_scalar_oracle.hpp.

#pragma once

#include <cstddef>
#include <vector>

#include "cells/library.hpp"
#include "netlist/flat_circuit.hpp"

namespace statleak {

class BatchLeakageKernel {
 public:
  /// Snapshots the implementation point (rebuild after size/Vth changes).
  BatchLeakageKernel(const FlatCircuit& flat, const CellLibrary& lib);

  /// Re-snapshots against a (possibly different) flat circuit or library,
  /// reusing the table allocations. All derived constants are recomputed,
  /// so a rebind()-ed kernel matches a freshly constructed one exactly.
  void rebind(const FlatCircuit& flat, const CellLibrary& lib);

  /// Accumulates total leakage [nA] of `lanes` samples: `dl`/`dv` are the
  /// gate-major deviation blocks ([g * stride + s]), `out[s]` receives lane
  /// s's total. `dvth_shift` as in BatchDelayKernel::critical_delay_block.
  void total_block(const double* dl, const double* dv, std::size_t stride,
                   std::size_t lanes, const double* dvth_shift,
                   double* out) const;

 private:
  template <bool kShift>
  void block_impl(const double* dl, const double* dv, std::size_t stride,
                  std::size_t lanes, double shift, double* out) const;

  // One entry per non-input gate, ascending GateId.
  std::vector<GateId> active_;
  std::vector<double> nominal_na_;  ///< leakage_na(kind, vth, size)
  std::vector<double> cl_;          ///< leak_cl_per_nm of the gate's class
  std::vector<double> cv_;          ///< leak_cv_per_v
  std::vector<double> q_;           ///< leak_q_per_nm2
};

}  // namespace statleak
