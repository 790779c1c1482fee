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
///
/// The exp is the in-repo one (util/exp.hpp): the lane loop runs eight lanes
/// at a time through exp_f64x8 and the leftover lanes through exp_f64, which
/// CellLibrary::leakage_na(.., dl, dv) calls too. The block loop is compiled
/// once per ISA from one source body (util/simd.hpp), like
/// BatchDelayKernel's first-order loop, and the variants give the same bits.

#pragma once

#include <cstddef>
#include <vector>

#include "cells/library.hpp"
#include "netlist/flat_circuit.hpp"
#include "util/simd.hpp"

namespace statleak {

class BatchLeakageKernel {
 public:
  /// Snapshots the implementation point (rebuild after size/Vth changes).
  /// `isa` picks the block loop's variant; kAvx512 falls back to kBaseline
  /// on a host without AVX-512. The default is the host's best.
  BatchLeakageKernel(const FlatCircuit& flat, const CellLibrary& lib,
                     SimdIsa isa = host_simd_isa());

  /// The variant the block loop runs.
  SimdIsa isa() const { return isa_; }

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
  STATLEAK_ALWAYS_INLINE void block_impl(const double* dl, const double* dv,
                                         std::size_t stride,
                                         std::size_t lanes, double shift,
                                         double* out) const;
  /// The block loop, one thin wrapper per ISA.
  void total_baseline(const double* dl, const double* dv, std::size_t stride,
                      std::size_t lanes, const double* dvth_shift,
                      double* out) const;
#if STATLEAK_AVX512_VARIANT
  STATLEAK_TARGET_AVX512 void total_avx512(const double* dl, const double* dv,
                                           std::size_t stride,
                                           std::size_t lanes,
                                           const double* dvth_shift,
                                           double* out) const;
#endif

  SimdIsa isa_ = SimdIsa::kBaseline;

  // One entry per non-input gate, ascending GateId.
  std::vector<GateId> active_;
  std::vector<double> nominal_na_;  ///< leakage_na(kind, vth, size)
  std::vector<double> cl_;          ///< leak_cl_per_nm of the gate's class
  std::vector<double> cv_;          ///< leak_cv_per_v
  std::vector<double> q_;           ///< leak_q_per_nm2
};

}  // namespace statleak
