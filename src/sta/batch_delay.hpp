/// \file batch_delay.hpp
/// \brief Sample-blocked, gate-major critical-delay kernel.
///
/// Evaluates a block of B Monte-Carlo samples ("lanes") through one timing
/// pass: for each gate, in topological order, it updates all B lanes before
/// advancing, so the gate's constants (nominal delay, sensitivities) stay in
/// registers and the lane loop runs over contiguous doubles the compiler can
/// auto-vectorize. Per-gate model constants are hoisted out of the sample
/// loop at construction time.
///
/// Bit-identity contract: for every lane, the kernel performs the exact same
/// IEEE-754 operation sequence as a one-sample PERT pass over the Circuit
/// (the scalar oracle in tests/mc_scalar_oracle.hpp) — the arrival max runs
/// over fanins in pin order, the first-order multiplier uses the identical
/// expression shape, exact mode calls the same CellLibrary::delay_ps
/// overload, and the output max runs over primary outputs in declaration
/// order. Lanes never interact, so results are independent of the block
/// size; tests/mc_batched_test.cpp pins this against the oracle
/// bit-for-bit.
///
/// The kernel snapshots one implementation point: it points at the
/// FlatCircuit and copies the per-gate constants, so it must be rebuilt —
/// or rebind()-ed, which reuses the table allocations — after any
/// set_size/set_vth/load change (cheap, O(n)). rebind() is what lets a
/// corner sweep re-derive the constants per environment corner without
/// reallocating; see mc/arena.hpp.
///
/// The first-order block loop — the Monte-Carlo default — is compiled once
/// per ISA from one source body (util/simd.hpp); the constructor picks the
/// AVX-512 variant when the CPU has it. The loops are lane-parallel max,
/// multiply and add, so the variants give the same bits.

#pragma once

#include <cstddef>
#include <vector>

#include "cells/library.hpp"
#include "netlist/flat_circuit.hpp"
#include "sta/loads.hpp"
#include "util/simd.hpp"

namespace statleak {

class BatchDelayKernel {
 public:
  /// `flat` must outlive the kernel and describe the same implementation
  /// point as `loads` (i.e. snapshot after the last resize). `isa` picks
  /// the first-order loop's variant; kAvx512 falls back to kBaseline on a
  /// host without AVX-512. The default is the host's best.
  BatchDelayKernel(const FlatCircuit& flat, const CellLibrary& lib,
                   const LoadCache& loads, SimdIsa isa = host_simd_isa());

  /// The variant the first-order loop runs.
  SimdIsa isa() const { return isa_; }

  /// Re-snapshots the kernel against a (possibly different) flat circuit,
  /// library, or load cache, reusing the constant-table allocations. The
  /// derived constants are recomputed from scratch, so a rebind()-ed kernel
  /// is indistinguishable from a freshly constructed one.
  void rebind(const FlatCircuit& flat, const CellLibrary& lib,
              const LoadCache& loads);

  /// Evaluates `lanes` samples at once. `dl`/`dv` are gate-major blocks of
  /// per-gate total deviations: lane s of gate g sits at [g * stride + s]
  /// (stride >= lanes). `arrival` is caller-owned scratch of num_gates *
  /// stride doubles; `out[s]` receives lane s's critical delay [ps].
  /// `dvth_shift` (nullable) is a uniform dVth added to every gate's dv
  /// before evaluation — the ABB body-bias shift; pass nullptr for plain
  /// Monte-Carlo so unshifted lanes reproduce the oracle bit-for-bit
  /// without an `x + 0.0` rewrite.
  void critical_delay_block(const double* dl, const double* dv,
                            std::size_t stride, std::size_t lanes,
                            bool exact_delay, const double* dvth_shift,
                            double* arrival, double* out) const;

 private:
  template <bool kExact, bool kShift>
  STATLEAK_ALWAYS_INLINE void block_impl(const double* dl, const double* dv,
                                         std::size_t stride,
                                         std::size_t lanes, double shift,
                                         double* arrival, double* out) const;
  /// The first-order block loop, one thin wrapper per ISA.
  void first_order_baseline(const double* dl, const double* dv,
                            std::size_t stride, std::size_t lanes,
                            const double* dvth_shift, double* arrival,
                            double* out) const;
#if STATLEAK_AVX512_VARIANT
  STATLEAK_TARGET_AVX512 void first_order_avx512(
      const double* dl, const double* dv, std::size_t stride,
      std::size_t lanes, const double* dvth_shift, double* arrival,
      double* out) const;
#endif

  SimdIsa isa_ = SimdIsa::kBaseline;

  const FlatCircuit* flat_ = nullptr;
  const CellLibrary* lib_ = nullptr;
  // Indexed by GateId; inputs carry zeros.
  std::vector<double> nominal_ps_;  ///< nominal gate delay (first-order base)
  std::vector<double> sl_;          ///< delay_sl_per_nm of the gate's class
  std::vector<double> sv_;          ///< delay_sv_per_v of the gate's class
  std::vector<double> load_ff_;     ///< output load (exact mode)
};

}  // namespace statleak
