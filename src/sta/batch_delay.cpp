#include "sta/batch_delay.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace statleak {

BatchDelayKernel::BatchDelayKernel(const FlatCircuit& flat,
                                   const CellLibrary& lib,
                                   const LoadCache& loads, SimdIsa isa)
    : isa_(isa == SimdIsa::kAvx512 ? host_simd_isa() : SimdIsa::kBaseline) {
  rebind(flat, lib, loads);
}

void BatchDelayKernel::rebind(const FlatCircuit& flat, const CellLibrary& lib,
                              const LoadCache& loads) {
  flat_ = &flat;
  lib_ = &lib;
  const std::uint32_t n = flat.num_gates;
  nominal_ps_.assign(n, 0.0);
  sl_.assign(n, 0.0);
  sv_.assign(n, 0.0);
  load_ff_.assign(n, 0.0);
  for (GateId g = 0; g < n; ++g) {
    if (flat.is_input[g]) continue;
    load_ff_[g] = loads.load_ff(g);
    nominal_ps_[g] =
        lib.delay_ps(flat.kind[g], flat.vth[g], flat.size[g], load_ff_[g]);
    const DeviceSensitivities& s = lib.sensitivities(flat.vth[g]);
    sl_[g] = s.delay_sl_per_nm;
    sv_[g] = s.delay_sv_per_v;
  }
}

template <bool kExact, bool kShift>
void BatchDelayKernel::block_impl(const double* dl, const double* dv,
                                  std::size_t stride, std::size_t lanes,
                                  double shift, double* arrival,
                                  double* out) const {
  // Gate-major: finish all lanes of a gate before moving on. `topo` is the
  // circuit's topological order, so every fanin's arrival block is complete
  // when a gate is reached. Each lane's fanin max chain runs in pin order,
  // so any topological order gives the same bits.
  for (const GateId g : flat_->topo) {
    double* STATLEAK_RESTRICT arr_g = arrival + g * stride;
    if (flat_->is_input[g]) {
      // Primary input: no fanins, zero delay => arrival 0.0 exactly.
      for (std::size_t s = 0; s < lanes; ++s) arr_g[s] = 0.0;
      continue;
    }
    // Arrival max over fanins, pin order outer / lanes inner. Per lane this
    // is the same left-to-right max chain the scalar loop performs.
    for (std::size_t s = 0; s < lanes; ++s) arr_g[s] = 0.0;
    const std::uint32_t fi_begin = flat_->fanin_offset[g];
    const std::uint32_t fi_end = flat_->fanin_offset[g + 1];
    for (std::uint32_t fi = fi_begin; fi < fi_end; ++fi) {
      const double* STATLEAK_RESTRICT arr_f =
          arrival + flat_->fanin[fi] * stride;
      STATLEAK_VEC_LOOP
      for (std::size_t s = 0; s < lanes; ++s) {
        arr_g[s] = std::max(arr_g[s], arr_f[s]);
      }
    }
    const double* STATLEAK_RESTRICT dl_g = dl + g * stride;
    const double* STATLEAK_RESTRICT dv_g = dv + g * stride;
    if constexpr (kExact) {
      const CellKind kind = flat_->kind[g];
      const Vth vth = flat_->vth[g];
      const double size = flat_->size[g];
      const double load = load_ff_[g];
      for (std::size_t s = 0; s < lanes; ++s) {
        const double dvv = kShift ? dv_g[s] + shift : dv_g[s];
        arr_g[s] += lib_->delay_ps(kind, vth, size, load, dl_g[s], dvv);
      }
    } else {
      // Identical expression shape to the scalar oracle:
      //   mult = 1.0 + sL*dL + sV*dVth;  d = nominal * max(0.05, mult).
      const double nom = nominal_ps_[g];
      const double sl = sl_[g];
      const double sv = sv_[g];
      STATLEAK_VEC_LOOP
      for (std::size_t s = 0; s < lanes; ++s) {
        const double dvv = kShift ? dv_g[s] + shift : dv_g[s];
        const double mult = 1.0 + sl * dl_g[s] + sv * dvv;
        arr_g[s] += nom * std::max(0.05, mult);
      }
    }
  }
  // Critical delay: max over primary outputs in declaration order.
  for (std::size_t s = 0; s < lanes; ++s) out[s] = 0.0;
  for (const GateId o : flat_->outputs) {
    const double* STATLEAK_RESTRICT arr_o = arrival + o * stride;
    STATLEAK_VEC_LOOP
    for (std::size_t s = 0; s < lanes; ++s) {
      out[s] = std::max(out[s], arr_o[s]);
    }
  }
}

void BatchDelayKernel::first_order_baseline(const double* dl,
                                            const double* dv,
                                            std::size_t stride,
                                            std::size_t lanes,
                                            const double* dvth_shift,
                                            double* arrival,
                                            double* out) const {
  if (dvth_shift != nullptr) {
    block_impl<false, true>(dl, dv, stride, lanes, *dvth_shift, arrival, out);
  } else {
    block_impl<false, false>(dl, dv, stride, lanes, 0.0, arrival, out);
  }
}

#if STATLEAK_AVX512_VARIANT
STATLEAK_TARGET_AVX512 void BatchDelayKernel::first_order_avx512(
    const double* dl, const double* dv, std::size_t stride,
    std::size_t lanes, const double* dvth_shift, double* arrival,
    double* out) const {
  if (dvth_shift != nullptr) {
    block_impl<false, true>(dl, dv, stride, lanes, *dvth_shift, arrival, out);
  } else {
    block_impl<false, false>(dl, dv, stride, lanes, 0.0, arrival, out);
  }
}
#endif

void BatchDelayKernel::critical_delay_block(const double* dl, const double* dv,
                                            std::size_t stride,
                                            std::size_t lanes,
                                            bool exact_delay,
                                            const double* dvth_shift,
                                            double* arrival,
                                            double* out) const {
  STATLEAK_CHECK(lanes > 0 && lanes <= stride,
                 "batch lanes must be in [1, stride]");
  if (exact_delay) {
    if (dvth_shift != nullptr) {
      block_impl<true, true>(dl, dv, stride, lanes, *dvth_shift, arrival,
                             out);
    } else {
      block_impl<true, false>(dl, dv, stride, lanes, 0.0, arrival, out);
    }
    return;
  }
#if STATLEAK_AVX512_VARIANT
  if (isa_ == SimdIsa::kAvx512) {
    first_order_avx512(dl, dv, stride, lanes, dvth_shift, arrival, out);
    return;
  }
#endif
  first_order_baseline(dl, dv, stride, lanes, dvth_shift, arrival, out);
}

}  // namespace statleak
