#include "leakage/batch_leakage.hpp"

#include <cstring>

#include "util/error.hpp"
#include "util/exp.hpp"

namespace statleak {

BatchLeakageKernel::BatchLeakageKernel(const FlatCircuit& flat,
                                       const CellLibrary& lib, SimdIsa isa)
    : isa_(isa == SimdIsa::kAvx512 ? host_simd_isa() : SimdIsa::kBaseline) {
  rebind(flat, lib);
}

void BatchLeakageKernel::rebind(const FlatCircuit& flat,
                                const CellLibrary& lib) {
  active_.clear();
  nominal_na_.clear();
  cl_.clear();
  cv_.clear();
  q_.clear();
  for (GateId g = 0; g < flat.num_gates; ++g) {
    if (flat.is_input[g]) continue;
    active_.push_back(g);
    nominal_na_.push_back(lib.leakage_na(flat.kind[g], flat.vth[g],
                                         flat.size[g]));
    const DeviceSensitivities& s = lib.sensitivities(flat.vth[g]);
    cl_.push_back(s.leak_cl_per_nm);
    cv_.push_back(s.leak_cv_per_v);
    q_.push_back(s.leak_q_per_nm2);
  }
}

template <bool kShift>
void BatchLeakageKernel::block_impl(const double* dl, const double* dv,
                                    std::size_t stride, std::size_t lanes,
                                    double shift, double* out) const {
  for (std::size_t s = 0; s < lanes; ++s) out[s] = 0.0;
  const std::size_t full = lanes - lanes % 8;
  for (std::size_t j = 0; j < active_.size(); ++j) {
    const GateId g = active_[j];
    const double* STATLEAK_RESTRICT dl_g = dl + g * stride;
    const double* STATLEAK_RESTRICT dv_g = dv + g * stride;
    const double nom = nominal_na_[j];
    const double cl = cl_[j];
    const double cv = cv_[j];
    const double q = q_[j];
    // Identical expression shape to CellLibrary::leakage_na(.., dl, dv):
    //   exponent = -cL*dL - cV*dVth + q*dL*dL;  leak = nominal * exp(..),
    // eight lanes at a time, then the rest one by one (exp_f64x8's lanes
    // equal exp_f64).
    std::size_t s = 0;
    for (; s < full; s += 8) {
      F64x8 dlv;
      F64x8 dvv;
      F64x8 acc;
      std::memcpy(&dlv, dl_g + s, sizeof dlv);
      std::memcpy(&dvv, dv_g + s, sizeof dvv);
      std::memcpy(&acc, out + s, sizeof acc);
      if (kShift) dvv = dvv + shift;
      const F64x8 exponent = -cl * dlv - cv * dvv + q * dlv * dlv;
      F64x8 e;
      exp_f64x8(exponent, e);
      acc += nom * e;
      std::memcpy(out + s, &acc, sizeof acc);
    }
    for (; s < lanes; ++s) {
      const double dlv = dl_g[s];
      const double dvv = kShift ? dv_g[s] + shift : dv_g[s];
      const double exponent = -cl * dlv - cv * dvv + q * dlv * dlv;
      out[s] += nom * exp_f64(exponent);
    }
  }
}

void BatchLeakageKernel::total_baseline(const double* dl, const double* dv,
                                        std::size_t stride, std::size_t lanes,
                                        const double* dvth_shift,
                                        double* out) const {
  if (dvth_shift != nullptr) {
    block_impl<true>(dl, dv, stride, lanes, *dvth_shift, out);
  } else {
    block_impl<false>(dl, dv, stride, lanes, 0.0, out);
  }
}

#if STATLEAK_AVX512_VARIANT
STATLEAK_TARGET_AVX512 void BatchLeakageKernel::total_avx512(
    const double* dl, const double* dv, std::size_t stride,
    std::size_t lanes, const double* dvth_shift, double* out) const {
  if (dvth_shift != nullptr) {
    block_impl<true>(dl, dv, stride, lanes, *dvth_shift, out);
  } else {
    block_impl<false>(dl, dv, stride, lanes, 0.0, out);
  }
}
#endif

void BatchLeakageKernel::total_block(const double* dl, const double* dv,
                                     std::size_t stride, std::size_t lanes,
                                     const double* dvth_shift,
                                     double* out) const {
  STATLEAK_CHECK(lanes > 0 && lanes <= stride,
                 "batch lanes must be in [1, stride]");
#if STATLEAK_AVX512_VARIANT
  if (isa_ == SimdIsa::kAvx512) {
    total_avx512(dl, dv, stride, lanes, dvth_shift, out);
    return;
  }
#endif
  total_baseline(dl, dv, stride, lanes, dvth_shift, out);
}

}  // namespace statleak
