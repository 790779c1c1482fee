#include "mc/lane_draw.hpp"

#include <cstring>

namespace statleak {

IntraDieSigmas::IntraDieSigmas(const VariationModel& var,
                               std::span<const double> widths)
    : l_nm(var.sigma_l_intra_nm), vth_v(widths.size()) {
  for (std::size_t id = 0; id < widths.size(); ++id) {
    vth_v[id] = var.sigma_vth_intra_for(widths[id]);
  }
}

namespace {

/// The one draw body; the wrappers below compile it per ISA. A full group
/// stores each gate's eight lanes with one unaligned vector store.
template <typename Isa>
STATLEAK_ALWAYS_INLINE void draw_body(const LaneGroup& group,
                                      const IntraDieSigmas& sigmas,
                                      double* dl, double* dv,
                                      std::size_t stride, Isa isa) {
  RngLanes lanes(std::span<const Rng>(group.rng.data(), group.count));
  F64x8 die_dl = {};
  F64x8 die_dv = {};
  for (std::size_t k = 0; k < RngLanes::kWidth; ++k) {
    die_dl[k] = group.die[k].dl_nm;
    die_dv[k] = group.die[k].dvth_v;
  }
  const bool full = group.count == RngLanes::kWidth;
  const double sigma_l = sigmas.l_nm;
  const double* sigma_v = sigmas.vth_v.data();
  const std::size_t n = sigmas.vth_v.size();
  for (std::size_t id = 0; id < n; ++id) {
    F64x8 zl = {};
    F64x8 zv = {};
    lanes.normal(zl, isa);
    lanes.normal(zv, isa);
    // sample_gate: g.dl_nm + rng.normal(0.0, sigma), normal(mean, sd) being
    // mean + sd * normal().
    const F64x8 l = die_dl + (0.0 + sigma_l * zl);
    const F64x8 v = die_dv + (0.0 + sigma_v[id] * zv);
    double* dl_row = dl + id * stride;
    double* dv_row = dv + id * stride;
    if (full) {
      std::memcpy(dl_row, &l, sizeof l);
      std::memcpy(dv_row, &v, sizeof v);
    } else {
      for (std::size_t k = 0; k < group.count; ++k) {
        dl_row[k] = l[k];
        dv_row[k] = v[k];
      }
    }
  }
}

void draw_baseline(const LaneGroup& group, const IntraDieSigmas& sigmas,
                   double* dl, double* dv, std::size_t stride) {
  draw_body(group, sigmas, dl, dv, stride, BaselineLanes{});
}

#if STATLEAK_AVX512_VARIANT
STATLEAK_TARGET_AVX512 void draw_avx512(const LaneGroup& group,
                                        const IntraDieSigmas& sigmas,
                                        double* dl, double* dv,
                                        std::size_t stride) {
  draw_body(group, sigmas, dl, dv, stride, Avx512Lanes{});
}
#endif

}  // namespace

void draw_lane_group(SimdIsa isa, const LaneGroup& group,
                     const IntraDieSigmas& sigmas, double* dl, double* dv,
                     std::size_t stride) {
#if STATLEAK_AVX512_VARIANT
  if (isa == SimdIsa::kAvx512 && host_simd_isa() == SimdIsa::kAvx512) {
    draw_avx512(group, sigmas, dl, dv, stride);
    return;
  }
#endif
  (void)isa;
  draw_baseline(group, sigmas, dl, dv, stride);
}

}  // namespace statleak
