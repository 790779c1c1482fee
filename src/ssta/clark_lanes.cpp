#include "ssta/clark_lanes.hpp"

#include <cstring>

#include "util/erfc.hpp"
#include "util/exp.hpp"
#include "util/lane_ops.hpp"
#include "util/normal.hpp"

namespace statleak {

namespace {

/// CanonicalLanes in vectors, local to one variant's body.
struct CanonicalX8 {
  F64x8 mean;
  F64x8 gl;
  F64x8 gv;
  F64x8 loc;
};

STATLEAK_ALWAYS_INLINE void load(const CanonicalLanes& in, CanonicalX8& v) {
  std::memcpy(&v.mean, in.mean, sizeof v.mean);
  std::memcpy(&v.gl, in.gl, sizeof v.gl);
  std::memcpy(&v.gv, in.gv, sizeof v.gv);
  std::memcpy(&v.loc, in.loc, sizeof v.loc);
}

STATLEAK_ALWAYS_INLINE void store(const CanonicalX8& v, CanonicalLanes& out) {
  std::memcpy(out.mean, &v.mean, sizeof v.mean);
  std::memcpy(out.gl, &v.gl, sizeof v.gl);
  std::memcpy(out.gv, &v.gv, sizeof v.gv);
  std::memcpy(out.loc, &v.loc, sizeof v.loc);
}

/// std::max(0.0, x) lane by lane: (0.0 < x) ? x : 0.0.
template <typename Isa>
STATLEAK_ALWAYS_INLINE void clamp_zero(const F64x8& x, F64x8& r, Isa isa) {
  F64x8 zero;
  lane_splat(0.0, zero);
  U64x8 m;
  lane_lt(zero, x, m, isa);
  lane_select(m, x, zero, r);
}

/// One Clark step per lane: out = canonical_max_saturating(a, b, &tight),
/// its general formula with the degenerate case blended in. `out` must not
/// alias `a` or `b`.
template <typename Isa>
STATLEAK_ALWAYS_INLINE void clark_step(const CanonicalX8& a,
                                       const CanonicalX8& b, CanonicalX8& out,
                                       F64x8& tight, Isa isa) {
  F64x8 zero;
  F64x8 one;
  F64x8 c;
  lane_splat(0.0, zero);
  lane_splat(1.0, one);
  U64x8 m;
  const F64x8 var_a = a.gl * a.gl + a.gv * a.gv + a.loc * a.loc;
  const F64x8 var_b = b.gl * b.gl + b.gv * b.gv + b.loc * b.loc;
  F64x8 sig_a;
  F64x8 sig_b;
  lane_sqrt(var_a, sig_a, isa);
  lane_sqrt(var_b, sig_b, isa);
  // rho: std::clamp's compares, and 0 unless both sigmas are positive.
  F64x8 rho = (a.gl * b.gl + a.gv * b.gv) / (sig_a * sig_b);
  lane_splat(-1.0, c);
  lane_lt(rho, c, m, isa);
  lane_select(m, c, rho, rho);
  lane_lt(one, rho, m, isa);
  lane_select(m, one, rho, rho);
  U64x8 m2;
  lane_lt(zero, sig_a, m, isa);
  lane_lt(zero, sig_b, m2, isa);
  lane_select(m & m2, rho, zero, rho);
  F64x8 theta2;
  clamp_zero(var_a + var_b - 2.0 * rho * sig_a * sig_b, theta2, isa);
  F64x8 theta;
  lane_sqrt(theta2, theta, isa);
  // std::max({var_a, var_b, 1e-300}) and the two-stage degeneracy test.
  F64x8 max_var;
  lane_lt(var_a, var_b, m, isa);
  lane_select(m, var_b, var_a, max_var);
  lane_splat(1e-300, c);
  lane_lt(max_var, c, m, isa);
  lane_select(m, c, max_var, max_var);
  U64x8 degenerate = {};
  lane_lt(4.1e-14 * max_var + 4.1e-30, theta2, m, isa);
  if (!lane_all(m, isa)) [[unlikely]] {
    F64x8 scale;
    lane_sqrt(max_var, scale, isa);
    lane_lt(theta, 1e-7 * scale + 1e-15, degenerate, isa);
    degenerate &= ~m;
  }

  // The general formula. Degenerate lanes evaluate it at alpha = 0 (their
  // theta may be 0) and discard it.
  F64x8 alpha;
  lane_select(degenerate, zero, (a.mean - b.mean) / theta, alpha);
  // normal_pdf: exp_f64 of an argument below kExpUnderflow is exactly 0,
  // so such lanes skip exp_f64x8's slow path.
  const F64x8 e = -0.5 * alpha * alpha;
  lane_splat(detail::kExpUnderflow, c);
  U64x8 under;
  lane_lt(e, c, under, isa);
  F64x8 ex;
  F64x8 e_in;
  lane_select(under, zero, e, e_in);
  exp_f64x8(e_in, ex, isa);
  F64x8 phi;
  lane_select(under, zero, kInvSqrt2Pi * ex, phi);
  // normal_cdf_pair. A lane with u = -0.0 takes the u >= 0 side; both
  // sides are erfc(0) = 1 there.
  const F64x8 u = alpha * kInvSqrt2;
  F64x8 erfc_pos;
  F64x8 erfc_neg;
  erfc_pair_f64x8((F64x8)((U64x8)u & 0x7fffffffffffffffu), erfc_pos,
                  erfc_neg, isa);
  lane_lt(u, zero, m, isa);
  F64x8 cdf;
  F64x8 cdf_neg;
  lane_select(m, erfc_pos, erfc_neg, cdf);
  lane_select(m, erfc_neg, erfc_pos, cdf_neg);
  cdf = 0.5 * cdf;
  cdf_neg = 0.5 * cdf_neg;
  const F64x8 mean = a.mean * cdf + b.mean * cdf_neg + theta * phi;
  const F64x8 second_moment = (var_a + a.mean * a.mean) * cdf +
                              (var_b + b.mean * b.mean) * cdf_neg +
                              (a.mean + b.mean) * theta * phi;
  F64x8 variance;
  clamp_zero(second_moment - mean * mean, variance, isa);

  // The degenerate branch: the operand with the larger mean.
  U64x8 a_wins;
  lane_le(b.mean, a.mean, a_wins, isa);
  F64x8 pick;
  lane_select(a_wins, one, zero, pick);
  lane_select(degenerate, pick, cdf, tight);
  lane_select(a_wins, a.mean, b.mean, pick);
  lane_select(degenerate, pick, mean, out.mean);
  lane_select(a_wins, var_a, var_b, pick);
  lane_select(degenerate, pick, variance, variance);
  // Canonical::max's postlude.
  out.gl = tight * a.gl + (1.0 - tight) * b.gl;
  out.gv = tight * a.gv + (1.0 - tight) * b.gv;
  const F64x8 global_var = out.gl * out.gl + out.gv * out.gv;
  F64x8 rest;
  clamp_zero(variance - global_var, rest, isa);
  lane_sqrt(rest, out.loc, isa);
}

template <typename Isa>
STATLEAK_ALWAYS_INLINE void fold_body(const CanonicalLanes* ops,
                                      std::size_t width,
                                      const std::int64_t* deg,
                                      const CanonicalLanes& delay,
                                      CanonicalLanes& out,
                                      double (*weights)[8], Isa isa) {
  F64x8 degree;
  for (int k = 0; k < 8; ++k) degree[k] = static_cast<double>(deg[k]);
  F64x8 w[kLaneMaxFanins];
  CanonicalX8 run;
  load(ops[0], run);
  lane_splat(1.0, w[0]);
  for (std::size_t i = 1; i < width; ++i) {
    CanonicalX8 operand;
    load(ops[i], operand);
    CanonicalX8 next;
    F64x8 tight;
    clark_step(run, operand, next, tight, isa);
    F64x8 step;
    lane_splat(static_cast<double>(i), step);
    U64x8 live;
    lane_lt(step, degree, live, isa);
    lane_select(live, next.mean, run.mean, run.mean);
    lane_select(live, next.gl, run.gl, run.gl);
    lane_select(live, next.gv, run.gv, run.gv);
    lane_select(live, next.loc, run.loc, run.loc);
    for (std::size_t j = 0; j < i; ++j) {
      lane_select(live, w[j] * tight, w[j], w[j]);
    }
    w[i] = 1.0 - tight;
  }
  for (std::size_t i = 0; i < width; ++i) {
    std::memcpy(weights[i], &w[i], sizeof w[i]);
  }
  // Canonical::sum.
  CanonicalX8 d;
  load(delay, d);
  CanonicalX8 sum;
  sum.mean = run.mean + d.mean;
  sum.gl = run.gl + d.gl;
  sum.gv = run.gv + d.gv;
  lane_sqrt(run.loc * run.loc + d.loc * d.loc, sum.loc, isa);
  store(sum, out);
}

void fold_baseline(const CanonicalLanes* ops, std::size_t width,
                   const std::int64_t* deg, const CanonicalLanes& delay,
                   CanonicalLanes& out, double (*weights)[8]) {
  fold_body(ops, width, deg, delay, out, weights, BaselineLanes{});
}

#if STATLEAK_AVX512_VARIANT
STATLEAK_TARGET_AVX512 void fold_avx512(const CanonicalLanes* ops,
                                        std::size_t width,
                                        const std::int64_t* deg,
                                        const CanonicalLanes& delay,
                                        CanonicalLanes& out,
                                        double (*weights)[8]) {
  fold_body(ops, width, deg, delay, out, weights, Avx512Lanes{});
}
#endif

/// One block of clark_chain_weights: the `count` rows row[0..count),
/// ascending, with factors f[0..count). The weights below row[0] take every
/// factor, those in [row[k-1], row[k]) the factors from k on.
STATLEAK_ALWAYS_INLINE void scale_weight_block(const std::size_t* row,
                                               const double* f,
                                               std::size_t count, double* w) {
  std::size_t lo = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t hi = row[k];
    std::size_t j = lo;
    for (; j + 8 <= hi; j += 8) {
      double x[8];
      for (std::size_t l = 0; l < 8; ++l) x[l] = w[j + l];
      for (std::size_t q = k; q < count; ++q) {
        for (std::size_t l = 0; l < 8; ++l) x[l] *= f[q];
      }
      for (std::size_t l = 0; l < 8; ++l) w[j + l] = x[l];
    }
    for (; j < hi; ++j) {
      double x = w[j];
      for (std::size_t q = k; q < count; ++q) x *= f[q];
      w[j] = x;
    }
    lo = hi;
  }
}

STATLEAK_ALWAYS_INLINE void chain_weights_body(const double* tight,
                                               std::size_t m, double* w) {
  std::size_t row[8];
  double f[8];
  std::size_t count = 0;
  w[0] = 1.0;
  for (std::size_t i = 1; i < m; ++i) {
    const double t = tight[i];
    w[i] = 1.0 - t;
    if (t == 1.0) continue;
    row[count] = i;
    f[count] = t;
    if (++count == 8) {
      scale_weight_block(row, f, count, w);
      count = 0;
    }
  }
  scale_weight_block(row, f, count, w);
}

void chain_weights_baseline(const double* tight, std::size_t m, double* w) {
  chain_weights_body(tight, m, w);
}

#if STATLEAK_AVX512_VARIANT
STATLEAK_TARGET_AVX512 void chain_weights_avx512(const double* tight,
                                                 std::size_t m, double* w) {
  chain_weights_body(tight, m, w);
}
#endif

}  // namespace

void clark_chain_weights(SimdIsa isa, const double* tight, std::size_t m,
                         double* w) {
#if STATLEAK_AVX512_VARIANT
  if (isa == SimdIsa::kAvx512 && host_simd_isa() == SimdIsa::kAvx512) {
    chain_weights_avx512(tight, m, w);
    return;
  }
#endif
  (void)isa;
  chain_weights_baseline(tight, m, w);
}

void clark_fold_x8(SimdIsa isa, const CanonicalLanes* ops, std::size_t width,
                   const std::int64_t* deg, const CanonicalLanes& delay,
                   CanonicalLanes& out, double (*weights)[8]) {
#if STATLEAK_AVX512_VARIANT
  if (isa == SimdIsa::kAvx512 && host_simd_isa() == SimdIsa::kAvx512) {
    fold_avx512(ops, width, deg, delay, out, weights);
    return;
  }
#endif
  (void)isa;
  fold_baseline(ops, width, deg, delay, out, weights);
}

}  // namespace statleak
