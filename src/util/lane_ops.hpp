/// \file lane_ops.hpp
/// \brief Per-lane compares, selects and square roots of F64x8, one
///        overload per ISA variant.
///
/// A lane body is one always-inlined source compiled twice, through a
/// baseline and an AVX-512 wrapper (util/simd.hpp). GCC optimises the body
/// for the baseline target before it inlines it into a wrapper, and there a
/// compare of two F64x8 whose mask is reused or combined is split into one
/// scalar compare per lane; square roots are scalar calls unless they come
/// from a vector instruction. A body that blends by mask therefore takes an
/// ISA tag and sends every compare and square root through these helpers:
///   - the baseline overloads are always-inlined SSE2 intrinsics (a plain
///     per-lane loop off x86);
///   - the AVX-512 overloads carry the AVX-512 target and are not
///     always-inlined: the body cannot inline them, its AVX-512 wrapper
///     does, once the body sits in it.
/// A mask has all bits set in the lanes where the compare holds and none
/// elsewhere; lane_select blends bitwise, so it decides no rounding. Every
/// compare is IEEE's (false when a lane is NaN), and square roots are
/// correctly rounded in every variant, so the variants give the same bits.

#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/simd.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if STATLEAK_AVX512_VARIANT
#include <immintrin.h>
#endif

namespace statleak {

/// ISA tags of a lane body's two instantiations.
struct BaselineLanes {};
struct Avx512Lanes {};

STATLEAK_ALWAYS_INLINE void lane_splat(double c, F64x8& v) { v = F64x8{} + c; }

/// r = m ? x : y, lane by lane.
STATLEAK_ALWAYS_INLINE void lane_select(const U64x8& m, const F64x8& x,
                                        const F64x8& y, F64x8& r) {
  r = (F64x8)(((U64x8)x & m) | ((U64x8)y & ~m));
}

namespace detail {
#if defined(__SSE2__)
template <typename Op>
STATLEAK_ALWAYS_INLINE void sse2_lanes(const F64x8& x, const F64x8& y,
                                       F64x8& r, Op op) {
  __m128d a[4];
  __m128d b[4];
  std::memcpy(a, &x, sizeof a);
  std::memcpy(b, &y, sizeof b);
  for (int i = 0; i < 4; ++i) a[i] = op(a[i], b[i]);
  std::memcpy(&r, a, sizeof a);
}
#endif
}  // namespace detail

// ------------------------------------------------------------ baseline ----

/// m = x < y.
STATLEAK_ALWAYS_INLINE void lane_lt(const F64x8& x, const F64x8& y, U64x8& m,
                                    BaselineLanes) {
#if defined(__SSE2__)
  F64x8 r;
  detail::sse2_lanes(x, y, r, [](__m128d a, __m128d b) {
    return _mm_cmplt_pd(a, b);
  });
  m = (U64x8)r;
#else
  for (int k = 0; k < 8; ++k) m[k] = x[k] < y[k] ? ~std::uint64_t{0} : 0;
#endif
}

/// m = x <= y.
STATLEAK_ALWAYS_INLINE void lane_le(const F64x8& x, const F64x8& y, U64x8& m,
                                    BaselineLanes) {
#if defined(__SSE2__)
  F64x8 r;
  detail::sse2_lanes(x, y, r, [](__m128d a, __m128d b) {
    return _mm_cmple_pd(a, b);
  });
  m = (U64x8)r;
#else
  for (int k = 0; k < 8; ++k) m[k] = x[k] <= y[k] ? ~std::uint64_t{0} : 0;
#endif
}

/// m = isnan(x).
STATLEAK_ALWAYS_INLINE void lane_nan(const F64x8& x, U64x8& m,
                                     BaselineLanes) {
#if defined(__SSE2__)
  F64x8 r;
  detail::sse2_lanes(x, x, r, [](__m128d a, __m128d b) {
    return _mm_cmpunord_pd(a, b);
  });
  m = (U64x8)r;
#else
  for (int k = 0; k < 8; ++k) m[k] = std::isnan(x[k]) ? ~std::uint64_t{0} : 0;
#endif
}

/// y = sqrt(x).
STATLEAK_ALWAYS_INLINE void lane_sqrt(const F64x8& x, F64x8& y,
                                      BaselineLanes) {
#if defined(__SSE2__)
  detail::sse2_lanes(x, x, y, [](__m128d a, __m128d) {
    return _mm_sqrt_pd(a);
  });
#else
  for (int k = 0; k < 8; ++k) y[k] = std::sqrt(x[k]);
#endif
}

/// Whether every lane of m is set.
STATLEAK_ALWAYS_INLINE bool lane_all(const U64x8& m, BaselineLanes) {
  std::uint64_t all = ~std::uint64_t{0};
  for (int k = 0; k < 8; ++k) all &= m[k];
  return all != 0;
}

// ------------------------------------------------------------- AVX-512 ----

#if STATLEAK_AVX512_VARIANT
STATLEAK_TARGET_AVX512 inline void lane_lt(const F64x8& x, const F64x8& y,
                                           U64x8& m, Avx512Lanes) {
  m = (U64x8)_mm512_movm_epi64(
      _mm512_cmp_pd_mask((__m512d)x, (__m512d)y, _CMP_LT_OQ));
}

STATLEAK_TARGET_AVX512 inline void lane_le(const F64x8& x, const F64x8& y,
                                           U64x8& m, Avx512Lanes) {
  m = (U64x8)_mm512_movm_epi64(
      _mm512_cmp_pd_mask((__m512d)x, (__m512d)y, _CMP_LE_OQ));
}

STATLEAK_TARGET_AVX512 inline void lane_nan(const F64x8& x, U64x8& m,
                                            Avx512Lanes) {
  m = (U64x8)_mm512_movm_epi64(
      _mm512_cmp_pd_mask((__m512d)x, (__m512d)x, _CMP_UNORD_Q));
}

STATLEAK_TARGET_AVX512 inline void lane_sqrt(const F64x8& x, F64x8& y,
                                             Avx512Lanes) {
  y = (F64x8)_mm512_mask_sqrt_pd((__m512d)x, 0xFF, (__m512d)x);
}

STATLEAK_TARGET_AVX512 inline bool lane_all(const U64x8& m, Avx512Lanes) {
  return _mm512_test_epi64_mask((__m512i)m, (__m512i)m) == 0xFF;
}
#endif

}  // namespace statleak
