/// \file exp.hpp
/// \brief Full-range exp with one body for one double and for eight lanes.
///
/// The Monte-Carlo leakage kernel evaluates one exp per gate and sample.
/// libm's exp is scalar and its last bit belongs to the host's libm build, so
/// the kernel owns its exp: exp_f64 for one double and exp_f64x8 for the
/// eight lanes of an F64x8 (util/simd.hpp). Both run the same always-inlined
/// body, so lane k of exp_f64x8 equals exp_f64 of lane k bit for bit, in a
/// baseline and in an AVX-512 caller alike (the build keeps contraction off,
/// so no FMA changes a rounding).
///
/// Algorithm, for |x| < 708:
///   - n = round(x * log2(e)), by adding and subtracting 0x1.8p52;
///   - r = (x - n*ln2_hi) - n*ln2_lo, Cody–Waite with fdlibm's split of ln 2
///     (n*ln2_hi and the first subtraction are exact), |r| <= ln2/2;
///   - exp(r) = 1 + (r + r*r*p(r)), p the degree-11 Horner form of the
///     Taylor series' terms 2..13 (the truncation is below 2^-60);
///   - times 2^n, built from its exponent bits (n is in [-1021, 1021], so
///     2^n and the product stay normal and the scaling is exact).
/// Lanes with !(|x| < 708), NaN included, take the scalar full-range path:
/// NaN gives x + x, x above ln(DBL_MAX) gives +inf, x below
/// ln(2^-1075) gives 0, and the rest scale with std::ldexp, so results next
/// to the overflow threshold stay finite and subnormal results round once.
///
/// A lane body compiled per ISA variant calls the overload that takes its
/// ISA tag (util/lane_ops.hpp); it computes the same lanes.
///
/// Accuracy: at most 0.96 ulp against expl, measured over 8M arguments
/// across the full range (tests/exp_test.cpp bounds it at 2 ulp). The
/// result differs from glibc 2.36's exp in the last bit for about a tenth of
/// the arguments.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/lane_ops.hpp"
#include "util/simd.hpp"

namespace statleak {

namespace detail {

/// Arguments with |x| below this take the fast path.
inline constexpr double kExpFastLimit = 708.0;
/// Largest x with a finite exp (ln DBL_MAX, rounded down).
inline constexpr double kExpOverflow = 709.782712893384;
/// The largest double below ln 2^-1075: exp rounds to zero at and below it.
inline constexpr double kExpUnderflow = -745.1332191019412;

inline constexpr double kExpLog2e = 0x1.71547652b82fep0;
inline constexpr double kExpShift = 0x1.8p52;
inline constexpr std::uint64_t kExpShiftBits =
    std::bit_cast<std::uint64_t>(kExpShift);
inline constexpr double kExpLn2Hi = 0x1.62e42feep-1;
inline constexpr double kExpLn2Lo = 0x1.a39ef35793c76p-33;

STATLEAK_ALWAYS_INLINE void exp_to_bits(double x, std::uint64_t& b) {
  b = std::bit_cast<std::uint64_t>(x);
}
STATLEAK_ALWAYS_INLINE void exp_to_bits(const F64x8& x, U64x8& b) {
  b = (U64x8)x;
}
STATLEAK_ALWAYS_INLINE void exp_from_bits(std::uint64_t b, double& x) {
  x = std::bit_cast<double>(b);
}
STATLEAK_ALWAYS_INLINE void exp_from_bits(const U64x8& b, F64x8& x) {
  x = (F64x8)b;
}

/// The one body: y = exp(r) and n with exp(x) = y * 2^n (n as two's
/// complement bits). F is double or F64x8, U the matching unsigned type.
template <typename F, typename U>
STATLEAK_ALWAYS_INLINE void exp_reduce(const F& x, F& y, U& n) {
  const F kd = x * kExpLog2e + kExpShift;
  const F nd = kd - kExpShift;
  exp_to_bits(kd, n);
  n -= kExpShiftBits;
  const F r = (x - nd * kExpLn2Hi) - nd * kExpLn2Lo;
  F p = r * (1.0 / 6227020800.0) + (1.0 / 479001600.0);
  p = p * r + (1.0 / 39916800.0);
  p = p * r + (1.0 / 3628800.0);
  p = p * r + (1.0 / 362880.0);
  p = p * r + (1.0 / 40320.0);
  p = p * r + (1.0 / 5040.0);
  p = p * r + (1.0 / 720.0);
  p = p * r + (1.0 / 120.0);
  p = p * r + (1.0 / 24.0);
  p = p * r + (1.0 / 6.0);
  p = p * r + 0.5;
  y = 1.0 + (r + r * r * p);
}

/// exp(x) for |x| < kExpFastLimit: exp_reduce scaled by 2^n.
template <typename F, typename U>
STATLEAK_ALWAYS_INLINE void exp_fast(const F& x, F& y) {
  U n;
  exp_reduce(x, y, n);
  F scale;
  exp_from_bits((n + std::uint64_t{1023}) << 52, scale);
  y = y * scale;
}

/// exp(x) over the full range; the path of !(|x| < kExpFastLimit).
[[gnu::noinline]] inline double exp_slow(double x) {
  if (std::isnan(x)) return x + x;
  if (x > kExpOverflow) return std::numeric_limits<double>::infinity();
  if (x < kExpUnderflow) return 0.0;
  double y;
  std::uint64_t n;
  exp_reduce(x, y, n);
  return std::ldexp(y, static_cast<int>(static_cast<std::int64_t>(n)));
}

/// Redoes the lanes of `y` whose argument is out of the fast range.
[[gnu::noinline]] inline void exp_slow_lanes(const F64x8& x, F64x8& y) {
  for (int k = 0; k < 8; ++k) {
    if (!(std::fabs(x[k]) < kExpFastLimit)) y[k] = exp_slow(x[k]);
  }
}

}  // namespace detail

/// exp(x), bit-equal to every lane of exp_f64x8.
STATLEAK_ALWAYS_INLINE double exp_f64(double x) {
  if (!(std::fabs(x) < detail::kExpFastLimit)) [[unlikely]] {
    return detail::exp_slow(x);
  }
  double y;
  detail::exp_fast<double, std::uint64_t>(x, y);
  return y;
}

/// y[k] = exp_f64(x[k]) for the eight lanes. One vector compare on |x|
/// decides whether any lane needs the full-range path.
STATLEAK_ALWAYS_INLINE void exp_f64x8(const F64x8& x, F64x8& y) {
  detail::exp_fast<F64x8, U64x8>(x, y);
  const F64x8 ax = (F64x8)((U64x8)x & 0x7fffffffffffffffu);
  const F64x8 limit = F64x8{} + detail::kExpFastLimit;
  const I64x8 fast = (I64x8)(ax < limit);
  typedef std::int64_t I64x4 __attribute__((vector_size(32)));
  typedef std::int64_t I64x2 __attribute__((vector_size(16)));
  const I64x4 half = __builtin_shufflevector(fast, fast, 0, 1, 2, 3) &
                     __builtin_shufflevector(fast, fast, 4, 5, 6, 7);
  const I64x2 quarter = __builtin_shufflevector(half, half, 0, 1) &
                        __builtin_shufflevector(half, half, 2, 3);
  if ((quarter[0] & quarter[1]) == 0) [[unlikely]] {
    detail::exp_slow_lanes(x, y);
  }
}

/// exp_f64x8 inside a lane body that takes an ISA tag (util/lane_ops.hpp):
/// the same lanes, with the range check through the tag's compare.
template <typename Isa>
STATLEAK_ALWAYS_INLINE void exp_f64x8(const F64x8& x, F64x8& y, Isa isa) {
  detail::exp_fast<F64x8, U64x8>(x, y);
  F64x8 limit;
  lane_splat(detail::kExpFastLimit, limit);
  U64x8 fast;
  lane_lt((F64x8)((U64x8)x & 0x7fffffffffffffffu), limit, fast, isa);
  if (!lane_all(fast, isa)) [[unlikely]] {
    detail::exp_slow_lanes(x, y);
  }
}

}  // namespace statleak
