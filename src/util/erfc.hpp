/// \file erfc.hpp
/// \brief erfc with one body for one double and for eight lanes.
///
/// Clark's max (util/clark.cpp, ssta/delay_model.hpp) needs Phi(alpha) and
/// Phi(-alpha), i.e. erfc(-u) and erfc(u) for u = alpha/sqrt(2). libm's
/// erfc is scalar, branches on four argument regions, and its last bit
/// belongs to the host's libm. So the SSTA owns
/// its erfc: erfc_pair returns erfc(a) and erfc(-a) from one evaluation at
/// a = |x|, and erfc_pair_f64x8 does the same for the eight lanes of an
/// F64x8 inside a lane body compiled per ISA variant (it takes the body's
/// tag, util/lane_ops.hpp). Both run the same always-inlined per-region
/// expressions, so lane k equals the scalar bit for bit in either variant
/// (the build keeps contraction off). normal_cdf and normal_pdf
/// (util/normal.hpp) run on it, so every Phi in the program does.
///
/// Algorithm: fdlibm's s_erf.c, with util/exp.hpp's exp_f64 in the tail.
///   - a < 0.84375: y = P(a^2)/Q(a^2) (degrees 4 and 5); erfc(a) is
///     1 - (a + a*y) below 1/4 and 0.5 - (a*y + (a - 0.5)) above, and
///     erfc(-a) = 1 + (a + a*y) (fdlibm's 1 - (x + x*y) at x = -a: every
///     negation is exact).
///   - a < 1.25: P/Q of s = a - 1 (degree 6 each); erfc(a) =
///     (1 - erx) - P/Q, erfc(-a) = 1 + (erx + P/Q).
///   - a < 28: with s = 1/a^2 and R/S a rational in s (one coefficient set
///     below 1/0.35, another above), r = exp(-z*z - 0.5625) *
///     exp((z - a)(z + a) + R/S), z = a with its low 32 bits cleared;
///     erfc(a) = r/a and erfc(-a) = 2 - r/a. The far set has one
///     coefficient fewer in R and in S; padded with a zero it gives the
///     same bits (c + s*0 == c), so both sets run one Horner form.
///   - a >= 28 (and +inf): erfc(a) = 0 and erfc(-a) = 2 exactly.
///   - NaN: both are a + a.
/// fdlibm's shortcuts (|x| < 2^-56, x < -6) return what the region
/// formulas round to anyway, so they are not needed.
///
/// The scalar form branches to the one region of its argument; the lane
/// form evaluates every region for every lane and blends by mask. Lanes
/// outside the tail evaluate it at a = 2, so their exp arguments stay in
/// exp_f64x8's fast range; only tail arguments above ~26.6 (exp argument
/// below -708) take its scalar slow path.
///
/// Accuracy: at most 3.07 ulp against erfcl over 1M arguments per region,
/// where glibc 2.36's erfc reaches 4.06 (tests/erfc_test.cpp bounds it at
/// 4 ulp). erfc(-a), in [1, 2], stays within 0.91 ulp.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/exp.hpp"
#include "util/simd.hpp"

namespace statleak {

namespace detail {

/// Region bounds on a = |x| (fdlibm compares the high word; these are the
/// doubles with those high words and a zero low word).
inline constexpr double kErfcSmall = 0.84375;
inline constexpr double kErfcMid = 1.25;
inline constexpr double kErfcTailSplit =
    std::bit_cast<double>(std::uint64_t{0x4006DB6D00000000});  // ~1/0.35
inline constexpr double kErfcTail = 28.0;

inline constexpr double kErx = 8.45062911510467529297e-01;

// erf on [0, 0.84375): P/Q of a^2.
inline constexpr double kPp0 = 1.28379167095512558561e-01;
inline constexpr double kPp1 = -3.25042107247001499370e-01;
inline constexpr double kPp2 = -2.84817495755985104766e-02;
inline constexpr double kPp3 = -5.77027029648944159157e-03;
inline constexpr double kPp4 = -2.37630166566501626084e-05;
inline constexpr double kQq1 = 3.97917223959155352819e-01;
inline constexpr double kQq2 = 6.50222499887672944485e-02;
inline constexpr double kQq3 = 5.08130628187576562776e-03;
inline constexpr double kQq4 = 1.32494738004321644526e-04;
inline constexpr double kQq5 = -3.96022827877536812320e-06;

// erf on [0.84375, 1.25): P/Q of a - 1.
inline constexpr double kPa0 = -2.36211856075265944077e-03;
inline constexpr double kPa1 = 4.14856118683748331666e-01;
inline constexpr double kPa2 = -3.72207876035701323847e-01;
inline constexpr double kPa3 = 3.18346619901161753674e-01;
inline constexpr double kPa4 = -1.10894694282396677476e-01;
inline constexpr double kPa5 = 3.54783043256182359371e-02;
inline constexpr double kPa6 = -2.16637559486879084300e-03;
inline constexpr double kQa1 = 1.06420880400844228286e-01;
inline constexpr double kQa2 = 5.40397917702171048937e-01;
inline constexpr double kQa3 = 7.18286544141962662868e-02;
inline constexpr double kQa4 = 1.26171219808761642112e-01;
inline constexpr double kQa5 = 1.36370839120290507362e-02;
inline constexpr double kQa6 = 1.19844998467991074170e-02;

// erfc on [1.25, 1/0.35) (near) and [1/0.35, 28) (far): R/S of 1/a^2.
// kTailR[k] holds the near and the far coefficient of s^k in R, kTailS[k]
// those of s^(k+1) in S (whose constant term is 1); the far R and S end one
// term early (zero).
inline constexpr double kTailR[8][2] = {
    {-9.86494403484714822705e-03, -9.86494292470009928597e-03},
    {-6.93858572707181764372e-01, -7.99283237680523006574e-01},
    {-1.05586262253232909814e+01, -1.77579549177547519889e+01},
    {-6.23753324503260060396e+01, -1.60636384855821916062e+02},
    {-1.62396669462573470355e+02, -6.37566443368389627722e+02},
    {-1.84605092906711035994e+02, -1.02509513161107724954e+03},
    {-8.12874355063065934246e+01, -4.83519191608651397019e+02},
    {-9.81432934416914548592e+00, 0.0}};
inline constexpr double kTailS[8][2] = {
    {1.96512716674392571292e+01, 3.03380607434824582924e+01},
    {1.37657754143519042600e+02, 3.25792512996573918826e+02},
    {4.34565877475229228821e+02, 1.53672958608443695994e+03},
    {6.45387271733267880336e+02, 3.19985821950859553908e+03},
    {4.29008140027567833386e+02, 2.55305040643316442583e+03},
    {1.08635005541779435134e+02, 4.74528541206955367215e+02},
    {6.57024977031928170135e+00, -2.24409524465858183362e+01},
    {-6.04244152148580987438e-02, 0.0}};

/// a with its low 32 bits cleared (fdlibm's SET_LOW_WORD(z, 0)).
STATLEAK_ALWAYS_INLINE void erfc_high_word(double a, double& z) {
  z = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) &
                            0xFFFFFFFF00000000u);
}
STATLEAK_ALWAYS_INLINE void erfc_high_word(const F64x8& a, F64x8& z) {
  z = (F64x8)((U64x8)a & 0xFFFFFFFF00000000u);
}

/// The small region, a < kErfcSmall: erfc(a) is `lo` below 1/4 and `hi`
/// above; neg = erfc(-a).
template <typename F>
STATLEAK_ALWAYS_INLINE void erfc_small(const F& a, F& lo, F& hi, F& neg) {
  const F z = a * a;
  const F r = kPp0 + z * (kPp1 + z * (kPp2 + z * (kPp3 + z * kPp4)));
  const F s =
      1.0 + z * (kQq1 + z * (kQq2 + z * (kQq3 + z * (kQq4 + z * kQq5))));
  const F ay = a * (r / s);
  lo = 1.0 - (a + ay);
  hi = 0.5 - (ay + (a - 0.5));
  neg = 1.0 + (a + ay);
}

/// erfc(a) and erfc(-a) for kErfcSmall <= a < kErfcMid.
template <typename F>
STATLEAK_ALWAYS_INLINE void erfc_mid(const F& a, F& pos, F& neg) {
  const F s = a - 1.0;
  const F p =
      kPa0 +
      s * (kPa1 + s * (kPa2 + s * (kPa3 + s * (kPa4 + s * (kPa5 + s * kPa6)))));
  const F q =
      1.0 +
      s * (kQa1 + s * (kQa2 + s * (kQa3 + s * (kQa4 + s * (kQa5 + s * kQa6)))));
  const F pq = p / q;
  pos = (1.0 - kErx) - pq;
  neg = 1.0 + (kErx + pq);
}

/// The tail's rational coefficients, near or far set, per lane.
template <typename F>
struct ErfcTailCoefs {
  F r[8];
  F s[8];
};

/// The tail, kErfcMid <= a < kErfcTail, up to its two exps: erfc(a) =
/// exp(x1) * exp(x2) / a.
template <typename F>
STATLEAK_ALWAYS_INLINE void erfc_tail_args(const F& a,
                                           const ErfcTailCoefs<F>& c, F& x1,
                                           F& x2) {
  const F s = 1.0 / (a * a);
  F r = c.r[7];
  for (int k = 6; k >= 0; --k) r = c.r[k] + s * r;
  F q = c.s[7];
  for (int k = 6; k >= 0; --k) q = c.s[k] + s * q;
  q = 1.0 + s * q;
  F z;
  erfc_high_word(a, z);
  x1 = -z * z - 0.5625;
  x2 = (z - a) * (z + a) + r / q;
}

/// m = a < bound, lane by lane. A helper, not a lambda: a lambda is not
/// always inlined, and unoptimised builds would call the AVX-512 compare
/// from baseline code with a 16-byte-aligned vector.
template <typename Isa>
STATLEAK_ALWAYS_INLINE void erfc_below(const F64x8& a, double bound,
                                       U64x8& m, Isa isa) {
  F64x8 b;
  lane_splat(bound, b);
  lane_lt(a, b, m, isa);
}

template <typename F>
STATLEAK_ALWAYS_INLINE void erfc_tail_finish(const F& a, const F& e1,
                                             const F& e2, F& pos, F& neg) {
  pos = e1 * e2 / a;
  neg = 2.0 - pos;
}

}  // namespace detail

/// pos = erfc(a), neg = erfc(-a), for a >= 0 or NaN (a = |x|).
STATLEAK_ALWAYS_INLINE void erfc_pair(double a, double& pos, double& neg) {
  using namespace detail;
  if (a < kErfcSmall) {
    double lo;
    double hi;
    erfc_small(a, lo, hi, neg);
    pos = a < 0.25 ? lo : hi;
  } else if (a < kErfcMid) {
    erfc_mid(a, pos, neg);
  } else if (a < kErfcTail) {
    const int set = a < kErfcTailSplit ? 0 : 1;
    ErfcTailCoefs<double> c;
    for (int k = 0; k < 8; ++k) {
      c.r[k] = kTailR[k][set];
      c.s[k] = kTailS[k][set];
    }
    double x1;
    double x2;
    erfc_tail_args(a, c, x1, x2);
    erfc_tail_finish(a, exp_f64(x1), exp_f64(x2), pos, neg);
  } else if (a == a) {
    pos = 0.0;
    neg = 2.0;
  } else {
    pos = a + a;
    neg = pos;
  }
}

/// erfc_pair of every lane, bit-equal to the scalar form, inside a lane
/// body compiled per ISA variant (util/lane_ops.hpp).
template <typename Isa>
STATLEAK_ALWAYS_INLINE void erfc_pair_f64x8(const F64x8& a, F64x8& pos,
                                            F64x8& neg, Isa isa) {
  using namespace detail;
  F64x8 zero;
  F64x8 two;
  lane_splat(0.0, zero);
  lane_splat(2.0, two);
  U64x8 in_small;
  U64x8 in_mid;
  U64x8 in_tail;
  U64x8 m;
  erfc_below(a, kErfcSmall, in_small, isa);
  erfc_below(a, kErfcMid, in_mid, isa);
  erfc_below(a, kErfcTail, in_tail, isa);

  // The tail, at a = 2 in the lanes outside it, so that no exp argument of
  // theirs leaves exp_f64x8's fast range.
  F64x8 at;
  lane_select(in_tail & ~in_mid, a, two, at);
  U64x8 near;
  F64x8 split;
  lane_splat(kErfcTailSplit, split);
  lane_lt(at, split, near, isa);
  ErfcTailCoefs<F64x8> c;
  for (int k = 0; k < 8; ++k) {
    F64x8 cn;
    F64x8 cf;
    lane_splat(kTailR[k][0], cn);
    lane_splat(kTailR[k][1], cf);
    lane_select(near, cn, cf, c.r[k]);
    lane_splat(kTailS[k][0], cn);
    lane_splat(kTailS[k][1], cf);
    lane_select(near, cn, cf, c.s[k]);
  }
  F64x8 x1;
  F64x8 x2;
  erfc_tail_args(at, c, x1, x2);
  F64x8 e1;
  F64x8 e2;
  exp_f64x8(x1, e1, isa);
  exp_f64x8(x2, e2, isa);
  erfc_tail_finish(at, e1, e2, pos, neg);
  lane_select(in_tail, pos, zero, pos);
  lane_select(in_tail, neg, two, neg);

  F64x8 mid_pos;
  F64x8 mid_neg;
  erfc_mid(a, mid_pos, mid_neg);
  lane_select(in_mid, mid_pos, pos, pos);
  lane_select(in_mid, mid_neg, neg, neg);

  F64x8 lo;
  F64x8 hi;
  F64x8 small_neg;
  erfc_small(a, lo, hi, small_neg);
  erfc_below(a, 0.25, m, isa);
  lane_select(m, lo, hi, lo);
  lane_select(in_small, lo, pos, pos);
  lane_select(in_small, small_neg, neg, neg);

  lane_nan(a, m, isa);
  lane_select(m, a + a, pos, pos);
  lane_select(m, a + a, neg, neg);
}

/// erfc(x).
STATLEAK_ALWAYS_INLINE double erfc_f64(double x) {
  double pos;
  double neg;
  erfc_pair(std::fabs(x), pos, neg);
  return std::signbit(x) ? neg : pos;
}

}  // namespace statleak
