// The in-repo exp (util/exp.hpp): accuracy against long-double expl, the
// edges libm defines (zeros, infinities, NaN, overflow, underflow,
// subnormal results, the fast-path cutover), and bit equality between the
// scalar form and every lane of the 8-lane form in both ISA variants.

#include "util/exp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace statleak {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void exp8_baseline(const F64x8& x, F64x8& y) { exp_f64x8(x, y); }

#if STATLEAK_AVX512_VARIANT
// Plain arrays across the wrapper: an F64x8 is 16-byte aligned in this
// baseline test code but loaded 64-byte aligned by AVX-512 code.
STATLEAK_TARGET_AVX512 void exp8_avx512(const double* x, double* y) {
  F64x8 xv;
  F64x8 yv;
  std::memcpy(&xv, x, sizeof xv);
  exp_f64x8(xv, yv);
  std::memcpy(y, &yv, sizeof yv);
}
STATLEAK_TARGET_AVX512 double exp1_avx512(double x) { return exp_f64(x); }
bool have_avx512() { return host_simd_isa() == SimdIsa::kAvx512; }
#endif

/// |y - exp(x)| in units of the last place of exp(x), with exp(x) from
/// long-double expl and the ulp of the double binade it falls in
/// (2^-1074 for subnormal results).
double ulp_error(double y, double x) {
  const long double t = expl(static_cast<long double>(x));
  int e = 0;
  (void)frexpl(t, &e);
  const long double ulp = ldexpl(1.0L, std::max(e - 53, -1074));
  return static_cast<double>(fabsl(static_cast<long double>(y) - t) / ulp);
}

/// Evaluates `xs` eight at a time through both wrappers and one at a time
/// through exp_f64, checks every lane against the scalar bit for bit, and
/// returns the largest ulp error of the finite, nonzero expected values.
double check_batch(const std::vector<double>& xs) {
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); i += 8) {
    F64x8 x = {};
    for (std::size_t k = 0; k < 8 && i + k < xs.size(); ++k) x[k] = xs[i + k];
    F64x8 y = {};
    exp8_baseline(x, y);
#if STATLEAK_AVX512_VARIANT
    F64x8 y512 = {};
    if (have_avx512()) {
      double xs8[8];
      double ys8[8];
      std::memcpy(xs8, &x, sizeof xs8);
      exp8_avx512(xs8, ys8);
      std::memcpy(&y512, ys8, sizeof ys8);
    }
#endif
    for (std::size_t k = 0; k < 8; ++k) {
      const double s = exp_f64(x[k]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s),
                std::bit_cast<std::uint64_t>(y[k]))
          << "baseline lane " << k << " of x = " << x[k];
#if STATLEAK_AVX512_VARIANT
      if (have_avx512()) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s),
                  std::bit_cast<std::uint64_t>(y512[k]))
            << "avx512 lane " << k << " of x = " << x[k];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s),
                  std::bit_cast<std::uint64_t>(exp1_avx512(x[k])))
            << "avx512 scalar of x = " << x[k];
      }
#endif
      if (std::isfinite(x[k]) && x[k] <= detail::kExpOverflow &&
          x[k] >= detail::kExpUnderflow) {
        worst = std::max(worst, ulp_error(s, x[k]));
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  return worst;
}

TEST(ExpTest, WithinTwoUlpDenseOnLeakageRange) {
  // The leakage exponent -cL*dL - cV*dVth + q*dL^2 stays well inside
  // [-50, 50]: 3M evenly spaced points, each nudged by a random fraction of
  // the spacing so the low bits vary.
  constexpr std::size_t kPoints = 3'000'000;
  Rng rng(11);
  std::vector<double> xs(kPoints);
  const double step = 100.0 / kPoints;
  for (std::size_t i = 0; i < kPoints; ++i) {
    xs[i] = -50.0 + (static_cast<double>(i) + rng.uniform()) * step;
  }
  EXPECT_LE(check_batch(xs), 2.0);
}

TEST(ExpTest, WithinTwoUlpUniformOverFullRange) {
  // 1M uniform points over every argument with a finite, nonzero result,
  // including the subnormal and near-overflow stretches of the slow path.
  constexpr std::size_t kPoints = 1'000'000;
  Rng rng(12);
  std::vector<double> xs(kPoints);
  for (double& x : xs) {
    x = rng.uniform(detail::kExpUnderflow, detail::kExpOverflow);
  }
  EXPECT_LE(check_batch(xs), 2.0);
}

TEST(ExpTest, ZerosInfinitiesAndNaN) {
  EXPECT_EQ(exp_f64(0.0), 1.0);
  EXPECT_EQ(exp_f64(-0.0), 1.0);
  EXPECT_EQ(exp_f64(kInf), kInf);
  EXPECT_EQ(exp_f64(-kInf), 0.0);
  EXPECT_FALSE(std::signbit(exp_f64(-kInf)));
  EXPECT_TRUE(std::isnan(exp_f64(kNaN)));
  EXPECT_TRUE(std::isnan(exp_f64(-kNaN)));
  EXPECT_LE(ulp_error(exp_f64(1.0), 1.0), 1.0);
  check_batch({0.0, -0.0, kInf, -kInf, kNaN, -kNaN, 1.0, -1.0});
}

TEST(ExpTest, FastPathCutover) {
  // One ulp either side of |x| = 708: the last fast-path arguments and the
  // first slow-path ones.
  std::vector<double> xs;
  for (const double c : {detail::kExpFastLimit, -detail::kExpFastLimit}) {
    xs.push_back(std::nextafter(c, 0.0));
    xs.push_back(c);
    xs.push_back(std::nextafter(c, 2.0 * c));
  }
  EXPECT_LE(check_batch(xs), 2.0);
  for (const double x : xs) EXPECT_TRUE(std::isfinite(exp_f64(x))) << x;
}

TEST(ExpTest, OverflowThreshold) {
  // kExpOverflow is the largest double whose exp is finite.
  const double hi = detail::kExpOverflow;
  const double above = std::nextafter(hi, kInf);
  ASSERT_LE(expl(static_cast<long double>(hi)), DBL_MAX);
  ASSERT_GT(expl(static_cast<long double>(above)), DBL_MAX);
  EXPECT_TRUE(std::isfinite(exp_f64(hi)));
  EXPECT_LE(ulp_error(exp_f64(hi), hi), 2.0);
  EXPECT_EQ(exp_f64(above), kInf);
  EXPECT_EQ(exp_f64(1000.0), kInf);
  check_batch({std::nextafter(hi, 0.0), hi, above, 1000.0, 709.0, 709.5});
}

TEST(ExpTest, UnderflowThresholdAndSubnormalResults) {
  // kExpUnderflow is the largest double below ln 2^-1075: its exp and every
  // smaller one are under half the least subnormal and round to zero, and
  // the next double up rounds to the least subnormal.
  const double lo = detail::kExpUnderflow;
  const double above = std::nextafter(lo, 0.0);
  const long double half_min = ldexpl(1.0L, -1075);
  ASSERT_LT(expl(static_cast<long double>(lo)), half_min);
  ASSERT_GT(expl(static_cast<long double>(above)), half_min);
  EXPECT_EQ(exp_f64(above), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(exp_f64(lo), 0.0);
  EXPECT_EQ(exp_f64(std::nextafter(lo, -kInf)), 0.0);
  EXPECT_EQ(exp_f64(-1000.0), 0.0);

  // Every result below DBL_MIN (x < ln DBL_MIN = -708.396...) is
  // subnormal and still within 2 ulp of the subnormal grid.
  std::vector<double> xs;
  Rng rng(13);
  for (int i = 0; i < 100'000; ++i) xs.push_back(rng.uniform(lo, -708.4));
  xs.push_back(lo);
  xs.push_back(above);
  EXPECT_LE(check_batch(xs), 2.0);
  for (const double x : xs) {
    const double y = exp_f64(x);
    EXPECT_TRUE(y == 0.0 || std::fpclassify(y) == FP_SUBNORMAL) << x;
  }
}

TEST(ExpTest, GroupsMixingFastAndSlowLanes) {
  // Each group holds fast-path arguments next to overflowing, underflowing,
  // subnormal, infinite and NaN ones, in every lane position.
  const double slow[] = {kNaN,   -kNaN, kInf,   -kInf, 709.5,
                         -708.9, 800.0, -750.0, 708.0, -744.0};
  const double fast[] = {0.0, -3.25, 12.5, -49.0, 1e-300, 707.9};
  Rng rng(14);
  std::vector<double> xs;
  for (int g = 0; g < 4000; ++g) {
    for (int k = 0; k < 8; ++k) {
      xs.push_back(rng.uniform() < 0.3 ? slow[rng.uniform_index(10)]
                                       : fast[rng.uniform_index(6)]);
    }
  }
  EXPECT_LE(check_batch(xs), 2.0);
}

}  // namespace
}  // namespace statleak
