// The in-repo erfc (util/erfc.hpp): accuracy against long-double erfcl in
// each of fdlibm's regions, for erfc(a) and erfc(-a); the region
// boundaries, zeros, tiny and subnormal arguments, NaN and the infinities;
// bit equality between the scalar pair and every lane of the eight-lane
// pair in both ISA variants; and normal_cdf_pair against normal_cdf.

#include "util/erfc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/lane_ops.hpp"
#include "util/normal.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace statleak {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void pair8_baseline(const double* a, double* pos, double* neg) {
  F64x8 x;
  F64x8 p;
  F64x8 n;
  std::memcpy(&x, a, sizeof x);
  erfc_pair_f64x8(x, p, n, BaselineLanes{});
  std::memcpy(pos, &p, sizeof p);
  std::memcpy(neg, &n, sizeof n);
}

#if STATLEAK_AVX512_VARIANT
STATLEAK_TARGET_AVX512 void pair8_avx512(const double* a, double* pos,
                                         double* neg) {
  F64x8 x;
  F64x8 p;
  F64x8 n;
  std::memcpy(&x, a, sizeof x);
  erfc_pair_f64x8(x, p, n, Avx512Lanes{});
  std::memcpy(pos, &p, sizeof p);
  std::memcpy(neg, &n, sizeof n);
}
STATLEAK_TARGET_AVX512 void pair1_avx512(double a, double& pos, double& neg) {
  erfc_pair(a, pos, neg);
}
bool have_avx512() { return host_simd_isa() == SimdIsa::kAvx512; }
#endif

/// |y - erfc(x)| in units of the last place of erfc(x), from long-double
/// erfcl and the ulp of the double binade it falls in (2^-1074 for
/// subnormal results).
double ulp_error(double y, double x) {
  const long double t = erfcl(static_cast<long double>(x));
  if (t == 0.0L) return y == 0.0 ? 0.0 : kInf;
  int e = 0;
  (void)frexpl(t, &e);
  const long double ulp = ldexpl(1.0L, std::max(e - 53, -1074));
  return static_cast<double>(fabsl(static_cast<long double>(y) - t) / ulp);
}

/// Evaluates |as| eight at a time through both wrappers and one at a time
/// through erfc_pair, checks every lane against the scalar bit for bit,
/// and returns the largest ulp error of erfc(a) and erfc(-a).
double check_pairs(const std::vector<double>& as) {
  double worst = 0.0;
  for (std::size_t i = 0; i < as.size(); i += 8) {
    double a[8] = {};
    for (std::size_t k = 0; k < 8 && i + k < as.size(); ++k) a[k] = as[i + k];
    double pos[8];
    double neg[8];
    pair8_baseline(a, pos, neg);
#if STATLEAK_AVX512_VARIANT
    double pos512[8] = {};
    double neg512[8] = {};
    if (have_avx512()) pair8_avx512(a, pos512, neg512);
#endif
    for (std::size_t k = 0; k < 8; ++k) {
      double p = 0.0;
      double n = 0.0;
      erfc_pair(a[k], p, n);
      EXPECT_EQ(bits(p), bits(pos[k])) << "baseline lane of a = " << a[k];
      EXPECT_EQ(bits(n), bits(neg[k])) << "baseline lane of -a = " << -a[k];
#if STATLEAK_AVX512_VARIANT
      if (have_avx512()) {
        EXPECT_EQ(bits(p), bits(pos512[k])) << "avx512 lane of a = " << a[k];
        EXPECT_EQ(bits(n), bits(neg512[k])) << "avx512 lane of -a = " << -a[k];
        double p1 = 0.0;
        double n1 = 0.0;
        pair1_avx512(a[k], p1, n1);
        EXPECT_EQ(bits(p), bits(p1)) << "avx512 scalar of a = " << a[k];
        EXPECT_EQ(bits(n), bits(n1)) << "avx512 scalar of -a = " << -a[k];
      }
#endif
      EXPECT_EQ(bits(erfc_f64(a[k])), bits(p)) << a[k];
      EXPECT_EQ(bits(erfc_f64(-a[k])), bits(n)) << -a[k];
      if (std::isfinite(a[k])) {
        worst = std::max({worst, ulp_error(p, a[k]), ulp_error(n, -a[k])});
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  return worst;
}

/// `count` uniform points in [lo, hi).
std::vector<double> uniform_points(std::uint64_t seed, double lo, double hi,
                                   std::size_t count) {
  Rng rng(seed);
  std::vector<double> as(count);
  for (double& a : as) a = rng.uniform(lo, hi);
  return as;
}

TEST(ErfcTest, WithinFourUlpInEveryRegion) {
  // fdlibm's regions: the small rational below 0.84375 (with its 1/4
  // split), the middle one below 1.25, the near tail below 1/0.35 and the
  // far tail below 28, where erfc(a) underflows (subnormal above ~26.55).
  const double bounds[] = {0.0,  0.25, detail::kErfcSmall, detail::kErfcMid,
                           detail::kErfcTailSplit, 6.0, 26.5,
                           detail::kErfcTail};
  for (std::size_t r = 0; r + 1 < std::size(bounds); ++r) {
    const double worst =
        check_pairs(uniform_points(300 + r, bounds[r], bounds[r + 1],
                                   200'000));
    EXPECT_LE(worst, 4.0) << "[" << bounds[r] << ", " << bounds[r + 1] << ")";
  }
}

TEST(ErfcTest, RegionBoundaries) {
  std::vector<double> as;
  for (const double b : {0.25, detail::kErfcSmall, detail::kErfcMid,
                         detail::kErfcTailSplit, 6.0, detail::kErfcTail,
                         std::ldexp(1.0, -56)}) {
    double down = b;
    double up = b;
    for (int k = 0; k < 4; ++k) {
      as.push_back(down);
      as.push_back(up);
      down = std::nextafter(down, 0.0);
      up = std::nextafter(up, kInf);
    }
  }
  EXPECT_LE(check_pairs(as), 4.0);
}

TEST(ErfcTest, ZerosTinyValuesNaNAndInfinities) {
  check_pairs({0.0, 5e-324, 1e-310, 1e-300, 1e-17, 3e-9, kInf, kNaN, 100.0,
               1e300});
  EXPECT_EQ(erfc_f64(0.0), 1.0);
  EXPECT_EQ(erfc_f64(-0.0), 1.0);
  EXPECT_EQ(erfc_f64(5e-324), 1.0);
  EXPECT_EQ(erfc_f64(-1e-300), 1.0);
  EXPECT_EQ(bits(erfc_f64(kInf)), bits(0.0));
  EXPECT_EQ(erfc_f64(-kInf), 2.0);
  EXPECT_EQ(bits(erfc_f64(28.0)), bits(0.0));
  EXPECT_EQ(erfc_f64(-28.0), 2.0);
  EXPECT_EQ(erfc_f64(-6.0), 2.0);
  EXPECT_TRUE(std::isnan(erfc_f64(kNaN)));
  EXPECT_TRUE(std::isnan(erfc_f64(-kNaN)));
  double pos = 0.0;
  double neg = 0.0;
  erfc_pair(kNaN, pos, neg);
  EXPECT_TRUE(std::isnan(pos));
  EXPECT_TRUE(std::isnan(neg));
}

TEST(ErfcTest, NormalCdfPairEqualsNormalCdf) {
  Rng rng(7);
  std::vector<double> xs = {0.0, -0.0, 1e-300, -1e-300, 8.75, -8.75,
                            40.0, -40.0, kInf, -kInf};
  for (int i = 0; i < 100'000; ++i) xs.push_back(rng.uniform(-45.0, 45.0));
  for (const double x : xs) {
    double cdf = 0.0;
    double cdf_neg = 0.0;
    normal_cdf_pair(x, cdf, cdf_neg);
    ASSERT_EQ(bits(cdf), bits(normal_cdf(x))) << x;
    ASSERT_EQ(bits(cdf_neg), bits(normal_cdf(-x))) << x;
  }
  // The saturation proof needs Phi(8.75) == 1 exactly.
  EXPECT_EQ(normal_cdf(8.75), 1.0);
  EXPECT_LT(normal_cdf(-8.75), 1.1e-18);
}

}  // namespace
}  // namespace statleak
