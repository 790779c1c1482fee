/// \file normal.hpp
/// \brief Standard normal distribution functions: pdf, cdf, inverse cdf.
///
/// The SSTA engine (Clark's MAX), yield computation P(D <= T), and lognormal
/// percentile queries all reduce to these three functions. The inverse CDF
/// uses Acklam's rational approximation refined with one Halley step, giving
/// ~1e-15 relative accuracy — more than enough to resolve 99.9% yield targets.
///
/// phi and Phi run the in-repo exp and erfc (util/exp.hpp, util/erfc.hpp),
/// so their bits do not depend on the host's libm, and the eight-lane Clark
/// max (ssta/clark_lanes.hpp) can evaluate the same expressions per lane.

#pragma once

#include <cmath>

#include "util/erfc.hpp"
#include "util/exp.hpp"

namespace statleak {

inline constexpr double kInvSqrt2Pi = 0.3989422804014326779399461;
inline constexpr double kInvSqrt2 = 0.7071067811865475244008444;

/// Standard normal probability density phi(x).
inline double normal_pdf(double x) {
  return kInvSqrt2Pi * exp_f64(-0.5 * x * x);
}

/// Standard normal cumulative distribution Phi(x), accurate in both tails
/// (implemented with erfc to avoid cancellation for x << 0).
inline double normal_cdf(double x) {
  return 0.5 * erfc_f64(-x * kInvSqrt2);
}

/// cdf = normal_cdf(x) and cdf_neg = normal_cdf(-x), bit for bit, from one
/// erfc evaluation.
inline void normal_cdf_pair(double x, double& cdf, double& cdf_neg) {
  const double u = x * kInvSqrt2;
  double pos;
  double neg;
  erfc_pair(std::fabs(u), pos, neg);
  // normal_cdf(x) is 0.5 * erfc(-u): erfc(-|u|) when u has no sign bit.
  cdf = 0.5 * (std::signbit(u) ? pos : neg);
  cdf_neg = 0.5 * (std::signbit(u) ? neg : pos);
}

/// Inverse standard normal CDF. Requires p in (0, 1); throws otherwise.
double normal_inverse_cdf(double p);

/// P(X <= x) for X ~ N(mean, stddev^2). stddev == 0 degenerates to a step.
double normal_cdf(double x, double mean, double stddev);

/// Quantile of N(mean, stddev^2).
double normal_quantile(double p, double mean, double stddev);

}  // namespace statleak
