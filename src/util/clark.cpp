#include "util/clark.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/normal.hpp"

namespace statleak {

ClarkMax clark_max(double mean1, double var1, double mean2, double var2,
                   double rho) {
  STATLEAK_CHECK(var1 >= 0.0 && var2 >= 0.0, "variances must be non-negative");
  STATLEAK_CHECK(rho >= -1.0000001 && rho <= 1.0000001,
                 "correlation must lie in [-1, 1]");
  rho = std::clamp(rho, -1.0, 1.0);

  const double s1 = std::sqrt(var1);
  const double s2 = std::sqrt(var2);
  // theta^2 = Var(X - Y)
  const double theta2 = std::max(0.0, var1 + var2 - 2.0 * rho * s1 * s2);
  const double theta = std::sqrt(theta2);

  ClarkMax out;
  // Degeneracy must be judged relative to the operand scales: perfectly
  // tracking operands leave a floating-point residue in theta2 of order
  // machine-epsilon * var, i.e. theta ~ sqrt(eps) * sigma ~ 1.5e-8 * sigma.
  const double scale = std::sqrt(std::max({var1, var2, 1e-300}));
  if (theta < 1e-7 * scale + 1e-15) {
    // X - Y is (numerically) deterministic: the max is simply the operand
    // with the larger mean.
    if (mean1 >= mean2) {
      out.mean = mean1;
      out.variance = var1;
      out.tightness = 1.0;
    } else {
      out.mean = mean2;
      out.variance = var2;
      out.tightness = 0.0;
    }
    return out;
  }

  const double alpha = (mean1 - mean2) / theta;
  const double phi = normal_pdf(alpha);
  double Phi;
  double Phi_neg;
  normal_cdf_pair(alpha, Phi, Phi_neg);

  out.tightness = Phi;
  out.mean = mean1 * Phi + mean2 * Phi_neg + theta * phi;
  const double second_moment = (var1 + mean1 * mean1) * Phi +
                               (var2 + mean2 * mean2) * Phi_neg +
                               (mean1 + mean2) * theta * phi;
  out.variance = std::max(0.0, second_moment - out.mean * out.mean);
  return out;
}

}  // namespace statleak
