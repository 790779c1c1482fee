#include "ssta/canonical.hpp"

#include <algorithm>
#include <cmath>

#include "util/clark.hpp"
#include "util/normal.hpp"

namespace statleak {

double Canonical::sigma() const { return std::sqrt(variance()); }

double Canonical::cdf(double t) const {
  return normal_cdf(t, mean, sigma());
}

double Canonical::quantile(double p) const {
  return normal_quantile(p, mean, sigma());
}

Canonical Canonical::max(const Canonical& a, const Canonical& b,
                         double* tightness_out) {
  const double var_a = a.variance();
  const double var_b = b.variance();
  const double sig_a = std::sqrt(var_a);
  const double sig_b = std::sqrt(var_b);

  double rho = 0.0;
  if (sig_a > 0.0 && sig_b > 0.0) {
    rho = (a.gl * b.gl + a.gv * b.gv) / (sig_a * sig_b);
    rho = std::clamp(rho, -1.0, 1.0);
  }

  const ClarkMax cm = clark_max(a.mean, var_a, b.mean, var_b, rho);
  if (tightness_out != nullptr) *tightness_out = cm.tightness;

  Canonical out;
  out.mean = cm.mean;
  // Tightness-blend the global sensitivities, then assign whatever variance
  // remains to the independent term (clamped: Clark variance can fall below
  // the blended-global variance in near-degenerate cases).
  out.gl = cm.tightness * a.gl + (1.0 - cm.tightness) * b.gl;
  out.gv = cm.tightness * a.gv + (1.0 - cm.tightness) * b.gv;
  const double global_var = out.gl * out.gl + out.gv * out.gv;
  out.loc = std::sqrt(std::max(0.0, cm.variance - global_var));
  return out;
}

}  // namespace statleak
