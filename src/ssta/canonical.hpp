/// \file canonical.hpp
/// \brief First-order canonical (linear-Gaussian) random delay form.
///
/// Every timing quantity is expressed as
///
///   A = mean + gl * Z_L + gv * Z_V + loc * z
///
/// where Z_L, Z_V are the *shared* standard-normal inter-die sources
/// (channel length and threshold voltage) and z is an aggregated independent
/// standard-normal capturing intra-die contributions. SUM adds means and
/// global coefficients and RSSes the local term; MAX uses Clark's moment
/// matching with the correlation induced by the shared globals, then
/// re-expresses the result in canonical form by tightness-blending the
/// global coefficients and assigning the variance remainder to the local
/// term (Visweswariah-style).

#pragma once

#include <cmath>

namespace statleak {

struct Canonical {
  double mean = 0.0;
  double gl = 0.0;   ///< sensitivity to the global dL source [ps per sigma]
  double gv = 0.0;   ///< sensitivity to the global dVth source [ps per sigma]
  double loc = 0.0;  ///< aggregated independent (intra-die) term [ps]

  double variance() const { return gl * gl + gv * gv + loc * loc; }
  double sigma() const;

  /// P(A <= t) under the Gaussian model.
  double cdf(double t) const;
  /// p-quantile.
  double quantile(double p) const;

  /// A + B where B's local part is independent of A's (gate delay added to
  /// an arrival time). Inline: the cone retime calls it once per gate.
  static Canonical sum(const Canonical& a, const Canonical& b) {
    Canonical out;
    out.mean = a.mean + b.mean;
    out.gl = a.gl + b.gl;
    out.gv = a.gv + b.gv;
    out.loc = std::sqrt(a.loc * a.loc + b.loc * b.loc);
    return out;
  }

  /// Clark max of two canonicals; correlation comes from the shared global
  /// terms only (block-based approximation: path-history correlation of the
  /// local parts is ignored).
  /// If `tightness_out` is non-null it receives P(a >= b).
  static Canonical max(const Canonical& a, const Canonical& b,
                       double* tightness_out = nullptr);
};

}  // namespace statleak
