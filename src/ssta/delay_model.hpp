/// \file delay_model.hpp
/// \brief Shared per-gate canonical-delay and Clark-chain helpers.
///
/// The SSTA engine, the flat SoA FlatSstaEngine (flat_incremental.hpp),
/// must produce arrivals *bit-identical* to the plain full-pass reference
/// in tests/graph_oracle.hpp — the contract tests/ssta_incremental_test.cpp
/// pins. The two computations that decide every arrival bit are the gate's
/// own canonical delay and the iterated Clark MAX over its fanin arrivals.
/// Defining both once, inline, and calling them from the engine and the
/// oracle makes the bit-identity hold by construction: there is exactly one
/// expression shape, so the IEEE-754 operation order per gate cannot drift
/// between the two.

#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "cells/library.hpp"
#include "ssta/canonical.hpp"
#include "tech/variation.hpp"
#include "util/normal.hpp"

namespace statleak {

/// Canonical delay of one gate under the variation model: nominal delay at
/// the given load, first-order global dL/dVth sensitivities, and the
/// intra-die contributions RSSed into the local term (the intra Vth sigma
/// honours Pelgrom width scaling through the gate's drawn area).
inline Canonical canonical_gate_delay(const CellLibrary& lib,
                                      const VariationModel& var, CellKind kind,
                                      Vth vth, double size, double load_ff) {
  Canonical d;
  if (kind == CellKind::kInput) return d;
  const double d0 = lib.delay_ps(kind, vth, size, load_ff);
  const auto& s = lib.sensitivities(vth);
  d.mean = d0;
  d.gl = d0 * s.delay_sl_per_nm * var.sigma_l_inter_nm;
  d.gv = d0 * s.delay_sv_per_v * var.sigma_vth_inter_v;
  const double sigma_vth_intra =
      var.sigma_vth_intra_for(lib.area_um(kind, size));
  const double loc_l = d0 * s.delay_sl_per_nm * var.sigma_l_intra_nm;
  const double loc_v = d0 * s.delay_sv_per_v * sigma_vth_intra;
  d.loc = std::sqrt(loc_l * loc_l + loc_v * loc_v);
  return d;
}

/// Iterated Clark max over a non-empty operand set, recording per-operand
/// win probabilities into `weights` (which must hold operands.size()
/// doubles). Approximate: sequential binary-max tightness products — the
/// same chain a full forward pass uses, so re-running it over an unchanged
/// operand set reproduces every bit.
inline Canonical clark_max_chain(std::span<const Canonical> operands,
                                 double* weights) {
  Canonical running = operands[0];
  weights[0] = 1.0;
  for (std::size_t i = 1; i < operands.size(); ++i) {
    double tight = 1.0;
    running = Canonical::max(running, operands[i], &tight);
    for (std::size_t j = 0; j < i; ++j) weights[j] *= tight;
    weights[i] = 1.0 - tight;
  }
  return running;
}

/// Normalized-skew threshold beyond which the Clark max saturates: for
/// |alpha| >= 8.75, normal_cdf(|alpha|) rounds to exactly 1.0 (the
/// complement Q(8.75) ≈ 1.05e-18 is far below half an ulp of 1.0) and the
/// losing operand's contributions to the blended mean and second moment
/// fall below half an ulp of the winner's at every accumulation step of
/// clark_max — provided the sign guards in canonical_max_saturating hold.
/// The worst-case margin (second-moment term, ≈2.3e-18 of the surviving
/// moment, versus a relative half-ulp of at least 5.5e-17) is ≥19x, which
/// tolerates several orders of magnitude of libm erfc inaccuracy. The
/// cutover where the proof would first fail is alpha ≈ 8.3.
inline constexpr double kClarkSaturationAlpha = 8.75;

/// Bit-identical replacement for Canonical::max that skips the expensive
/// transcendentals (2x erfc + 1x exp in util/clark.cpp) when one operand
/// statistically dominates the other. Every branch — the two saturated
/// fast paths, the degenerate case, and the general Clark formula —
/// replicates the exact expression shapes of clark_max (util/clark.cpp)
/// followed by Canonical::max's sensitivity-blend postlude, so the result
/// (mean/gl/gv/loc and *tightness_out) equals Canonical::max(a, b,
/// tightness_out) bit for bit on every input (pinned by
/// tests/clark_saturation_test.cpp). Inlining the non-saturated branches
/// here (instead of calling Canonical::max) avoids recomputing the
/// variance/sigma/rho/theta prefix a second time.
///
/// Saturation argument, winner w / loser l, alpha = (a.mean - b.mean)/theta:
///  - tightness: normal_cdf(±alpha) is exactly 1.0 resp. < 1.05e-18.
///  - sign guard `l.mean >= -w.mean`: forces w.mean > 0 and |l.mean| <=
///    w.mean (the opposite ordering contradicts |alpha| >= 8.75), so every
///    absorbed term is bounded by a tiny multiple of the surviving one:
///    |l.mean|*cdf <= 1.05e-18*w.mean and theta*pdf <= 0.229*w.mean*8.7e-18,
///    both under the relative half-ulp floor 5.5e-17*w.mean —
///    fl(w.mean + t) == w.mean at each left-associated accumulation step.
///  - second moment: theta <= 0.229*w.mean bounds the loser's variance by
///    (sigma_w + 0.229*w.mean)^2, so (var_l + l.mean^2)*cdf <= 2.2*(var_w +
///    w.mean^2)*1.05e-18, again absorbed. The (m1+m2)*theta*phi term is
///    <= 4.0e-18*(var_w + w.mean^2). Non-degeneracy (theta >= 1e-15) plus
///    the sign guard puts w.mean >= 4.4e-15, comfortably normal, so the
///    relative half-ulp floor applies.
/// The variance keeps clark_max's exact rounding detour through the second
/// moment — fl(fl(var_w + w.mean^2) - w.mean^2) is NOT var_w in general —
/// and the gl/gv blend executes literally with the true tightness (on the
/// alpha <= -8.75 side tight*a.gl can be significant when b.gl is tiny), at
/// the price of one erfc there. fl(1.0 - tight) == 1.0 for tight < 1.05e-18.
inline Canonical canonical_max_saturating(const Canonical& a,
                                          const Canonical& b,
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
  const double theta2 =
      std::max(0.0, var_a + var_b - 2.0 * rho * sig_a * sig_b);
  const double theta = std::sqrt(theta2);
  // clark_max judges degeneracy with theta < 1e-7*scale + 1e-15, scale =
  // sqrt(max(var_a, var_b, 1e-300)). Since (x + y)^2 <= 2x^2 + 2y^2, that
  // threshold squared is at most 2e-14*max_var + 2e-30; testing theta2
  // against double that keeps a sqrt(2) margin (the 2x^2+2y^2 bound is
  // tight at x == y, where rounding could otherwise flip the branch), so a
  // pass certainly clears clark_max's test and the scale sqrt is skipped.
  // Only the ambiguous band evaluates the predicate literally.
  const double max_var = std::max({var_a, var_b, 1e-300});
  const bool degenerate =
      theta2 > 4.1e-14 * max_var + 4.1e-30
          ? false
          : theta < 1e-7 * std::sqrt(max_var) + 1e-15;
  double tight;
  double mean;
  double variance;
  if (degenerate) {
    // clark_max's degenerate branch: X - Y is numerically deterministic,
    // the max is the operand with the larger mean, variance untouched (no
    // second-moment detour).
    if (a.mean >= b.mean) {
      mean = a.mean;
      variance = var_a;
      tight = 1.0;
    } else {
      mean = b.mean;
      variance = var_b;
      tight = 0.0;
    }
  } else {
    const double alpha = (a.mean - b.mean) / theta;
    if (alpha >= kClarkSaturationAlpha && b.mean >= -a.mean) {
      // Saturated, a wins: Phi rounds to exactly 1.0, the b-side terms are
      // absorbed. The blend fl(1.0*a.gl + 0.0*b.gl) is a.gl + 0.0*b.gl,
      // which equals a.gl except for a signed zero (-0.0 + 0.0 is +0.0).
      if (tightness_out != nullptr) *tightness_out = 1.0;
      Canonical out;
      out.mean = a.mean;
      const double second_moment = var_a + a.mean * a.mean;
      const double sat_var = std::max(0.0, second_moment - out.mean * out.mean);
      out.gl = a.gl + 0.0 * b.gl;
      out.gv = a.gv + 0.0 * b.gv;
      const double global_var = out.gl * out.gl + out.gv * out.gv;
      out.loc = std::sqrt(std::max(0.0, sat_var - global_var));
      return out;
    }
    if (alpha <= -kClarkSaturationAlpha && a.mean >= -b.mean) {
      // Saturated, b wins: the a-side mean/moment terms are absorbed, but
      // the gl/gv blend still needs the true (tiny) tightness — one erfc,
      // no pdf, no second erfc.
      tight = normal_cdf(alpha);  // same call as clark_max
      mean = b.mean;
      const double second_moment = var_b + b.mean * b.mean;
      variance = std::max(0.0, second_moment - mean * mean);
    } else {
      // General case: clark_max's full formula, inlined.
      const double phi = normal_pdf(alpha);
      double Phi;
      double Phi_neg;
      normal_cdf_pair(alpha, Phi, Phi_neg);
      tight = Phi;
      mean = a.mean * Phi + b.mean * Phi_neg + theta * phi;
      const double second_moment = (var_a + a.mean * a.mean) * Phi +
                                   (var_b + b.mean * b.mean) * Phi_neg +
                                   (a.mean + b.mean) * theta * phi;
      variance = std::max(0.0, second_moment - mean * mean);
    }
  }
  // Canonical::max's postlude, executed literally with the branch's
  // tightness (1.0 / 0.0 in the degenerate case).
  if (tightness_out != nullptr) *tightness_out = tight;
  Canonical out;
  out.mean = mean;
  out.gl = tight * a.gl + (1.0 - tight) * b.gl;
  out.gv = tight * a.gv + (1.0 - tight) * b.gv;
  const double global_var = out.gl * out.gl + out.gv * out.gv;
  out.loc = std::sqrt(std::max(0.0, variance - global_var));
  return out;
}

/// clark_max_chain with the saturating binary max and a skipped rescale
/// row whenever a step's tightness is exactly 1.0 (x * 1.0 == x bit for bit
/// for every finite x, including -0.0 and subnormals). Bit-identical to
/// clark_max_chain on both the returned Canonical and every weight.
inline Canonical clark_max_chain_saturating(std::span<const Canonical> operands,
                                            double* weights) {
  Canonical running = operands[0];
  weights[0] = 1.0;
  for (std::size_t i = 1; i < operands.size(); ++i) {
    double tight = 1.0;
    running = canonical_max_saturating(running, operands[i], &tight);
    if (tight != 1.0) {
      for (std::size_t j = 0; j < i; ++j) weights[j] *= tight;
    }
    weights[i] = 1.0 - tight;
  }
  return running;
}

}  // namespace statleak
