// canonical_max_saturating (ssta/delay_model.hpp) against Canonical::max:
// the saturating max skips the transcendentals when one operand dominates,
// and must still return the same bits — mean, gl, gv, loc and tightness —
// on every input. Random operands cover the general branch; targeted ones
// sweep the normalized skew alpha across 8.3–9 (the proof's cutover near
// 8.3 and the kClarkSaturationAlpha = 8.75 threshold) on both sides of the
// sign guard `l.mean >= -w.mean`, with either operand winning, plus the
// degenerate band and fully correlated operands.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "ssta/canonical.hpp"
#include "ssta/delay_model.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs both maxima on (a, b) and expects equal bits everywhere; returns
/// the number of mismatching fields (so a sweep can stop early).
int expect_same(const Canonical& a, const Canonical& b) {
  double t_ref = -1.0;
  double t_sat = -2.0;
  const Canonical ref = Canonical::max(a, b, &t_ref);
  const Canonical sat = canonical_max_saturating(a, b, &t_sat);
  const Canonical sat_null = canonical_max_saturating(a, b, nullptr);
  int bad = 0;
  const auto check = [&](double r, double s, const char* what) {
    if (bits(r) == bits(s)) return;
    ++bad;
    ADD_FAILURE() << what << ": " << r << " vs " << s << " for a = {"
                  << a.mean << ", " << a.gl << ", " << a.gv << ", " << a.loc
                  << "}, b = {" << b.mean << ", " << b.gl << ", " << b.gv
                  << ", " << b.loc << "}";
  };
  check(ref.mean, sat.mean, "mean");
  check(ref.gl, sat.gl, "gl");
  check(ref.gv, sat.gv, "gv");
  check(ref.loc, sat.loc, "loc");
  check(t_ref, t_sat, "tightness");
  check(ref.mean, sat_null.mean, "mean (no tightness out)");
  check(ref.loc, sat_null.loc, "loc (no tightness out)");
  return bad;
}

/// theta = sqrt(Var(a - b)), computed as both maxima compute it.
double theta_of(const Canonical& a, const Canonical& b) {
  const double sig_a = std::sqrt(a.variance());
  const double sig_b = std::sqrt(b.variance());
  double rho = 0.0;
  if (sig_a > 0.0 && sig_b > 0.0) {
    rho = std::clamp((a.gl * b.gl + a.gv * b.gv) / (sig_a * sig_b), -1.0,
                     1.0);
  }
  return std::sqrt(std::max(
      0.0, a.variance() + b.variance() - 2.0 * rho * sig_a * sig_b));
}

/// Log-uniform magnitude in [10^lo, 10^hi].
double log_uniform(Rng& rng, double lo, double hi) {
  return std::pow(10.0, rng.uniform(lo, hi));
}

/// A random sensitivity: mostly a positive log-uniform magnitude, sometimes
/// negative, zero, negative zero or subnormal.
double sensitivity(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.04) return 0.0;
  if (u < 0.06) return -0.0;
  if (u < 0.08) return 3e-310;
  const double m = log_uniform(rng, -12.0, 3.0);
  return u < 0.2 ? -m : m;
}

Canonical random_operand(Rng& rng) {
  Canonical c;
  c.mean = rng.uniform() < 0.8 ? log_uniform(rng, -3.0, 4.0)
                               : rng.uniform(-1000.0, 1000.0);
  c.gl = sensitivity(rng);
  c.gv = sensitivity(rng);
  c.loc = std::fabs(sensitivity(rng));
  return c;
}

/// Winner w and loser l with the same shapes, the loser's sensitivities a
/// random relative perturbation of the winner's (so theta ranges from far
/// below to far above the sigmas).
void random_shapes(Rng& rng, Canonical& w, Canonical& l) {
  w = random_operand(rng);
  l = random_operand(rng);
  if (rng.uniform() < 0.5) {
    const double eps = log_uniform(rng, -9.0, 0.0);
    l.gl = w.gl * (1.0 + eps * rng.uniform(-1.0, 1.0));
    l.gv = w.gv * (1.0 + eps * rng.uniform(-1.0, 1.0));
    l.loc = w.loc * (1.0 + eps * rng.uniform(0.0, 1.0));
  }
}

/// Runs (w, l) in both argument orders, so either side of the max wins.
int expect_same_both_orders(const Canonical& w, const Canonical& l) {
  return expect_same(w, l) + expect_same(l, w);
}

TEST(ClarkSaturationTest, RandomOperands) {
  Rng rng(101);
  for (int i = 0; i < 200'000; ++i) {
    const Canonical a = random_operand(rng);
    const Canonical b = random_operand(rng);
    if (expect_same(a, b) > 0) return;
  }
}

TEST(ClarkSaturationTest, SkewSweepAcrossTheThreshold) {
  // alpha uniform over 8.3–9 with either operand winning, the winner's
  // mean positive and the loser's anywhere from well above -w.mean down to
  // just past it.
  Rng rng(102);
  int trials = 0;
  while (trials < 200'000) {
    Canonical w;
    Canonical l;
    random_shapes(rng, w, l);
    const double theta = theta_of(w, l);
    if (!(theta > 0.0) || !std::isfinite(theta)) continue;
    const double alpha = rng.uniform(8.3, 9.0);
    w.mean = alpha * theta * log_uniform(rng, -0.4, 2.0);
    l.mean = w.mean - alpha * theta;
    ++trials;
    if (expect_same_both_orders(w, l) > 0) return;
  }
}

TEST(ClarkSaturationTest, UlpStepsAroundTheThreshold) {
  // The loser's mean stepped ulp by ulp through alpha == 8.75, so the
  // saturated branch and the general one meet on neighbouring inputs.
  Rng rng(103);
  int trials = 0;
  while (trials < 2'000) {
    Canonical w;
    Canonical l;
    random_shapes(rng, w, l);
    const double theta = theta_of(w, l);
    if (!(theta > 0.0) || !std::isfinite(theta)) continue;
    w.mean = kClarkSaturationAlpha * theta * log_uniform(rng, -0.3, 1.0);
    const double l0 = w.mean - kClarkSaturationAlpha * theta;
    ++trials;
    double up = l0;
    double down = l0;
    for (int k = 0; k < 24; ++k) {
      l.mean = up;
      if (expect_same_both_orders(w, l) > 0) return;
      l.mean = down;
      if (expect_same_both_orders(w, l) > 0) return;
      up = std::nextafter(up, HUGE_VAL);
      down = std::nextafter(down, -HUGE_VAL);
    }
  }
}

TEST(ClarkSaturationTest, BothSidesOfTheSignGuard) {
  // l.mean next to -w.mean: the guard `l.mean >= -w.mean` holds, holds with
  // equality, or fails by a hair (then the general formula runs), at alpha
  // from 8.75 up to far beyond it, and with a negative winner.
  Rng rng(104);
  int trials = 0;
  while (trials < 50'000) {
    Canonical w;
    Canonical l;
    random_shapes(rng, w, l);
    const double theta = theta_of(w, l);
    if (!(theta > 0.0) || !std::isfinite(theta)) continue;
    const double alpha = rng.uniform() < 0.5 ? rng.uniform(8.3, 9.0)
                                             : log_uniform(rng, 0.95, 3.0);
    const double half = 0.5 * alpha * theta;
    const double u = rng.uniform();
    if (u < 0.25) {
      w.mean = half;
      l.mean = -half;  // guard holds with equality
    } else if (u < 0.5) {
      w.mean = half * (1.0 + rng.uniform(-1e-3, 1e-3));
      l.mean = w.mean - alpha * theta;
    } else if (u < 0.75) {
      w.mean = half;
      l.mean = std::nextafter(-half, -HUGE_VAL);  // fails by one ulp
    } else {
      w.mean = -half * log_uniform(rng, -3.0, 1.0);  // winner below zero
      l.mean = w.mean - alpha * theta;
    }
    ++trials;
    if (expect_same_both_orders(w, l) > 0) return;
  }
}

TEST(ClarkSaturationTest, TinyLoserSensitivityWhenTheSecondOperandWins) {
  // On the alpha <= -8.75 side the gl/gv blend runs with the true
  // tightness: tight * a.gl can be significant next to a tiny b.gl.
  Rng rng(105);
  for (int i = 0; i < 50'000; ++i) {
    Canonical a = random_operand(rng);
    Canonical b = random_operand(rng);
    b.gl = rng.uniform() < 0.5 ? 0.0 : log_uniform(rng, -300.0, -15.0);
    b.gv = rng.uniform() < 0.5 ? -0.0 : log_uniform(rng, -300.0, -15.0);
    a.gl = log_uniform(rng, -3.0, 2.0);
    const double theta = theta_of(a, b);
    if (!(theta > 0.0) || !std::isfinite(theta)) continue;
    const double alpha = rng.uniform(8.3, 30.0);
    b.mean = std::fabs(b.mean) + alpha * theta;
    a.mean = b.mean - alpha * theta;
    if (expect_same(a, b) > 0) return;
  }
}

TEST(ClarkSaturationTest, DegenerateBandAndFullCorrelation) {
  // Operands whose difference is (nearly) deterministic: identical or
  // scaled global sensitivities with no local part (rho clamps to +-1), and
  // relative perturbations around the 1e-7 degeneracy threshold.
  Rng rng(106);
  for (int i = 0; i < 50'000; ++i) {
    Canonical a = random_operand(rng);
    Canonical b = a;
    const double u = rng.uniform();
    if (u < 0.3) {
      a.loc = 0.0;
      b.loc = 0.0;
      const double s = rng.uniform() < 0.5 ? 1.0 : rng.uniform(0.5, 2.0);
      b.gl = s * a.gl;
      b.gv = s * a.gv;
    } else {
      const double eps = log_uniform(rng, -10.0, -5.0);
      b.gl = a.gl * (1.0 + eps * rng.uniform(-1.0, 1.0));
      b.gv = a.gv * (1.0 + eps * rng.uniform(-1.0, 1.0));
      b.loc = a.loc * (1.0 + eps * rng.uniform(-1.0, 1.0));
    }
    const double theta = theta_of(a, b);
    const double step = theta > 0.0 && std::isfinite(theta) ? theta : 1e-9;
    b.mean = a.mean - rng.uniform(-12.0, 12.0) * step;
    if (expect_same_both_orders(a, b) > 0) return;
  }
}

}  // namespace
}  // namespace statleak
