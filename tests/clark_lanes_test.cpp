// The eight-lane fanin fold of the SSTA cone retime (ssta/clark_lanes.hpp)
// against the scalar fold it replaces: for two operands,
// Canonical::sum(canonical_max_saturating(a, b), d) with weights (t, 1 - t);
// for three and four, clark_max_chain_saturating and its weight algebra,
// lanes of different widths mixed in one batch. Every lane must equal the
// scalar bit for bit — mean, gl, gv, loc and every weight — in both ISA
// variants, on random operands and on the numerical edges: rho = +-1,
// sigma = 0, the degeneracy band, |alpha| one ulp around 8.75, extreme
// mean/sigma ratios and near-cancelling moments.

#include "ssta/clark_lanes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ssta/canonical.hpp"
#include "ssta/delay_model.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace statleak {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// One lane's gate: 2 to 4 operands and an own delay.
struct Gate8 {
  std::vector<Canonical> ops;
  Canonical delay;
};

void set_lane(CanonicalLanes& l, int k, const Canonical& c) {
  l.mean[k] = c.mean;
  l.gl[k] = c.gl;
  l.gv[k] = c.gv;
  l.loc[k] = c.loc;
}

/// Folds up to eight gates in one batch under `isa` and compares each lane
/// with the scalar fold. Returns the number of mismatching values.
int check_batch(const std::vector<Gate8>& gates, SimdIsa isa) {
  CanonicalLanes ops[kLaneMaxFanins] = {};
  CanonicalLanes delay = {};
  std::int64_t deg[8] = {2, 2, 2, 2, 2, 2, 2, 2};
  std::size_t width = 2;
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const Gate8& g = gates[k];
    deg[k] = static_cast<std::int64_t>(g.ops.size());
    width = std::max(width, g.ops.size());
    for (std::size_t i = 0; i < kLaneMaxFanins; ++i) {
      set_lane(ops[i], static_cast<int>(k),
               g.ops[std::min(i, g.ops.size() - 1)]);
    }
    set_lane(delay, static_cast<int>(k), g.delay);
  }
  CanonicalLanes out;
  double w[kLaneMaxFanins][8];
  clark_fold_x8(isa, ops, width, deg, delay, out, w);

  int bad = 0;
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const Gate8& g = gates[k];
    double want_w[kLaneMaxFanins];
    Canonical max;
    if (g.ops.size() == 2) {
      double tight = 1.0;
      max = canonical_max_saturating(g.ops[0], g.ops[1], &tight);
      want_w[0] = tight;
      want_w[1] = 1.0 - tight;
    } else {
      max = clark_max_chain_saturating(g.ops, want_w);
    }
    const Canonical want = Canonical::sum(max, g.delay);
    const auto check = [&](double expected, double got, const char* what) {
      if (bits(expected) == bits(got)) return;
      ++bad;
      ADD_FAILURE() << to_string(isa) << " lane " << k << " " << what << ": "
                    << got << " vs scalar " << expected << " (operands "
                    << g.ops.size() << ", first {" << g.ops[0].mean << ", "
                    << g.ops[0].gl << ", " << g.ops[0].gv << ", "
                    << g.ops[0].loc << "}, second {" << g.ops[1].mean << ", "
                    << g.ops[1].gl << ", " << g.ops[1].gv << ", "
                    << g.ops[1].loc << "})";
    };
    check(want.mean, out.mean[k], "mean");
    check(want.gl, out.gl[k], "gl");
    check(want.gv, out.gv[k], "gv");
    check(want.loc, out.loc[k], "loc");
    for (std::size_t i = 0; i < g.ops.size(); ++i) {
      check(want_w[i], w[i][k], "weight");
    }
  }
  return bad;
}

/// Runs the gates through both variants (AVX-512 only on a host with it),
/// eight at a time. Returns false after the first mismatching batch.
bool check_all(const std::vector<Gate8>& gates) {
  std::vector<SimdIsa> isas = {SimdIsa::kBaseline};
  if (host_simd_isa() == SimdIsa::kAvx512) isas.push_back(SimdIsa::kAvx512);
  for (std::size_t i = 0; i < gates.size(); i += 8) {
    const std::vector<Gate8> batch(
        gates.begin() + static_cast<std::ptrdiff_t>(i),
        gates.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + 8, gates.size())));
    for (const SimdIsa isa : isas) {
      if (check_batch(batch, isa) > 0) return false;
    }
  }
  return true;
}

double log_uniform(Rng& rng, double lo, double hi) {
  return std::pow(10.0, rng.uniform(lo, hi));
}

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

/// An arrival-like operand: mean in ps, sigmas a few percent of it.
Canonical arrival_like(Rng& rng) {
  const double mean = rng.uniform(10.0, 3000.0);
  return {mean, mean * rng.uniform(0.0, 0.05), mean * rng.uniform(0.0, 0.05),
          mean * rng.uniform(0.0, 0.03)};
}

/// sqrt(Var(a - b)) as the fold computes it.
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

/// A gate of 2 to 4 operands drawn by `make`, with an arrival-like delay.
template <typename Make>
Gate8 random_gate(Rng& rng, Make make) {
  Gate8 g;
  const std::size_t n = 2 + rng.uniform_index(3);
  for (std::size_t i = 0; i < n; ++i) g.ops.push_back(make(rng));
  g.delay = arrival_like(rng);
  return g;
}

TEST(ClarkLanesTest, RandomOperands) {
  Rng rng(201);
  std::vector<Gate8> gates;
  for (int i = 0; i < 40'000; ++i) gates.push_back(random_gate(rng, random_operand));
  EXPECT_TRUE(check_all(gates));
}

TEST(ClarkLanesTest, ArrivalLikeOperands) {
  // The retime's own regime: positive means, sigmas a few percent of them,
  // two-input gates dominating.
  Rng rng(202);
  std::vector<Gate8> gates;
  for (int i = 0; i < 40'000; ++i) {
    Gate8 g = random_gate(rng, arrival_like);
    if (rng.uniform() < 0.7) g.ops.resize(2);
    gates.push_back(g);
  }
  EXPECT_TRUE(check_all(gates));
}

TEST(ClarkLanesTest, FullCorrelationAndZeroSigma) {
  // rho = +1 (scaled globals, no local part), rho = -1 (negated globals),
  // sigma = 0 on one or both sides (the zero canonical of an input, or
  // deterministic delays), and identical operands.
  Rng rng(203);
  std::vector<Gate8> gates;
  for (int i = 0; i < 20'000; ++i) {
    Canonical a = arrival_like(rng);
    Canonical b = a;
    const double u = rng.uniform();
    if (u < 0.25) {
      a.loc = b.loc = 0.0;
      const double s = rng.uniform(0.5, 2.0);
      b.gl = s * a.gl;
      b.gv = s * a.gv;
    } else if (u < 0.5) {
      a.loc = b.loc = 0.0;
      b.gl = -a.gl;
      b.gv = -a.gv;
    } else if (u < 0.75) {
      b = {rng.uniform(0.0, 100.0), 0.0, 0.0, 0.0};
      if (rng.uniform() < 0.5) a = {rng.uniform(0.0, 100.0), 0.0, 0.0, 0.0};
    }
    b.mean = a.mean + rng.uniform(-3.0, 3.0) * (theta_of(a, b) + 1e-3);
    if (rng.uniform() < 0.1) b.mean = a.mean;
    gates.push_back({{a, b}, arrival_like(rng)});
  }
  EXPECT_TRUE(check_all(gates));
}

TEST(ClarkLanesTest, DegenerateBand) {
  // Relative perturbations around the 1e-7 degeneracy threshold, where
  // the scalar max evaluates its literal sqrt test.
  Rng rng(204);
  std::vector<Gate8> gates;
  for (int i = 0; i < 20'000; ++i) {
    const Canonical a = random_operand(rng);
    Canonical b = a;
    const double eps = log_uniform(rng, -10.0, -5.0);
    b.gl = a.gl * (1.0 + eps * rng.uniform(-1.0, 1.0));
    b.gv = a.gv * (1.0 + eps * rng.uniform(-1.0, 1.0));
    b.loc = a.loc * (1.0 + eps * rng.uniform(-1.0, 1.0));
    const double theta = theta_of(a, b);
    const double step = theta > 0.0 && std::isfinite(theta) ? theta : 1e-9;
    b.mean = a.mean - rng.uniform(-12.0, 12.0) * step;
    gates.push_back({{a, b}, arrival_like(rng)});
  }
  EXPECT_TRUE(check_all(gates));
}

TEST(ClarkLanesTest, SkewOneUlpAroundTheSaturationThreshold) {
  // The loser's mean stepped ulp by ulp through alpha = +-8.75, where the
  // scalar max switches between its saturated fast paths and the general
  // formula that every lane runs.
  Rng rng(205);
  std::vector<Gate8> gates;
  while (gates.size() < 20'000) {
    Canonical w = random_operand(rng);
    Canonical l = random_operand(rng);
    const double theta = theta_of(w, l);
    if (!(theta > 0.0) || !std::isfinite(theta)) continue;
    w.mean = kClarkSaturationAlpha * theta * log_uniform(rng, -0.3, 1.0);
    double m = w.mean - kClarkSaturationAlpha * theta;
    for (int k = 0; k < 6; ++k) m = std::nextafter(m, -HUGE_VAL);
    for (int k = 0; k < 12; ++k) {
      l.mean = m;
      gates.push_back({{w, l}, arrival_like(rng)});
      gates.push_back({{l, w}, arrival_like(rng)});
      m = std::nextafter(m, HUGE_VAL);
    }
  }
  EXPECT_TRUE(check_all(gates));
}

TEST(ClarkLanesTest, ExtremeRatiosAndNearCancellingMoments) {
  // Huge means over tiny sigmas (alpha far past the erfc table, exp
  // underflow in phi), tiny means over huge sigmas, and means of opposite
  // sign and near-equal size, where the second moment nearly cancels
  // mean^2.
  Rng rng(206);
  std::vector<Gate8> gates;
  for (int i = 0; i < 20'000; ++i) {
    Canonical a = random_operand(rng);
    Canonical b = random_operand(rng);
    const double u = rng.uniform();
    if (u < 0.3) {
      a.mean = log_uniform(rng, 3.0, 12.0);
      b.mean = a.mean * rng.uniform(0.0, 1.0);
      for (Canonical* c : {&a, &b}) {
        c->gl *= 1e-9;
        c->gv *= 1e-9;
        c->loc *= 1e-9;
      }
    } else if (u < 0.6) {
      a.mean = log_uniform(rng, -12.0, -6.0);
      b.mean = -a.mean * rng.uniform(0.0, 2.0);
      a.gl = log_uniform(rng, 2.0, 6.0);
    } else {
      a.mean = log_uniform(rng, 2.0, 8.0);
      b.mean = -a.mean * (1.0 + rng.uniform(-1e-12, 1e-12));
      b.gl = a.gl;
      b.gv = a.gv;
    }
    gates.push_back({{a, b}, arrival_like(rng)});
  }
  EXPECT_TRUE(check_all(gates));
}

/// clark_chain_weights against the row-by-row recurrence it reorders, in
/// both variants: m of 1, 2 (one row), 9 (one full block and one row), 411
/// and 11,776 (the output counts of c3540p-sized and s100k-sized
/// circuits), with rows of tightness exactly 1.0 (skipped) and exactly 0.0
/// mixed among random ones.
TEST(ClarkLanesTest, ChainWeightsMatchRowByRowRecurrence) {
  std::vector<SimdIsa> isas = {SimdIsa::kBaseline};
  if (host_simd_isa() == SimdIsa::kAvx512) isas.push_back(SimdIsa::kAvx512);
  Rng rng(29);
  for (const std::size_t m : {1u, 2u, 9u, 411u, 11776u}) {
    std::vector<double> tight(m, 1.0);
    for (std::size_t i = 1; i < m; ++i) {
      const double roll = rng.uniform();
      tight[i] = roll < 0.4 ? 1.0 : roll < 0.45 ? 0.0 : rng.uniform();
    }
    std::vector<double> want(m);
    want[0] = 1.0;
    for (std::size_t i = 1; i < m; ++i) {
      if (tight[i] != 1.0) {
        for (std::size_t j = 0; j < i; ++j) want[j] *= tight[i];
      }
      want[i] = 1.0 - tight[i];
    }
    for (const SimdIsa isa : isas) {
      std::vector<double> got(m, -1.0);
      clark_chain_weights(isa, tight.data(), m, got.data());
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(bits(got[j]), bits(want[j]))
            << "m " << m << ", weight " << j << ", " << to_string(isa);
      }
    }
  }
}

}  // namespace
}  // namespace statleak
