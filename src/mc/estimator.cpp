#include "mc/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "ssta/canonical.hpp"
#include "ssta/flat_incremental.hpp"
#include "util/error.hpp"
#include "util/normal.hpp"

namespace statleak {

namespace {

/// Largest shift magnitude we ever apply: beyond ~6 sigma the likelihood
/// ratios degenerate faster than the tail localization helps.
constexpr double kMaxShiftSigma = 6.0;

/// E[exp(a*X + b*X^2)] for X ~ N(0, sigma2) — the same closed form
/// leakage.cpp uses for the per-gate moments. Requires 2*b*sigma2 < 1.
double gaussian_exp_moment(double a, double b, double sigma2) {
  const double denom = 1.0 - 2.0 * b * sigma2;
  STATLEAK_CHECK(denom > 0.0,
                 "quadratic leakage exponent too large for the variation "
                 "model (2*q*sigma_L^2 must stay below 1)");
  return std::exp(a * a * sigma2 / (2.0 * denom)) / std::sqrt(denom);
}

}  // namespace

IsShift compute_timing_is_shift(const Circuit& circuit,
                                const CellLibrary& lib,
                                const VariationModel& var,
                                double t_max_ps) {
  const Canonical d = FlatSstaEngine(circuit, lib, var).circuit_delay();
  const double g = std::sqrt(d.gl * d.gl + d.gv * d.gv);
  if (g <= 0.0) return {};  // no global sensitivity: nothing to shift along
  const double var_tot = d.variance();
  if (var_tot <= 0.0) return {};
  // Conditional-mean shift: for the linear-Gaussian model the optimal
  // proposal mean is E[(Z_L, Z_V) | D > t] ~= (gl, gv) * (t - mean) /
  // sigma_tot^2 — the projection of the failure distance onto the global
  // subspace. When the local term vanishes this is the classic
  // most-likely-failure-point (t - mean) / ||g||; with local noise it
  // backs off, because failures then also happen at milder global draws.
  // <= 0 means the target is not in the tail.
  const double dist = (t_max_ps - d.mean) * g / var_tot;
  if (dist <= 0.0) return {};
  const double mag = std::min(dist, kMaxShiftSigma);
  IsShift s;
  s.l_sigma = mag * d.gl / g;
  s.v_sigma = mag * d.gv / g;
  return s;
}

IsShift compute_leakage_is_shift(const CellLibrary& lib,
                                 const VariationModel& var, double p) {
  STATLEAK_CHECK(p > 0.5 && p < 1.0,
                 "leakage IS shift targets an upper-tail quantile in "
                 "(0.5, 1)");
  const DeviceSensitivities& sens = lib.sensitivities(Vth::kLow);
  // Global log-leakage factor G = -cL*sigma_Lg*Zl - cV*sigma_Vg*Zv; shift
  // toward G's p-quantile along its gradient.
  const double al = -sens.leak_cl_per_nm * var.sigma_l_inter_nm;
  const double av = -sens.leak_cv_per_v * var.sigma_vth_inter_v;
  const double g = std::sqrt(al * al + av * av);
  if (g <= 0.0) return {};
  const double mag = std::min(normal_inverse_cdf(p), kMaxShiftSigma);
  IsShift s;
  s.l_sigma = mag * al / g;
  s.v_sigma = mag * av / g;
  return s;
}

CvLeakageModel::CvLeakageModel(const Circuit& circuit,
                               const CellLibrary& lib,
                               const VariationModel& var) {
  const DeviceSensitivities& sens = lib.sensitivities(Vth::kLow);
  cl_ = sens.leak_cl_per_nm;
  cv_ = sens.leak_cv_per_v;
  q_ = sens.leak_q_per_nm2;
  sig_ll2_ = var.sigma_l_intra_nm * var.sigma_l_intra_nm;
  const double sig_l_tot2 = sig_ll2_ + var.sigma_l_inter_nm *
                                           var.sigma_l_inter_nm;
  const double sig_v_inter2 =
      var.sigma_vth_inter_v * var.sigma_vth_inter_v;

  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    if (g.kind == CellKind::kInput) continue;
    const double nominal = lib.leakage_na(g.kind, g.vth, g.size);
    // Pelgrom scaling makes the intra-die Vth sigma width-dependent; both
    // the conditional-mean factor and the analytic mean honour it.
    const double sv_loc =
        var.sigma_vth_intra_for(lib.area_um(g.kind, g.size));
    base_sum_na_ +=
        nominal * gaussian_exp_moment(-cv_, 0.0, sv_loc * sv_loc);
    analytic_mean_na_ +=
        nominal * gaussian_exp_moment(-cl_, q_, sig_l_tot2) *
        gaussian_exp_moment(-cv_, 0.0, sig_v_inter2 + sv_loc * sv_loc);
  }
}

double CvLeakageModel::proxy_na(const GlobalSample& g) const {
  // E[L_g | global] = nominal_g * mv_g
  //     * exp(-cL*dLg - cV*dVg + q*dLg^2)
  //     * E[exp((-cL + 2q*dLg) X + q X^2)],  X ~ N(0, sigma_Ll^2);
  // only the nominal_g * mv_g factor is gate-specific, so the sum over
  // gates is base_sum_na_ and the rest evaluates once per sample.
  const double global_factor =
      std::exp(-cl_ * g.dl_nm - cv_ * g.dvth_v + q_ * g.dl_nm * g.dl_nm) *
      gaussian_exp_moment(-cl_ + 2.0 * q_ * g.dl_nm, q_, sig_ll2_);
  return base_sum_na_ * global_factor;
}

}  // namespace statleak
