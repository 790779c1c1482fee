#include "leakage/leakage.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/normal.hpp"

namespace statleak {

namespace {

/// E[exp(a*X + b*X^2)] for X ~ N(0, sigma2). Requires 2*b*sigma2 < 1.
double gaussian_exp_moment(double a, double b, double sigma2) {
  const double denom = 1.0 - 2.0 * b * sigma2;
  STATLEAK_CHECK(denom > 0.0,
                 "quadratic leakage exponent too large for the variation "
                 "model (2*q*sigma_L^2 must stay below 1)");
  return std::exp(a * a * sigma2 / (2.0 * denom)) / std::sqrt(denom);
}

}  // namespace

double LeakageDistribution::stddev_na() const { return std::sqrt(var_na2); }

LeakageModel::LeakageModel(const CellLibrary& lib, const VariationModel& var)
    : lib_(lib), var_(var) {
  const auto& lvt = lib.sensitivities(Vth::kLow);
  const auto& hvt = lib.sensitivities(Vth::kHigh);
  // The Wilkinson covariance factor assumes one shared exponent pair; the
  // device model guarantees it (roll-off and slope are Vth-independent).
  STATLEAK_CHECK(std::abs(lvt.leak_cl_per_nm - hvt.leak_cl_per_nm) < 1e-12 &&
                     std::abs(lvt.leak_cv_per_v - hvt.leak_cv_per_v) < 1e-12,
                 "leakage exponents must not depend on the Vth class");
  cl_ = lvt.leak_cl_per_nm;
  cv_ = lvt.leak_cv_per_v;
  q_ = lvt.leak_q_per_nm2;

  sig_l2_ = var.sigma_l_inter_nm * var.sigma_l_inter_nm +
            var.sigma_l_intra_nm * var.sigma_l_intra_nm;
  sig_v_inter2_ = var.sigma_vth_inter_v * var.sigma_vth_inter_v;
  const double sig_v2 =
      sig_v_inter2_ + var.sigma_vth_intra_v * var.sigma_vth_intra_v;

  log_sigma2_ = cl_ * cl_ * sig_l2_ + cv_ * cv_ * sig_v2;
  log_cov_global_ = cl_ * cl_ * var.sigma_l_inter_nm * var.sigma_l_inter_nm +
                    cv_ * cv_ * sig_v_inter2_;
  cov_factor_ = std::exp(log_cov_global_) - 1.0;

  // First and second exponential moments of the per-gate exponent
  // Y = -cL*X_L - cV*X_V + q*X_L^2 with X_L, X_V independent Gaussians.
  // Cached for the common (non-Pelgrom) case where they are gate-invariant.
  mean_factor_ = gaussian_exp_moment(-cl_, q_, sig_l2_) *
                 gaussian_exp_moment(-cv_, 0.0, sig_v2);
  m2_factor_ = gaussian_exp_moment(-2.0 * cl_, 2.0 * q_, sig_l2_) *
               gaussian_exp_moment(-2.0 * cv_, 0.0, sig_v2);
}

GateLeakMoments LeakageModel::gate_moments(CellKind kind, Vth vth,
                                           double size) const {
  const double nominal = lib_.leakage_na(kind, vth, size);
  double mean_factor = mean_factor_;
  double m2_factor = m2_factor_;
  if (var_.pelgrom_vth_scaling) {
    // Width-dependent intra-die Vth sigma: recompute the exponential
    // moments for this gate's device width.
    const double sv_intra =
        var_.sigma_vth_intra_for(lib_.area_um(kind, size));
    const double sig_v2 = sig_v_inter2_ + sv_intra * sv_intra;
    mean_factor = gaussian_exp_moment(-cl_, q_, sig_l2_) *
                  gaussian_exp_moment(-cv_, 0.0, sig_v2);
    m2_factor = gaussian_exp_moment(-2.0 * cl_, 2.0 * q_, sig_l2_) *
                gaussian_exp_moment(-2.0 * cv_, 0.0, sig_v2);
  }
  GateLeakMoments m;
  m.mean_na = nominal * mean_factor;
  m.var_na2 = std::max(
      0.0, nominal * nominal * (m2_factor - mean_factor * mean_factor));
  return m;
}

LeakageAnalyzer::LeakageAnalyzer(const Circuit& circuit,
                                 const CellLibrary& lib,
                                 const VariationModel& var)
    : circuit_(circuit), model_(lib, var) {
  STATLEAK_CHECK(circuit.finalized(),
                 "LeakageAnalyzer requires a finalized circuit");
  rebuild();
}

void LeakageAnalyzer::rebuild() {
  const std::size_t n = circuit_.num_gates();
  moments_.assign(n, GateLeakMoments{});
  std::vector<double> mean(n, 0.0), mean_sq(n, 0.0), var(n, 0.0);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = circuit_.gate(id);
    if (g.kind == CellKind::kInput) continue;  // slots stay zero
    moments_[id] = model_.gate_moments(g.kind, g.vth, g.size);
    mean[id] = moments_[id].mean_na;
    mean_sq[id] = moments_[id].mean_na * moments_[id].mean_na;
    var[id] = moments_[id].var_na2;
  }
  sum_mean_.reset(n);
  sum_mean_sq_.reset(n);
  sum_var_.reset(n);
  sum_mean_.assign(mean);
  sum_mean_sq_.assign(mean_sq);
  sum_var_.assign(var);
}

void LeakageAnalyzer::on_gate_changed(GateId id) {
  const Gate& g = circuit_.gate(id);
  if (g.kind == CellKind::kInput) return;
  const GateLeakMoments m = model_.gate_moments(g.kind, g.vth, g.size);
  moments_[id] = m;
  sum_mean_.set(id, m.mean_na);
  sum_mean_sq_.set(id, m.mean_na * m.mean_na);
  sum_var_.set(id, m.var_na2);
}

LeakageDistribution LeakageAnalyzer::assemble(double sum_mean,
                                              double sum_mean_sq,
                                              double sum_var) const {
  LeakageDistribution d;
  d.mean_na = sum_mean;
  const double pairwise =
      model_.cov_factor() * std::max(0.0, sum_mean * sum_mean - sum_mean_sq);
  d.var_na2 = sum_var + pairwise;
  d.fitted = Lognormal::from_moments(std::max(sum_mean, 1e-12), d.var_na2);
  return d;
}

LeakageDistribution LeakageAnalyzer::distribution() const {
  return assemble(sum_mean_.total(), sum_mean_sq_.total(), sum_var_.total());
}

double LeakageAnalyzer::nominal_na() const {
  double total = 0.0;
  const CellLibrary& lib = model_.library();
  for (GateId id = 0; id < circuit_.num_gates(); ++id) {
    const Gate& g = circuit_.gate(id);
    if (g.kind == CellKind::kInput) continue;
    total += lib.leakage_na(g.kind, g.vth, g.size);
  }
  return total;
}

LeakDeltaPricer LeakageAnalyzer::delta_pricer(double p) const {
  LeakDeltaPricer pricer;
  pricer.sum_mean = sum_mean_.total();
  pricer.sum_mean_sq = sum_mean_sq_.total();
  pricer.sum_var = sum_var_.total();
  pricer.cov_factor = model_.cov_factor();
  pricer.z = normal_inverse_cdf(p);
  return pricer;
}

double LeakageAnalyzer::quantile_if_na(GateId id, Vth vth, double size,
                                       double p) const {
  const Gate& g = circuit_.gate(id);
  STATLEAK_CHECK(g.kind != CellKind::kInput,
                 "cannot re-price a primary input");
  // Scalar delta on the exact tree totals — O(1) per candidate; see the
  // header for why pricing does not need the tree-shaped re-sum. The
  // expression sequence lives in LeakDeltaPricer so batched scoring shares
  // it bit for bit.
  return delta_pricer(p).quantile_na(moments_[id],
                                     model_.gate_moments(g.kind, vth, size));
}

}  // namespace statleak
