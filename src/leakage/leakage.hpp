/// \file leakage.hpp
/// \brief Analytic full-chip leakage distribution under process variation.
///
/// Gate i's leakage is Inom_i * exp(-cL*dL_i - cV*dVth_i): lognormal, since
/// dL_i and dVth_i are Gaussian. The total is a sum of lognormals that are
/// positively correlated through the shared inter-die components. Following
/// the DAC'04 approach, the sum is approximated by matching its exact first
/// two moments to a single lognormal (Wilkinson's method):
///
///   E[S]   = sum_i E[I_i]
///   Var[S] = sum_i Var[I_i] + (e^{c_g} - 1) * ((sum_i E[I_i])^2
///                                              - sum_i E[I_i]^2)
///
/// where c_g = cL^2 sigma_Lg^2 + cV^2 sigma_Vg^2 is the log-domain
/// covariance every gate pair shares (cL and cV are process constants,
/// identical for both threshold classes). All percentile queries then reduce
/// to lognormal quantiles.
///
/// The analyzer keeps per-gate moments and the three Wilkinson totals in
/// fixed-shape pairwise-summation trees (util/tree_sum.hpp), so a
/// single-gate change re-prices in O(log n) AND every query stays
/// bit-identical to a from-scratch rebuild — the property the incremental
/// differential tests pin. Undoing a move is just another update: restore
/// the gate's fields and call on_gate_changed() again.

#pragma once

#include <algorithm>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "tech/variation.hpp"
#include "util/lognormal.hpp"
#include "util/tree_sum.hpp"

namespace statleak {

/// Linear-space moments of one gate's leakage current.
struct GateLeakMoments {
  double mean_na = 0.0;
  double var_na2 = 0.0;
};

/// The fitted full-chip leakage distribution.
struct LeakageDistribution {
  double mean_na = 0.0;
  double var_na2 = 0.0;
  Lognormal fitted;  ///< Wilkinson moment-matched lognormal

  double stddev_na() const;
  double quantile_na(double p) const { return fitted.quantile(p); }
  double cdf(double x_na) const { return fitted.cdf(x_na); }
};

/// Per-cell-type leakage statistics under a variation model.
class LeakageModel {
 public:
  LeakageModel(const CellLibrary& lib, const VariationModel& var);

  /// Log-domain variance of one gate's leakage (same for every gate: the
  /// exponent coefficients are process constants).
  double log_sigma2() const { return log_sigma2_; }

  /// Log-domain covariance shared by every gate pair (inter-die part).
  double log_cov_global() const { return log_cov_global_; }

  /// exp(log_cov_global()) - 1, the pairwise Wilkinson covariance factor.
  /// Cached at construction so per-candidate move pricing pays no exp().
  double cov_factor() const { return cov_factor_; }

  /// Moments of one gate's leakage. Includes the exact Gaussian
  /// quadratic-exponent correction when the node's leak_quadratic term is
  /// non-zero (applied to mean and variance; the pairwise covariance keeps
  /// the linear-exponent form — see DESIGN.md ablation A1), and honours the
  /// variation model's Pelgrom width scaling of intra-die Vth sigma.
  GateLeakMoments gate_moments(CellKind kind, Vth vth, double size) const;

  /// E[exp(exponent)] for a unit-nominal gate — the width-independent mean
  /// factor gate_moments() applies when Pelgrom scaling is off (with
  /// Pelgrom on the factor is per-gate; use gate_moments()).
  double mean_factor() const { return mean_factor_; }
  /// E[exp(2 * exponent)], same caveat.
  double m2_factor() const { return m2_factor_; }

  const CellLibrary& library() const { return lib_; }
  const VariationModel& variation() const { return var_; }

 private:
  const CellLibrary& lib_;
  const VariationModel& var_;
  double cl_ = 0.0;            ///< leakage exponent coefficient on dL [1/nm]
  double cv_ = 0.0;            ///< leakage exponent coefficient on dVth [1/V]
  double q_ = 0.0;             ///< quadratic dL exponent [1/nm^2]
  double sig_l2_ = 0.0;        ///< total dL variance [nm^2]
  double sig_v_inter2_ = 0.0;  ///< inter-die dVth variance [V^2]
  double log_sigma2_ = 0.0;
  double log_cov_global_ = 0.0;
  double cov_factor_ = 0.0;  ///< exp(log_cov_global_) - 1
  double mean_factor_ = 1.0;  ///< E[exp(exponent)] for a unit-nominal gate
  double m2_factor_ = 1.0;    ///< E[exp(2*exponent)]
};

/// One scan's worth of hypothetical-move pricing state, captured from a
/// LeakageAnalyzer: the three exact Wilkinson tree totals, the pairwise
/// covariance factor and the normal quantile of p. quantile_na() prices
/// "what if one gate's moments moved old -> now" with the exact expression
/// sequence LeakageAnalyzer::quantile_if_na() evaluates — the analyzer's
/// method is itself implemented on this struct, so the batched scorer and
/// per-gate quantile_if_na() pricing cannot drift by a bit. Capture once
/// per scoring scan (totals are committed state; they change only on
/// commit).
struct LeakDeltaPricer {
  double sum_mean = 0.0;
  double sum_mean_sq = 0.0;
  double sum_var = 0.0;
  double cov_factor = 0.0;
  double z = 0.0;  ///< Phi^-1(p)

  double quantile_na(const GateLeakMoments& old_m,
                     const GateLeakMoments& now_m) const {
    const double sm = sum_mean - old_m.mean_na + now_m.mean_na;
    const double smsq = sum_mean_sq - old_m.mean_na * old_m.mean_na +
                        now_m.mean_na * now_m.mean_na;
    const double sv = sum_var - old_m.var_na2 + now_m.var_na2;
    const double pairwise = cov_factor * std::max(0.0, sm * sm - smsq);
    const double var_na2 = sv + pairwise;
    return Lognormal::from_moments(std::max(sm, 1e-12), var_na2)
        .quantile_z(z);
  }
};

/// Full-circuit analyzer with O(1) single-gate updates.
class LeakageAnalyzer {
 public:
  LeakageAnalyzer(const Circuit& circuit, const CellLibrary& lib,
                  const VariationModel& var);

  /// Recomputes all per-gate moments and totals. Totals are bit-identical
  /// to any sequence of on_gate_changed() updates reaching the same
  /// implementation (fixed-shape summation trees).
  void rebuild();

  /// Call after gate `id` changed size or Vth. O(log n).
  void on_gate_changed(GateId id);

  /// Current fitted distribution of total leakage.
  LeakageDistribution distribution() const;

  /// Mean total leakage [nA].
  double mean_na() const { return sum_mean_.total(); }
  /// Percentile of total leakage [nA].
  double quantile_na(double p) const { return distribution().quantile_na(p); }
  /// Total leakage with all gates at nominal parameters [nA].
  double nominal_na() const;

  /// What the fitted distribution would report if gate `id` had the given
  /// (vth, size) — without mutating anything. O(1) per-gate move pricing
  /// (the reference the batched scorer is tested against): the
  /// hypothetical totals are the exact tree totals adjusted by a scalar
  /// old-vs-new delta. That is deterministic (same state, same bits) but
  /// deliberately not re-summed through the trees — pricing only ranks
  /// candidates, and committed state always goes through the trees.
  double quantile_if_na(GateId id, Vth vth, double size, double p) const;

  /// Captures the current totals and Phi^-1(p) for a batched pricing scan.
  /// Const and free of hidden state, so concurrent calls are safe.
  /// Bit-contract: quantile_if_na(id, vth, size, p) ==
  /// delta_pricer(p).quantile_na(cached_moments(id),
  ///                             model().gate_moments(kind, vth, size)).
  LeakDeltaPricer delta_pricer(double p) const;

  /// The committed moments of one gate (what pricing treats as "old").
  const GateLeakMoments& cached_moments(GateId id) const {
    return moments_[id];
  }

  const LeakageModel& model() const { return model_; }

 private:
  LeakageDistribution assemble(double sum_mean, double sum_mean_sq,
                               double sum_var) const;

  const Circuit& circuit_;
  LeakageModel model_;
  std::vector<GateLeakMoments> moments_;
  TreeSum sum_mean_;     ///< per-gate mean leakage [nA]
  TreeSum sum_mean_sq_;  ///< per-gate squared mean [nA^2]
  TreeSum sum_var_;      ///< per-gate leakage variance [nA^2]
};

}  // namespace statleak
