/// \file abb.hpp
/// \brief Adaptive body bias (ABB): post-silicon die-level compensation.
///
/// The complementary technique from the paper's reference cluster
/// (Keshavarzi ISLPED'99/'01, Tschanz JSSC'02): after fabrication, each die
/// measures itself and applies one body-bias voltage — forward bias (FBB)
/// lowers Vth to rescue slow dies, reverse bias (RBB) raises Vth to choke
/// leakage on fast dies. Die-to-die spread collapses from both sides:
///
///   dVth_bias = -k_body * Vbb      (Vbb > 0 forward, < 0 reverse)
///
/// statleak models the Tschanz experiment at simulator level: for every
/// Monte-Carlo die, sweep a discrete Vbb ladder, evaluate the die's delay
/// and leakage under each setting, and apply the per-die policy
/// "minimum leakage subject to delay <= T; if no setting meets T, the most
/// forward bias". Compare the resulting delay/leakage populations with the
/// uncompensated ones.

#pragma once

#include <vector>

#include "cells/library.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "tech/variation.hpp"

namespace statleak {

struct BodyBiasConfig {
  /// Vth shift per bias volt [V/V] (body-effect strength).
  double k_body_v_per_v = 0.15;
  /// Discrete bias ladder [V]: negative = reverse (slower, less leaky),
  /// positive = forward (faster, leakier).
  double vbb_min_v = -0.5;
  double vbb_max_v = 0.5;
  double vbb_step_v = 0.1;

  void validate() const;
  /// The ladder, ascending (reverse -> forward).
  std::vector<double> ladder() const;
};

struct AbbResult {
  McResult baseline;            ///< uncompensated population
  McResult compensated;         ///< per-die best-bias population
  std::vector<double> bias_v;   ///< chosen Vbb per die

  /// False when ExecConfig::deadline_ms expired mid-sweep. The populations
  /// stay paired: a die survives into all three arrays or none of them
  /// (dies whose evaluation produced a non-finite value under the
  /// quarantine policy are likewise dropped from all three).
  bool completed = true;
  std::uint64_t dies_requested = 0;
  std::uint64_t dies_done = 0;

  /// Fraction of dies using any reverse bias (Vbb < 0).
  double reverse_fraction() const;
  /// Fraction of dies using any forward bias (Vbb > 0).
  double forward_fraction() const;
};

/// Runs the paired experiment (baseline and compensated populations share
/// the same per-die parameter draws, so the comparison is sample-exact).
/// Runs on the Monte-Carlo engine's block loop, run_mc_blocks
/// (mc/sample_loop.hpp): die i is the engine's die i, and the baseline is
/// the loop's unbiased pass. Each block then sweeps the ladder through the
/// same kernels, with the bias applied as a uniform dVth shift inside them;
/// every value is bit-identical to the scalar ladder sweep of
/// tests/mc_scalar_oracle.hpp for any batch size or thread count. Honours
/// seed, num_threads, deadline_ms, exact_delay and health_policy; a Sobol
/// sampler, importance shift, control variate or checkpoint path throws
/// statleak::Error. With a registry attached, records the "abb.sweep"
/// phase time, the mc.draw / mc.delay_kernel / mc.leak_kernel layer
/// timers, the "mc.kernel_isa" config note and the "abb.dies" /
/// "abb.sta_evals" / "abb.batches" / "flat.build_ns" counters; results are
/// unaffected.
AbbResult run_abb_experiment(const Circuit& circuit, const CellLibrary& lib,
                             const VariationModel& var,
                             const BodyBiasConfig& abb, const McConfig& mc,
                             double t_max_ps, obs::Registry* obs = nullptr);

}  // namespace statleak
