/// \file spatial_analysis.hpp
/// \brief Leakage distribution and Monte Carlo under the spatial model.
///
/// The per-gate marginal leakage distribution is unchanged by the spatial
/// split (the variance budget is preserved), but the pairwise covariance is
/// not: same-region pairs share the region components on top of the
/// inter-die ones. With region sums A_r = sum of E[I_i] over region r and
/// A = sum_r A_r, the exact total variance is
///
///   Var[S] = sum_i Var_i
///          + (K_g  - 1) * (A^2 - sum_r A_r^2)            (cross-region)
///          + (K_gr - 1) * (sum_r A_r^2 - sum_i E_i^2)    (same-region)
///
/// with K_g = exp(cL^2 sLg^2 + cV^2 sVg^2) and K_gr additionally including
/// the region variances. Wilkinson moment matching then proceeds as in the
/// flat model.

#pragma once

#include <vector>

#include "cells/library.hpp"
#include "leakage/leakage.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "spatial/spatial_model.hpp"

namespace statleak {

/// Analytic total-leakage distribution under the spatial model.
LeakageDistribution spatial_leakage_distribution(
    const Circuit& circuit, const CellLibrary& lib,
    const SpatialVariationModel& model, const std::vector<Point>& placement);

/// Monte-Carlo reference under the spatial model (same result shape as
/// run_monte_carlo; sampling draws per-region shared components). Runs on
/// the Monte-Carlo engine's block loop, run_mc_blocks (mc/sample_loop.hpp),
/// with its own regional draw, so batch_size is a performance knob only:
/// every sample is bit-identical to the scalar per-sample oracle in
/// tests/mc_scalar_oracle.hpp. Honours seed, num_threads, deadline_ms,
/// exact_delay and health_policy; a Sobol sampler, importance shift,
/// control variate or checkpoint path throws statleak::Error. With a
/// registry attached, records the "mc.spatial_samples" phase time, the
/// mc.draw / mc.delay_kernel / mc.leak_kernel layer timers, the
/// "mc.kernel_isa" config note and the "mc.spatial_samples",
/// "mc.spatial_batches" and "flat.build_ns" counters; sample values are
/// unaffected.
McResult run_monte_carlo_spatial(const Circuit& circuit,
                                 const CellLibrary& lib,
                                 const SpatialVariationModel& model,
                                 const std::vector<Point>& placement,
                                 const McConfig& config,
                                 obs::Registry* obs = nullptr);

}  // namespace statleak
