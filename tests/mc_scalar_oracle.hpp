// Scalar per-sample Monte-Carlo oracle: the reference the batched engines
// are pinned against bit for bit (mc_batched_test, estimator_test).
//
// Each die is drawn and evaluated on its own, in the plainest form: one
// AoS vector of per-gate (dL, dVth) samples, one PERT pass over the
// Circuit for the critical delay, one ascending-GateId sum of library
// leakages. The draw sequence per die is the engines' contract — slot s
// reads Rng::stream(seed, s), the global deviates first (pseudo, Sobol or
// importance-shifted), then one sample_gate / sample_spatial_gate call per
// gate in GateId order. No threads, blocks, deadline, checkpoint or health
// handling: everything here is serial and exact, so any divergence in the
// kernels' operation order shows up as a bit difference.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "abb/abb.hpp"
#include "cells/library.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/circuit.hpp"
#include "spatial/spatial_analysis.hpp"
#include "spatial/spatial_model.hpp"
#include "sta/loads.hpp"
#include "tech/variation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sobol.hpp"

namespace statleak::oracle {

/// Critical delay of one die. `samples[id]` is gate id's total (dL, dVth).
/// With `exact_delay` the alpha-power model is re-evaluated per gate;
/// otherwise the first-order multiplier (1 + sL*dL + sV*dVth), floored at
/// 0.05, scales the nominal delay. `scratch` holds the arrival times.
inline double critical_delay_sample_ps(const Circuit& circuit,
                                       const CellLibrary& lib,
                                       const LoadCache& loads,
                                       std::span<const ParamSample> samples,
                                       bool exact_delay,
                                       std::vector<double>& scratch) {
  const std::size_t n = circuit.num_gates();
  STATLEAK_CHECK(samples.size() == n, "one parameter sample per gate");
  scratch.assign(n, 0.0);
  for (GateId id : circuit.topo_order()) {
    const Gate& g = circuit.gate(id);
    double in_arr = 0.0;
    for (GateId f : g.fanins) in_arr = std::max(in_arr, scratch[f]);
    double d = 0.0;
    if (g.kind != CellKind::kInput) {
      if (exact_delay) {
        d = lib.delay_ps(g.kind, g.vth, g.size, loads.load_ff(id),
                         samples[id].dl_nm, samples[id].dvth_v);
      } else {
        const auto& s = lib.sensitivities(g.vth);
        const double mult = 1.0 + s.delay_sl_per_nm * samples[id].dl_nm +
                            s.delay_sv_per_v * samples[id].dvth_v;
        d = lib.delay_ps(g.kind, g.vth, g.size, loads.load_ff(id)) *
            std::max(0.05, mult);
      }
    }
    scratch[id] = in_arr + d;
  }
  double worst = 0.0;
  for (GateId out : circuit.outputs()) worst = std::max(worst, scratch[out]);
  return worst;
}

/// Exact total leakage [nA] of one die: the library leakage of every
/// non-input gate at its sampled deviations, summed in GateId order.
inline double total_sample_na(const Circuit& circuit, const CellLibrary& lib,
                              std::span<const ParamSample> samples) {
  STATLEAK_CHECK(samples.size() == circuit.num_gates(),
                 "one parameter sample per gate");
  double total = 0.0;
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    if (g.kind == CellKind::kInput) continue;
    total += lib.leakage_na(g.kind, g.vth, g.size, samples[id].dl_nm,
                            samples[id].dvth_v);
  }
  return total;
}

/// run_monte_carlo's sample values, one die at a time: delay_ps and
/// leakage_na for every slot, plus the importance weights when
/// config.is_shift is active. Honours seed, sampler, is_shift and
/// exact_delay; everything else in the config is ignored.
inline McResult run_monte_carlo(const Circuit& circuit,
                                const CellLibrary& lib,
                                const VariationModel& var,
                                const McConfig& config) {
  const LoadCache loads(circuit, lib);
  const std::vector<double> widths = mc_device_widths(circuit, lib);
  std::optional<SobolSequence> qmc;
  if (config.sampler == McSampler::kSobol) qmc.emplace(config.seed);
  const IsShift shift = config.is_shift;

  const auto slots = static_cast<std::size_t>(config.num_samples);
  McResult r;
  std::vector<ParamSample> samples(circuit.num_gates());
  std::vector<double> scratch;
  for (std::size_t s = 0; s < slots; ++s) {
    Rng rng = Rng::stream(config.seed, s);
    GlobalSample die;
    if (!qmc && !shift.active()) {
      // Unshifted pseudo-random draws go through sample_global() itself,
      // so existing seeds keep their values.
      die = sample_global(var, rng);
    } else {
      const double zl = qmc ? qmc->normal(s, 0) : rng.normal();
      const double zv = qmc ? qmc->normal(s, 1) : rng.normal();
      die = {var.sigma_l_inter_nm * (zl + shift.l_sigma),
             var.sigma_vth_inter_v * (zv + shift.v_sigma)};
      if (shift.active()) {
        r.weights.push_back(std::exp(shift.log_weight(zl, zv)));
      }
    }
    for (std::size_t id = 0; id < samples.size(); ++id) {
      samples[id] = sample_gate(var, die, rng, widths[id]);
    }
    r.delay_ps.push_back(critical_delay_sample_ps(
        circuit, lib, loads, samples, config.exact_delay, scratch));
    r.leakage_na.push_back(total_sample_na(circuit, lib, samples));
  }
  return r;
}

/// run_monte_carlo_spatial's sample values: per-region shared components
/// drawn after the global ones, then one draw per gate from its region.
inline McResult run_monte_carlo_spatial(const Circuit& circuit,
                                        const CellLibrary& lib,
                                        const SpatialVariationModel& model,
                                        const std::vector<Point>& placement,
                                        const McConfig& config) {
  const LoadCache loads(circuit, lib);
  McResult r;
  std::vector<ParamSample> samples(circuit.num_gates());
  std::vector<double> scratch;
  SpatialDieSample die;
  for (std::size_t s = 0; s < static_cast<std::size_t>(config.num_samples);
       ++s) {
    Rng rng = Rng::stream(config.seed, s);
    sample_spatial_die(model, rng, die);
    for (std::size_t id = 0; id < samples.size(); ++id) {
      samples[id] =
          sample_spatial_gate(model, die, model.region_of(placement[id]), rng);
    }
    r.delay_ps.push_back(critical_delay_sample_ps(
        circuit, lib, loads, samples, config.exact_delay, scratch));
    r.leakage_na.push_back(total_sample_na(circuit, lib, samples));
  }
  return r;
}

/// run_abb_experiment's paired populations: each die is evaluated unbiased,
/// then once per ladder step with every gate's dVth shifted by
/// -k_body * Vbb. The die keeps the least-leaky setting meeting t_max_ps,
/// or the fastest setting when none does.
inline AbbResult run_abb_experiment(const Circuit& circuit,
                                    const CellLibrary& lib,
                                    const VariationModel& var,
                                    const BodyBiasConfig& abb,
                                    const McConfig& mc, double t_max_ps) {
  const LoadCache loads(circuit, lib);
  const std::vector<double> widths = mc_device_widths(circuit, lib);
  const std::vector<double> ladder = abb.ladder();
  AbbResult r;
  const std::size_t n = circuit.num_gates();
  std::vector<ParamSample> samples(n);
  std::vector<ParamSample> biased(n);
  std::vector<double> scratch;
  for (std::size_t s = 0; s < static_cast<std::size_t>(mc.num_samples); ++s) {
    Rng rng = Rng::stream(mc.seed, s);
    const GlobalSample die = sample_global(var, rng);
    for (std::size_t id = 0; id < n; ++id) {
      samples[id] = sample_gate(var, die, rng, widths[id]);
    }
    r.baseline.delay_ps.push_back(critical_delay_sample_ps(
        circuit, lib, loads, samples, mc.exact_delay, scratch));
    r.baseline.leakage_na.push_back(total_sample_na(circuit, lib, samples));

    double best_bias = ladder.front();
    double best_leak = std::numeric_limits<double>::infinity();
    double best_delay = std::numeric_limits<double>::infinity();
    bool any_feasible = false;
    double fastest_delay = std::numeric_limits<double>::infinity();
    double fastest_bias = 0.0;
    double fastest_leak = 0.0;
    for (double vbb : ladder) {
      const double dvth = -abb.k_body_v_per_v * vbb;
      for (std::size_t id = 0; id < n; ++id) {
        biased[id] = samples[id];
        biased[id].dvth_v += dvth;
      }
      const double delay = critical_delay_sample_ps(
          circuit, lib, loads, biased, mc.exact_delay, scratch);
      const double leak = total_sample_na(circuit, lib, biased);
      if (delay < fastest_delay) {
        fastest_delay = delay;
        fastest_bias = vbb;
        fastest_leak = leak;
      }
      if (delay <= t_max_ps && leak < best_leak) {
        any_feasible = true;
        best_leak = leak;
        best_bias = vbb;
        best_delay = delay;
      }
    }
    if (!any_feasible) {
      best_bias = fastest_bias;
      best_delay = fastest_delay;
      best_leak = fastest_leak;
    }
    r.compensated.delay_ps.push_back(best_delay);
    r.compensated.leakage_na.push_back(best_leak);
    r.bias_v.push_back(best_bias);
  }
  return r;
}

}  // namespace statleak::oracle
