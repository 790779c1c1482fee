/// \file variation.hpp
/// \brief Process-variation model: inter-die + intra-die dL and dVth.
///
/// Following the DAC'04 setup, two physical parameters vary:
///   dL    — effective channel-length deviation [nm]
///   dVth  — threshold-voltage deviation [V] (random dopant fluctuation etc.)
/// Each splits into an inter-die (globally shared across all gates of one
/// die) and an intra-die (independent per gate) Gaussian component:
///   dL_i    = dL_glob + dL_loc,i
///   dVth_i  = dVth_glob + dVth_loc,i
/// All four components are zero-mean and mutually independent.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>

#include "util/rng.hpp"

namespace statleak {

/// Standard deviations of the four variation components.
struct VariationModel {
  double sigma_l_inter_nm = 2.12;    ///< inter-die sigma of dL [nm]
  double sigma_l_intra_nm = 2.12;    ///< intra-die sigma of dL [nm]
  double sigma_vth_inter_v = 0.005;  ///< inter-die sigma of dVth [V]
  double sigma_vth_intra_v = 0.012;  ///< intra-die sigma of dVth [V]

  /// Pelgrom scaling of random-dopant-fluctuation Vth variation: when
  /// enabled, a gate's intra-die Vth sigma is
  ///   sigma_vth_intra_v * sqrt(pelgrom_ref_width_um / device_width_um),
  /// i.e. the nominal sigma applies to a device of the reference width and
  /// wider (upsized) gates average their dopant fluctuations away. This is
  /// the extension axis the paper's follow-on work explores: sizing then
  /// buys variance reduction on top of drive.
  bool pelgrom_vth_scaling = false;
  double pelgrom_ref_width_um = 1.4;  ///< width with nominal intra sigma

  /// Intra-die Vth sigma [V] of a gate whose total device width is
  /// `device_width_um` (returns sigma_vth_intra_v when scaling is off).
  /// Inline: called per gate per sample in the Monte-Carlo hot loop.
  double sigma_vth_intra_for(double device_width_um) const {
    if (!pelgrom_vth_scaling || device_width_um <= 0.0) {
      return sigma_vth_intra_v;
    }
    return sigma_vth_intra_v *
           std::sqrt(pelgrom_ref_width_um / device_width_um);
  }

  /// Total channel-length sigma [nm] (inter and intra in quadrature).
  double sigma_l_total_nm() const {
    return std::sqrt(sigma_l_inter_nm * sigma_l_inter_nm +
                     sigma_l_intra_nm * sigma_l_intra_nm);
  }
  /// Total threshold-voltage sigma [V].
  double sigma_vth_total_v() const {
    return std::sqrt(sigma_vth_inter_v * sigma_vth_inter_v +
                     sigma_vth_intra_v * sigma_vth_intra_v);
  }

  /// Throws statleak::Error on negative sigmas.
  void validate() const;

  /// A model with all sigmas zero (deterministic limit; useful in tests).
  static VariationModel none();

  /// Default DAC'04-era model: 3*sigma(L) = 15 % of a 60 nm Leff split
  /// 50/50 inter/intra in variance; Vth variation intra-dominant (RDF).
  static VariationModel typical_100nm();

  /// Scales every sigma by the given factor (sensitivity studies).
  VariationModel scaled(double factor) const;
};

/// Feeds the variation model to a fingerprint: `mix` receives each sigma's
/// bits, the Pelgrom flag as 0/1 and the reference width's bits, in this
/// fixed order. Shared by the optimizer's and the Monte-Carlo checkpoint
/// fingerprints; reordering or extending the list invalidates every journal
/// and checkpoint written before.
template <class Mix>
void mix_variation_constants(const VariationModel& var, Mix&& mix) {
  for (const double x : {var.sigma_l_inter_nm, var.sigma_l_intra_nm,
                         var.sigma_vth_inter_v, var.sigma_vth_intra_v}) {
    mix(std::bit_cast<std::uint64_t>(x));
  }
  mix(std::uint64_t{var.pelgrom_vth_scaling ? 1u : 0u});
  mix(std::bit_cast<std::uint64_t>(var.pelgrom_ref_width_um));
}

/// One sampled die-level (global) variation draw.
struct GlobalSample {
  double dl_nm = 0.0;
  double dvth_v = 0.0;
};

/// One sampled per-gate total variation (global + that gate's local draw).
struct ParamSample {
  double dl_nm = 0.0;
  double dvth_v = 0.0;
};

/// Draws the shared inter-die components for one simulated die.
/// Inline (with the draw helpers below): these sit inside the Monte-Carlo
/// hot loop, and both the scalar and batched engines must issue the exact
/// same normal() call sequence to stay bit-identical — sharing one inlined
/// definition guarantees that by construction.
inline GlobalSample sample_global(const VariationModel& model, Rng& rng) {
  return GlobalSample{rng.normal(0.0, model.sigma_l_inter_nm),
                      rng.normal(0.0, model.sigma_vth_inter_v)};
}

/// Draws one gate's total variation given the die's global components.
/// `device_width_um` feeds the Pelgrom scaling; pass a non-positive value
/// (default) to use the nominal intra-die Vth sigma.
inline ParamSample sample_gate(const VariationModel& model,
                               const GlobalSample& g, Rng& rng,
                               double device_width_um = -1.0) {
  return ParamSample{
      g.dl_nm + rng.normal(0.0, model.sigma_l_intra_nm),
      g.dvth_v +
          rng.normal(0.0, model.sigma_vth_intra_for(device_width_um))};
}

}  // namespace statleak
