/// \file spatial_model.hpp
/// \brief Grid-based spatially correlated intra-die variation.
///
/// Within-die variation is not fully independent gate to gate: neighbouring
/// gates see correlated channel-length and Vth excursions (lens aberration,
/// etch loading). Following the grid models of the spatial-SSTA literature,
/// the die is divided into grid x grid regions, and each intra-die
/// parameter splits into a region-shared and a gate-local component:
///
///   dL_i = dL_glob + dL_region(r_i) + dL_local,i
///
/// with the intra-die variance budget preserved:
///
///   sigma_l_intra^2 = sigma_l_region^2 + sigma_l_local^2,
///   sigma_l_region = sqrt(region_fraction_l) * sigma_l_intra.
///
/// Gates in the same region are correlated (on top of the inter-die
/// component); gates in different regions share only the inter-die part.
/// The marginal per-gate distribution is IDENTICAL to the base model's —
/// only the correlation structure changes, which is exactly what the
/// non-spatial engines get wrong (see bench_ext_spatial).

#pragma once

#include <cmath>
#include <vector>

#include "spatial/placement.hpp"
#include "tech/variation.hpp"
#include "util/error.hpp"

namespace statleak {

struct SpatialVariationModel {
  VariationModel base;
  int grid = 4;  ///< grid x grid regions
  /// Fraction of the intra-die VARIANCE that is region-shared.
  double region_fraction_l = 0.5;
  double region_fraction_v = 0.25;

  void validate() const;

  int num_regions() const { return grid * grid; }
  /// Region index of a placed point.
  int region_of(const Point& p) const;

  // --- variance split -----------------------------------------------------
  double sigma_l_region_nm() const {
    return std::sqrt(region_fraction_l) * base.sigma_l_intra_nm;
  }
  double sigma_l_local_nm() const {
    return std::sqrt(1.0 - region_fraction_l) * base.sigma_l_intra_nm;
  }
  double sigma_vth_region_v() const {
    return std::sqrt(region_fraction_v) * base.sigma_vth_intra_v;
  }
  double sigma_vth_local_v() const {
    return std::sqrt(1.0 - region_fraction_v) * base.sigma_vth_intra_v;
  }
};

/// One sampled die under the spatial model: inter-die components plus one
/// (dL, dVth) pair per region.
struct SpatialDieSample {
  GlobalSample global;
  std::vector<double> region_dl_nm;
  std::vector<double> region_dvth_v;
};

/// Draws the shared components of one die into a reused buffer (resize is a
/// no-op after the first call, so the lanes of a Monte-Carlo block share
/// one allocation).
/// Inline for the same reason as the base-model helpers: the scalar and
/// batched engines must share one definition to issue the exact same
/// normal() call sequence.
inline void sample_spatial_die(const SpatialVariationModel& model, Rng& rng,
                               SpatialDieSample& die) {
  die.global = sample_global(model.base, rng);
  const int regions = model.num_regions();
  die.region_dl_nm.resize(static_cast<std::size_t>(regions));
  die.region_dvth_v.resize(static_cast<std::size_t>(regions));
  for (int r = 0; r < regions; ++r) {
    die.region_dl_nm[static_cast<std::size_t>(r)] =
        rng.normal(0.0, model.sigma_l_region_nm());
    die.region_dvth_v[static_cast<std::size_t>(r)] =
        rng.normal(0.0, model.sigma_vth_region_v());
  }
}

/// Draws the shared components of one die.
inline SpatialDieSample sample_spatial_die(const SpatialVariationModel& model,
                                           Rng& rng) {
  SpatialDieSample die;
  sample_spatial_die(model, rng, die);
  return die;
}

/// Draws one gate's total deviations given its region.
inline ParamSample sample_spatial_gate(const SpatialVariationModel& model,
                                       const SpatialDieSample& die, int region,
                                       Rng& rng) {
  STATLEAK_CHECK(region >= 0 && region < model.num_regions(),
                 "region index out of range");
  const auto r = static_cast<std::size_t>(region);
  ParamSample s;
  s.dl_nm = die.global.dl_nm + die.region_dl_nm[r] +
            rng.normal(0.0, model.sigma_l_local_nm());
  s.dvth_v = die.global.dvth_v + die.region_dvth_v[r] +
             rng.normal(0.0, model.sigma_vth_local_v());
  return s;
}

}  // namespace statleak
