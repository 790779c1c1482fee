#include "spatial/spatial_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "mc/sample_loop.hpp"
#include "util/error.hpp"
#include "util/health.hpp"
#include "util/rng.hpp"

namespace statleak {

LeakageDistribution spatial_leakage_distribution(
    const Circuit& circuit, const CellLibrary& lib,
    const SpatialVariationModel& model, const std::vector<Point>& placement) {
  model.validate();
  STATLEAK_CHECK(placement.size() == circuit.num_gates(),
                 "one placement point per gate");
  // Marginal moments are those of the flat model (variance budget is
  // preserved by the spatial split).
  const LeakageModel margins(lib, model.base);
  const auto& sens = lib.sensitivities(Vth::kLow);
  const double cl = sens.leak_cl_per_nm;
  const double cv = sens.leak_cv_per_v;

  const double cov_global =
      cl * cl * model.base.sigma_l_inter_nm * model.base.sigma_l_inter_nm +
      cv * cv * model.base.sigma_vth_inter_v * model.base.sigma_vth_inter_v;
  const double cov_region =
      cl * cl * model.sigma_l_region_nm() * model.sigma_l_region_nm() +
      cv * cv * model.sigma_vth_region_v() * model.sigma_vth_region_v();

  double sum_mean = 0.0;
  double sum_mean_sq = 0.0;
  double sum_var = 0.0;
  std::vector<double> region_mean(
      static_cast<std::size_t>(model.num_regions()), 0.0);
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    if (g.kind == CellKind::kInput) continue;
    const GateLeakMoments m = margins.gate_moments(g.kind, g.vth, g.size);
    sum_mean += m.mean_na;
    sum_mean_sq += m.mean_na * m.mean_na;
    sum_var += m.var_na2;
    region_mean[static_cast<std::size_t>(model.region_of(placement[id]))] +=
        m.mean_na;
  }
  double sum_region_sq = 0.0;
  for (double a : region_mean) sum_region_sq += a * a;

  const double k_global = std::exp(cov_global) - 1.0;
  const double k_same = std::exp(cov_global + cov_region) - 1.0;
  const double cross_region =
      k_global * std::max(0.0, sum_mean * sum_mean - sum_region_sq);
  const double same_region =
      k_same * std::max(0.0, sum_region_sq - sum_mean_sq);

  LeakageDistribution dist;
  dist.mean_na = sum_mean;
  dist.var_na2 = sum_var + cross_region + same_region;
  dist.fitted =
      Lognormal::from_moments(std::max(sum_mean, 1e-12), dist.var_na2);
  return dist;
}

McResult run_monte_carlo_spatial(const Circuit& circuit,
                                 const CellLibrary& lib,
                                 const SpatialVariationModel& model,
                                 const std::vector<Point>& placement,
                                 const McConfig& config,
                                 obs::Registry* obs) {
  model.validate();
  STATLEAK_CHECK(config.num_samples > 0, "need at least one sample");
  STATLEAK_CHECK(placement.size() == circuit.num_gates(),
                 "one placement point per gate");
  require_plain_mc_config(config, "spatial Monte-Carlo");
  obs::ScopedTimer timer(obs, "mc.spatial_samples");

  const std::size_t n = circuit.num_gates();
  std::vector<int> regions(n);
  for (std::size_t id = 0; id < n; ++id) {
    regions[id] = model.region_of(placement[id]);
  }

  const auto num_samples = static_cast<std::size_t>(config.num_samples);
  McResult result;
  result.delay_ps.assign(num_samples, 0.0);
  result.leakage_na.assign(num_samples, 0.0);
  std::vector<std::uint8_t> done(num_samples, 0);

  // Sample i draws its die and then every gate, in GateId order, from
  // stream i, exactly as the scalar oracle does.
  const auto draw = [&](const McBlock& b) {
    SpatialDieSample die;  // region buffers shared by the block's lanes
    const std::size_t stride = b.sc.block;
    for (std::size_t lane = 0; lane < b.lanes; ++lane) {
      Rng rng = Rng::stream(config.seed, b.slot + lane);
      sample_spatial_die(model, rng, die);
      for (std::size_t id = 0; id < n; ++id) {
        const ParamSample ps =
            sample_spatial_gate(model, die, regions[id], rng);
        b.sc.dl[id * stride + lane] = ps.dl_nm;
        b.sc.dv[id * stride + lane] = ps.dvth_v;
      }
    }
  };
  const auto health = [&result](std::size_t s) {
    return classify_health(result.delay_ps[s], result.leakage_na[s]);
  };
  run_mc_blocks(circuit, lib, config,
                {0, num_samples, result.delay_ps.data(),
                 result.leakage_na.data(), done.data()},
                {.batches = "mc.spatial_batches"}, draw, [](const McBlock&) {}, health,
                {}, obs);
  settle_population(done, config.health_policy, health, result);

  if (obs != nullptr) {
    obs->add("mc.spatial_samples", static_cast<double>(result.delay_ps.size()));
    if (!result.quarantined.empty()) {
      obs->add("mc.quarantined",
               static_cast<double>(result.quarantined.size()));
    }
    if (!result.completed) {
      obs->add("mc.samples_done", static_cast<double>(result.samples_done));
      obs->mark_incomplete("deadline");
    }
  }
  return result;
}

}  // namespace statleak
