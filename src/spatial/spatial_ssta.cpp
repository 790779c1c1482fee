#include "spatial/spatial_ssta.hpp"

#include <algorithm>
#include <cmath>

#include "sta/loads.hpp"
#include "util/clark.hpp"
#include "util/error.hpp"
#include "util/normal.hpp"

namespace statleak {

double VectorCanonical::variance() const {
  double v = loc * loc;
  for (double gi : g) v += gi * gi;
  return v;
}

double VectorCanonical::sigma() const { return std::sqrt(variance()); }

double VectorCanonical::cdf(double t) const {
  return normal_cdf(t, mean, sigma());
}

double VectorCanonical::quantile(double p) const {
  return normal_quantile(p, mean, sigma());
}

VectorCanonical VectorCanonical::sum(const VectorCanonical& a,
                                     const VectorCanonical& b) {
  STATLEAK_CHECK(a.g.empty() || b.g.empty() || a.g.size() == b.g.size(),
                 "canonical source-vector length mismatch");
  VectorCanonical out;
  out.mean = a.mean + b.mean;
  const std::size_t n = std::max(a.g.size(), b.g.size());
  out.g.assign(n, 0.0);
  for (std::size_t i = 0; i < a.g.size(); ++i) out.g[i] += a.g[i];
  for (std::size_t i = 0; i < b.g.size(); ++i) out.g[i] += b.g[i];
  out.loc = std::sqrt(a.loc * a.loc + b.loc * b.loc);
  return out;
}

VectorCanonical VectorCanonical::max(const VectorCanonical& a,
                                     const VectorCanonical& b,
                                     double* tightness_out) {
  STATLEAK_CHECK(a.g.empty() || b.g.empty() || a.g.size() == b.g.size(),
                 "canonical source-vector length mismatch");
  const double var_a = a.variance();
  const double var_b = b.variance();
  const double sig_a = std::sqrt(var_a);
  const double sig_b = std::sqrt(var_b);

  double rho = 0.0;
  if (sig_a > 0.0 && sig_b > 0.0) {
    double dot = 0.0;
    const std::size_t n = std::min(a.g.size(), b.g.size());
    for (std::size_t i = 0; i < n; ++i) dot += a.g[i] * b.g[i];
    rho = std::clamp(dot / (sig_a * sig_b), -1.0, 1.0);
  }

  const ClarkMax cm = clark_max(a.mean, var_a, b.mean, var_b, rho);
  if (tightness_out != nullptr) *tightness_out = cm.tightness;

  VectorCanonical out;
  out.mean = cm.mean;
  const std::size_t n = std::max(a.g.size(), b.g.size());
  out.g.assign(n, 0.0);
  for (std::size_t i = 0; i < a.g.size(); ++i) {
    out.g[i] += cm.tightness * a.g[i];
  }
  for (std::size_t i = 0; i < b.g.size(); ++i) {
    out.g[i] += (1.0 - cm.tightness) * b.g[i];
  }
  double shared_var = 0.0;
  for (double gi : out.g) shared_var += gi * gi;
  out.loc = std::sqrt(std::max(0.0, cm.variance - shared_var));
  return out;
}

SpatialSstaEngine::SpatialSstaEngine(const Circuit& circuit,
                                     const CellLibrary& lib,
                                     const SpatialVariationModel& model,
                                     const std::vector<Point>& placement)
    : circuit_(circuit), lib_(lib), model_(model) {
  model_.validate();
  STATLEAK_CHECK(placement.size() == circuit.num_gates(),
                 "one placement point per gate");
  regions_.reserve(circuit.num_gates());
  for (const Point& p : placement) regions_.push_back(model.region_of(p));
  const std::size_t n = circuit.num_gates();
  loads_ff_.resize(n);
  for (GateId id = 0; id < n; ++id) {
    loads_ff_[id] = output_load_ff(circuit, lib, id);
  }
}

std::size_t SpatialSstaEngine::num_sources() const {
  return 2 + 2 * static_cast<std::size_t>(model_.num_regions());
}

int SpatialSstaEngine::region_of(GateId id) const {
  STATLEAK_CHECK(id < regions_.size(), "gate id out of range");
  return regions_[id];
}

VectorCanonical SpatialSstaEngine::gate_delay(GateId id) const {
  const Gate& gate = circuit_.gate(id);
  VectorCanonical d;
  d.g.assign(num_sources(), 0.0);
  if (gate.kind == CellKind::kInput) return d;

  const double d0 =
      lib_.delay_ps(gate.kind, gate.vth, gate.size, loads_ff_[id]);
  const auto& s = lib_.sensitivities(gate.vth);
  const auto regions = static_cast<std::size_t>(model_.num_regions());
  const auto r = static_cast<std::size_t>(regions_[id]);

  d.mean = d0;
  d.g[0] = d0 * s.delay_sl_per_nm * model_.base.sigma_l_inter_nm;
  d.g[1] = d0 * s.delay_sv_per_v * model_.base.sigma_vth_inter_v;
  d.g[2 + r] = d0 * s.delay_sl_per_nm * model_.sigma_l_region_nm();
  d.g[2 + regions + r] = d0 * s.delay_sv_per_v * model_.sigma_vth_region_v();
  const double loc_l = d0 * s.delay_sl_per_nm * model_.sigma_l_local_nm();
  const double loc_v = d0 * s.delay_sv_per_v * model_.sigma_vth_local_v();
  d.loc = std::sqrt(loc_l * loc_l + loc_v * loc_v);
  return d;
}

VectorCanonical SpatialSstaEngine::circuit_delay() const {
  if (obs_ != nullptr) obs_->add("ssta.spatial_passes", 1.0);
  if (!primed_) {
    std::vector<VectorCanonical> arrival(circuit_.num_gates());
    for (GateId id : circuit_.topo_order()) {
      const Gate& g = circuit_.gate(id);
      if (g.kind == CellKind::kInput) continue;
      VectorCanonical in_max = arrival[g.fanins[0]];
      for (std::size_t pin = 1; pin < g.fanins.size(); ++pin) {
        in_max = VectorCanonical::max(in_max, arrival[g.fanins[pin]]);
      }
      arrival[id] = VectorCanonical::sum(in_max, gate_delay(id));
    }
    const auto outputs = circuit_.outputs();
    out_max_ = arrival[outputs[0]];
    for (std::size_t i = 1; i < outputs.size(); ++i) {
      out_max_ = VectorCanonical::max(out_max_, arrival[outputs[i]]);
    }
    primed_ = true;
  }
  return out_max_;
}

}  // namespace statleak
