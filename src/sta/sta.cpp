#include "sta/sta.hpp"

#include <algorithm>

namespace statleak {

StaEngine::StaEngine(const Circuit& circuit, const CellLibrary& lib)
    : circuit_(circuit), lib_(lib), loads_(circuit, lib) {}

template <typename DelayFn>
double StaEngine::max_arrival_ps(DelayFn&& delay) const {
  std::vector<double> arr(circuit_.num_gates(), 0.0);
  for (GateId id : circuit_.topo_order()) {
    const Gate& g = circuit_.gate(id);
    double in_arr = 0.0;
    for (GateId f : g.fanins) in_arr = std::max(in_arr, arr[f]);
    arr[id] = in_arr + (g.kind == CellKind::kInput
                            ? 0.0
                            : delay(g, loads_.load_ff(id)));
  }
  double worst = 0.0;
  for (GateId out : circuit_.outputs()) worst = std::max(worst, arr[out]);
  return worst;
}

double StaEngine::critical_delay_ps() const {
  return max_arrival_ps([&](const Gate& g, double load_ff) {
    return lib_.delay_ps(g.kind, g.vth, g.size, load_ff);
  });
}

double StaEngine::corner_delay_ps(const VariationModel& var,
                                  double k_sigma) const {
  const double dl = k_sigma * var.sigma_l_total_nm();
  const double dv = k_sigma * var.sigma_vth_total_v();
  return max_arrival_ps([&](const Gate& g, double load_ff) {
    return lib_.delay_ps(g.kind, g.vth, g.size, load_ff, dl, dv);
  });
}

}  // namespace statleak
