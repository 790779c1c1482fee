#include "opt/metrics.hpp"

#include <limits>

#include "leakage/leakage.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/sta.hpp"
#include "util/health.hpp"

namespace statleak {

CircuitMetrics measure_metrics(const Circuit& circuit, const CellLibrary& lib,
                               const VariationModel& var, double t_max_ps) {
  if (!(t_max_ps > -std::numeric_limits<double>::infinity())) {
    throw NumericalError("measure_metrics: the t_max target is NaN/-inf");
  }
  CircuitMetrics m;

  const StaEngine sta(circuit, lib);
  m.nominal_delay_ps = sta.critical_delay_ps();
  m.corner3_delay_ps = sta.corner_delay_ps(var, 3.0);

  const Canonical delay = FlatSstaEngine(circuit, lib, var).circuit_delay();
  m.ssta_delay_mean_ps = delay.mean;
  m.ssta_delay_sigma_ps = delay.sigma();
  m.timing_yield = delay.cdf(t_max_ps);

  LeakageAnalyzer leak(circuit, lib, var);
  const LeakageDistribution dist = leak.distribution();
  m.leakage_nominal_na = leak.nominal_na();
  m.leakage_mean_na = dist.mean_na;
  m.leakage_sigma_na = dist.stddev_na();
  m.leakage_p95_na = dist.quantile_na(0.95);
  m.leakage_p99_na = dist.quantile_na(0.99);

  m.cell_count = circuit.num_cells();
  m.hvt_count = circuit.count_hvt();
  m.hvt_fraction =
      m.cell_count ? static_cast<double>(m.hvt_count) / m.cell_count : 0.0;
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    if (g.kind == CellKind::kInput) continue;
    m.area_um += lib.area_um(g.kind, g.size);
  }
  return m;
}

void reset_implementation(Circuit& circuit, const CellLibrary& lib) {
  const double min_size = lib.size_steps().front();
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    if (circuit.gate(id).kind == CellKind::kInput) continue;
    circuit.set_size(id, min_size);
    circuit.set_vth(id, Vth::kLow);
  }
}

}  // namespace statleak
