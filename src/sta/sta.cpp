#include "sta/sta.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/health.hpp"

namespace statleak {

double StaResult::worst_slack_ps() const {
  double worst = std::numeric_limits<double>::infinity();
  for (double s : slack_ps) worst = std::min(worst, s);
  return worst;
}

StaEngine::StaEngine(const Circuit& circuit, const CellLibrary& lib)
    : circuit_(circuit), lib_(lib), loads_(circuit, lib) {}

double StaEngine::gate_delay_ps(GateId id) const {
  const Gate& g = circuit_.gate(id);
  if (g.kind == CellKind::kInput) return 0.0;
  return lib_.delay_ps(g.kind, g.vth, g.size, loads_.load_ff(id));
}

double StaEngine::gate_delay_corner_ps(GateId id, const VariationModel& var,
                                       double k_sigma) const {
  const Gate& g = circuit_.gate(id);
  if (g.kind == CellKind::kInput) return 0.0;
  return lib_.delay_ps(g.kind, g.vth, g.size, loads_.load_ff(id),
                       k_sigma * var.sigma_l_total_nm(),
                       k_sigma * var.sigma_vth_total_v());
}

template <typename DelayFn>
StaResult StaEngine::analyze_impl(double t_max_ps, DelayFn&& delay) const {
  const std::size_t n = circuit_.num_gates();
  StaResult r;
  r.arrival_ps.assign(n, 0.0);
  r.required_ps.assign(n, std::numeric_limits<double>::infinity());
  r.slack_ps.assign(n, 0.0);

  // Cache per-gate delays once: both passes need them.
  std::vector<double> d(n, 0.0);
  for (GateId id = 0; id < n; ++id) d[id] = delay(id);

  for (GateId id : circuit_.topo_order()) {
    double in_arr = 0.0;
    for (GateId f : circuit_.gate(id).fanins) {
      in_arr = std::max(in_arr, r.arrival_ps[f]);
    }
    r.arrival_ps[id] = in_arr + d[id];
  }

  r.critical_delay_ps = 0.0;
  for (GateId out : circuit_.outputs()) {
    r.critical_delay_ps = std::max(r.critical_delay_ps, r.arrival_ps[out]);
  }

  for (GateId out : circuit_.outputs()) r.required_ps[out] = t_max_ps;
  const auto topo = circuit_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    // required at this gate's *output*; propagate to fanins through d[id].
    const double req_in = r.required_ps[id] - d[id];
    for (GateId f : circuit_.gate(id).fanins) {
      r.required_ps[f] = std::min(r.required_ps[f], req_in);
    }
  }
  // Gates with no fanout and not marked output keep +inf required; clamp to
  // t_max so slack stays meaningful. That is the only legitimate non-finite
  // value here: NaN or -inf means a poisoned delay or target flowed through
  // the backward pass, and silently clamping it would launder a numerical
  // fault into a plausible slack.
  for (GateId id = 0; id < n; ++id) {
    if (!std::isfinite(r.required_ps[id])) {
      if (r.required_ps[id] == std::numeric_limits<double>::infinity()) {
        r.required_ps[id] = t_max_ps;
      } else {
        throw NumericalError(
            "STA backward pass produced a non-finite required time at gate " +
            std::to_string(id) +
            " — a gate delay or the t_max target is NaN/-inf");
      }
    }
    r.slack_ps[id] = r.required_ps[id] - r.arrival_ps[id];
  }
  return r;
}

StaResult StaEngine::analyze(double t_max_ps) const {
  return analyze_impl(t_max_ps, [this](GateId id) { return gate_delay_ps(id); });
}

StaResult StaEngine::analyze_corner(double t_max_ps, const VariationModel& var,
                                    double k_sigma) const {
  return analyze_impl(t_max_ps, [&](GateId id) {
    return gate_delay_corner_ps(id, var, k_sigma);
  });
}

double StaEngine::critical_delay_ps() const {
  std::vector<double> arr(circuit_.num_gates(), 0.0);
  for (GateId id : circuit_.topo_order()) {
    double in_arr = 0.0;
    for (GateId f : circuit_.gate(id).fanins) in_arr = std::max(in_arr, arr[f]);
    arr[id] = in_arr + gate_delay_ps(id);
  }
  double worst = 0.0;
  for (GateId out : circuit_.outputs()) worst = std::max(worst, arr[out]);
  return worst;
}

std::vector<GateId> StaEngine::critical_path() const {
  const StaResult r = analyze(0.0);
  GateId cursor = kInvalidGate;
  double best = -1.0;
  for (GateId out : circuit_.outputs()) {
    if (r.arrival_ps[out] > best) {
      best = r.arrival_ps[out];
      cursor = out;
    }
  }
  STATLEAK_CHECK(cursor != kInvalidGate, "circuit has no outputs");

  std::vector<GateId> path;
  while (cursor != kInvalidGate) {
    path.push_back(cursor);
    const Gate& g = circuit_.gate(cursor);
    GateId next = kInvalidGate;
    double next_arr = -1.0;
    for (GateId f : g.fanins) {
      if (r.arrival_ps[f] > next_arr) {
        next_arr = r.arrival_ps[f];
        next = f;
      }
    }
    cursor = next;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace statleak
