#include "opt/corner_timer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/health.hpp"

namespace statleak {

CornerTimer::CornerTimer(Circuit& circuit, const CellLibrary& lib,
                         double dl_nm, double dvth_v)
    : circuit_(circuit),
      lib_(lib),
      dl_nm_(dl_nm),
      dvth_v_(dvth_v),
      flat_(FlatCircuit::build(circuit)),
      loads_(circuit, lib) {
  const std::size_t n = circuit.num_gates();
  step_.resize(n);
  for (GateId id = 0; id < n; ++id) {
    step_[id] = lib.nearest_step(circuit.gate(id).size);
  }
  now_.assign(n, 0.0);
  entry_.resize(n);
  stale_.assign(n, 0);
  for (GateId id = 0; id < n; ++id) invalidate(id, kDelays | kPenalty);
  result_.arrival_ps.resize(n);
  result_.required_ps.resize(n);
  result_.slack_ps.resize(n);
}

void CornerTimer::set_size_step(GateId id, std::size_t step) {
  const auto steps = lib_.size_steps();
  STATLEAK_CHECK(step < steps.size(), "size step out of range");
  circuit_.set_size(id, steps[step]);
  step_[id] = step;
  loads_.on_resize(id);
  invalidate(id, kDelays | kPenalty);
  for (GateId f : flat_.fanins_of(id)) {
    invalidate(f, kDelays);
    for (GateId fo : flat_.fanouts_of(f)) invalidate(fo, kPenalty);
  }
  for (GateId fo : flat_.fanouts_of(id)) invalidate(fo, kPenalty);
}

void CornerTimer::set_vth(GateId id, Vth vth) {
  circuit_.set_vth(id, vth);
  invalidate(id, kDelays);
  for (GateId fo : flat_.fanouts_of(id)) invalidate(fo, kPenalty);
}

double CornerTimer::eval(GateId id, Vth vth, double size, double load_ff) {
  ++delay_evals_;
  return lib_.delay_ps(flat_.kind[id], vth, size, load_ff, dl_nm_, dvth_v_);
}

double CornerTimer::rebuild_now(GateId id) {
  const Gate& g = circuit_.gate(id);
  const double d = eval(id, g.vth, g.size, loads_.load_ff(id));
  if (!std::isfinite(d)) {
    throw NumericalError("corner delay of gate " + std::to_string(id) +
                         " is not finite — a library or load input is "
                         "NaN/inf");
  }
  now_[id] = d;
  stale_[id] &= static_cast<unsigned char>(~kNow);
  return d;
}

double CornerTimer::delay_up_ps(GateId id) {
  Entry& e = entry_[id];
  if ((stale_[id] & kUp) != 0) {
    const Gate& g = circuit_.gate(id);
    e.up = eval(id, g.vth, lib_.size_steps()[step_[id] + 1],
                loads_.load_ff(id));
    stale_[id] &= static_cast<unsigned char>(~kUp);
  }
  return e.up;
}

double CornerTimer::delay_hvt_ps(GateId id) {
  Entry& e = entry_[id];
  if ((stale_[id] & kHvt) != 0) {
    e.hvt = eval(id, Vth::kHigh, circuit_.gate(id).size, loads_.load_ff(id));
    stale_[id] &= static_cast<unsigned char>(~kHvt);
  }
  return e.hvt;
}

double CornerTimer::delay_down_ps(GateId id) {
  Entry& e = entry_[id];
  if ((stale_[id] & kDown) != 0) {
    const Gate& g = circuit_.gate(id);
    e.down = eval(id, g.vth, lib_.size_steps()[step_[id] - 1],
                  loads_.load_ff(id));
    stale_[id] &= static_cast<unsigned char>(~kDown);
  }
  return e.down;
}

double CornerTimer::upsize_penalty_ps(GateId id) {
  if ((stale_[id] & kPenalty) != 0) {
    // Upsizing raises every fanin driver's load by the pin-cap delta.
    const Gate& g = circuit_.gate(id);
    const double dcap =
        lib_.pin_cap_ff(g.kind, lib_.size_steps()[step_[id] + 1]) -
        lib_.pin_cap_ff(g.kind, g.size);
    double penalty = 0.0;
    for (GateId f : flat_.fanins_of(id)) {
      if (flat_.is_input[f] != 0) continue;
      const Gate& drv = circuit_.gate(f);
      penalty += eval(f, drv.vth, drv.size, loads_.load_ff(f) + dcap) -
                 delay_ps(f);
    }
    entry_[id].penalty = penalty;
    stale_[id] &= static_cast<unsigned char>(~kPenalty);
  }
  return entry_[id].penalty;
}

void CornerTimer::forward() {
  ++sta_passes_;
  std::vector<double>& arr = result_.arrival_ps;
  for (GateId id : flat_.topo) {
    double in_arr = 0.0;
    for (GateId f : flat_.fanins_of(id)) in_arr = std::max(in_arr, arr[f]);
    arr[id] = in_arr + delay_ps(id);
  }
  result_.critical_delay_ps = 0.0;
  for (GateId out : flat_.outputs) {
    result_.critical_delay_ps = std::max(result_.critical_delay_ps, arr[out]);
  }
}

double CornerTimer::critical_delay_ps() {
  forward();
  return result_.critical_delay_ps;
}

const StaResult& CornerTimer::analyze(double t_max_ps) {
  forward();
  // Same backward expressions and non-finite guard as
  // StaEngine::analyze_impl; min is exact, so the level-bucketed order
  // yields the same bits as the object-graph topological order.
  std::vector<double>& req = result_.required_ps;
  std::fill(req.begin(), req.end(), std::numeric_limits<double>::infinity());
  for (GateId out : flat_.outputs) req[out] = t_max_ps;
  for (auto it = flat_.topo.rbegin(); it != flat_.topo.rend(); ++it) {
    const GateId id = *it;
    const double req_in = req[id] - now_[id];
    for (GateId f : flat_.fanins_of(id)) req[f] = std::min(req[f], req_in);
  }
  for (GateId id = 0; id < flat_.num_gates; ++id) {
    if (!std::isfinite(req[id])) {
      if (req[id] == std::numeric_limits<double>::infinity()) {
        req[id] = t_max_ps;
      } else {
        throw NumericalError(
            "STA backward pass produced a non-finite required time at gate " +
            std::to_string(id) +
            " — a gate delay or the t_max target is NaN/-inf");
      }
    }
    result_.slack_ps[id] = req[id] - result_.arrival_ps[id];
  }
  return result_;
}

}  // namespace statleak
