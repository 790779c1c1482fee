// Full-pass graph-timing oracle: the plain reference passes the production
// timers are pinned against bit for bit (ssta_incremental_test,
// corner_timer_test, integration_test's metrics check).
//
// Each pass walks the Circuit object graph once, in Circuit::topo_order(),
// with the per-gate expressions the engines use: canonical_gate_delay() and
// clark_max_chain() from ssta/delay_model.hpp for SSTA, CellLibrary::
// delay_ps() under max/min for STA. Nothing is cached and nothing is
// incremental: every call is a pure function of the circuit's current
// implementation, with loads rebuilt from scratch.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "ssta/delay_model.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/loads.hpp"
#include "sta/sta.hpp"
#include "tech/variation.hpp"
#include "util/error.hpp"
#include "util/health.hpp"

namespace statleak::oracle {

/// Delay of one gate (pseudo-inputs have zero delay): nominal, or with
/// `var` at its global k-sigma slow corner (both dL and dVth pushed k
/// standard deviations slow).
inline double gate_delay_ps(const Circuit& circuit, const CellLibrary& lib,
                            const LoadCache& loads, GateId id,
                            const VariationModel* var = nullptr,
                            double k_sigma = 0.0) {
  const Gate& g = circuit.gate(id);
  if (g.kind == CellKind::kInput) return 0.0;
  if (var == nullptr) {
    return lib.delay_ps(g.kind, g.vth, g.size, loads.load_ff(id));
  }
  return lib.delay_ps(g.kind, g.vth, g.size, loads.load_ff(id),
                      k_sigma * var->sigma_l_total_nm(),
                      k_sigma * var->sigma_vth_total_v());
}

/// Full STA against `t_max_ps`, with gate delays as in gate_delay_ps():
/// arrivals forward, required times backward, slack per gate.
inline StaResult sta(const Circuit& circuit, const CellLibrary& lib,
                     double t_max_ps, const VariationModel* var = nullptr,
                     double k_sigma = 0.0) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const LoadCache loads(circuit, lib);
  const std::size_t n = circuit.num_gates();
  StaResult r;
  r.arrival_ps.assign(n, 0.0);
  r.required_ps.assign(n, kInf);
  r.slack_ps.assign(n, 0.0);
  std::vector<double> d(n);
  for (GateId id = 0; id < n; ++id) {
    d[id] = gate_delay_ps(circuit, lib, loads, id, var, k_sigma);
  }

  const auto topo = circuit.topo_order();
  for (GateId id : topo) {
    double in_arr = 0.0;
    for (GateId f : circuit.gate(id).fanins) {
      in_arr = std::max(in_arr, r.arrival_ps[f]);
    }
    r.arrival_ps[id] = in_arr + d[id];
  }
  for (GateId out : circuit.outputs()) {
    r.critical_delay_ps = std::max(r.critical_delay_ps, r.arrival_ps[out]);
    r.required_ps[out] = t_max_ps;
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    // Required at this gate's output; propagate to fanins through d[id].
    const double req_in = r.required_ps[*it] - d[*it];
    for (GateId f : circuit.gate(*it).fanins) {
      r.required_ps[f] = std::min(r.required_ps[f], req_in);
    }
  }
  // Gates with no fanout and no output mark keep +inf: clamp to t_max. Any
  // other non-finite required time means a NaN/-inf delay or target.
  for (GateId id = 0; id < n; ++id) {
    if (r.required_ps[id] == kInf) {
      r.required_ps[id] = t_max_ps;
    } else if (!std::isfinite(r.required_ps[id])) {
      throw NumericalError("STA backward pass produced a non-finite required "
                           "time at gate " + std::to_string(id));
    }
    r.slack_ps[id] = r.required_ps[id] - r.arrival_ps[id];
  }
  return r;
}

/// Worst slack over all gates.
inline double worst_slack_ps(const StaResult& r) {
  return *std::min_element(r.slack_ps.begin(), r.slack_ps.end());
}

/// Gates of the nominal critical path, input to output: the latest output,
/// then at each gate its latest fanin.
inline std::vector<GateId> critical_path(const Circuit& circuit,
                                         const CellLibrary& lib) {
  const StaResult r = sta(circuit, lib, 0.0);
  const auto latest = [&](std::span<const GateId> gates) {
    GateId best = kInvalidGate;
    for (GateId id : gates) {
      if (best == kInvalidGate || r.arrival_ps[id] > r.arrival_ps[best]) {
        best = id;
      }
    }
    return best;
  };
  std::vector<GateId> path;
  for (GateId g = latest(circuit.outputs()); g != kInvalidGate;
       g = latest(circuit.gate(g).fanins)) {
    path.push_back(g);
  }
  STATLEAK_CHECK(!path.empty(), "circuit has no outputs");
  std::reverse(path.begin(), path.end());
  return path;
}

/// Full SSTA with criticality. Forward: each gate's fanin arrivals folded
/// by iterated Clark MAX (recording the per-fanin win weights), plus its
/// canonical delay; the circuit delay is the Clark MAX over the outputs.
/// Backward: each output starts with its sink weight, and every gate
/// scatters criticality x win weight to its fanins in reverse topo order.
inline SstaResult ssta(const Circuit& circuit, const CellLibrary& lib,
                       const VariationModel& var) {
  var.validate();
  const LoadCache loads(circuit, lib);
  const std::size_t n = circuit.num_gates();
  SstaResult r;
  r.arrival.assign(n, Canonical{});
  std::vector<std::vector<double>> win(n);
  std::vector<Canonical> operands;
  const auto topo = circuit.topo_order();
  for (GateId id : topo) {
    const Gate& g = circuit.gate(id);
    if (g.kind == CellKind::kInput) continue;  // arrival stays zero
    STATLEAK_CHECK(!g.fanins.empty(), "max of nothing");
    operands.clear();
    for (GateId f : g.fanins) operands.push_back(r.arrival[f]);
    win[id].assign(operands.size(), 0.0);
    const Canonical in_max = clark_max_chain(operands, win[id].data());
    r.arrival[id] = Canonical::sum(
        in_max, canonical_gate_delay(lib, var, g.kind, g.vth, g.size,
                                     loads.load_ff(id)));
  }
  operands.clear();
  for (GateId out : circuit.outputs()) operands.push_back(r.arrival[out]);
  STATLEAK_CHECK(!operands.empty(), "max of nothing");
  std::vector<double> sink(operands.size(), 0.0);
  r.circuit_delay = clark_max_chain(operands, sink.data());

  r.criticality.assign(n, 0.0);
  for (std::size_t i = 0; i < circuit.outputs().size(); ++i) {
    r.criticality[circuit.outputs()[i]] += sink[i];
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const Gate& g = circuit.gate(*it);
    if (g.kind == CellKind::kInput || r.criticality[*it] == 0.0) continue;
    for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
      r.criticality[g.fanins[pin]] += r.criticality[*it] * win[*it][pin];
    }
  }
  return r;
}

}  // namespace statleak::oracle
