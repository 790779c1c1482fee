#include "ssta/ssta.hpp"

#include "ssta/delay_model.hpp"
#include "util/error.hpp"

namespace statleak {

SstaEngine::SstaEngine(const Circuit& circuit, const CellLibrary& lib,
                       const VariationModel& var)
    : circuit_(circuit), lib_(lib), var_(var), loads_(circuit, lib) {
  var_.validate();
}

Canonical SstaEngine::gate_delay(GateId id) const {
  const Gate& g = circuit_.gate(id);
  return canonical_gate_delay(lib_, var_, g.kind, g.vth, g.size,
                              loads_.load_ff(id));
}

void SstaEngine::forward_pass() const {
  if (primed_) return;
  if (obs_ != nullptr) obs_->add("ssta.full_passes", 1.0);
  const std::size_t n = circuit_.num_gates();
  state_.arrival.assign(n, Canonical{});
  win_.assign(n, {});
  std::vector<Canonical> operands;
  for (GateId id : circuit_.topo_order()) {
    const Gate& g = circuit_.gate(id);
    if (g.kind == CellKind::kInput) continue;  // arrival stays zero
    STATLEAK_CHECK(!g.fanins.empty(), "max of nothing");
    operands.clear();
    for (GateId f : g.fanins) operands.push_back(state_.arrival[f]);
    win_[id].assign(operands.size(), 0.0);
    const Canonical in_max = clark_max_chain(operands, win_[id].data());
    state_.arrival[id] = Canonical::sum(in_max, gate_delay(id));
  }
  operands.clear();
  for (GateId out : circuit_.outputs()) {
    operands.push_back(state_.arrival[out]);
  }
  STATLEAK_CHECK(!operands.empty(), "max of nothing");
  sink_weights_.assign(operands.size(), 0.0);
  state_.circuit_delay = clark_max_chain(operands, sink_weights_.data());
  primed_ = true;
}

void SstaEngine::criticality_pass() const {
  if (crit_primed_) return;
  forward_pass();
  const std::size_t n = circuit_.num_gates();
  state_.criticality.assign(n, 0.0);
  for (std::size_t i = 0; i < circuit_.outputs().size(); ++i) {
    state_.criticality[circuit_.outputs()[i]] += sink_weights_[i];
  }
  const auto topo = circuit_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const Gate& g = circuit_.gate(id);
    if (g.kind == CellKind::kInput || state_.criticality[id] == 0.0) continue;
    for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
      state_.criticality[g.fanins[pin]] +=
          state_.criticality[id] * win_[id][pin];
    }
  }
  crit_primed_ = true;
}

const SstaResult& SstaEngine::analyze_ref() const {
  if (obs_ != nullptr) obs_->add("ssta.analyze_passes", 1.0);
  criticality_pass();
  return state_;
}

SstaResult SstaEngine::analyze() const { return analyze_ref(); }

Canonical SstaEngine::circuit_delay() const {
  if (obs_ != nullptr) obs_->add("ssta.forward_passes", 1.0);
  forward_pass();
  return state_.circuit_delay;
}

}  // namespace statleak
