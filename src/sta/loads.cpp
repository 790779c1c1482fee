#include "sta/loads.hpp"

#include "util/error.hpp"

namespace statleak {

double output_load_ff(const Circuit& circuit, const CellLibrary& lib,
                      GateId id) {
  const auto fanouts = circuit.fanouts(id);
  double load = lib.wire_cap_ff(static_cast<int>(fanouts.size()));
  for (GateId fo : fanouts) {
    const Gate& receiver = circuit.gate(fo);
    load += lib.pin_cap_ff(receiver.kind, receiver.size);
  }
  if (circuit.is_output(id)) {
    load += kPrimaryOutputLoadFactor * lib.pin_cap_ff(CellKind::kInv, 1.0);
  }
  return load;
}

LoadCache::LoadCache(const Circuit& circuit, const CellLibrary& lib)
    : circuit_(circuit), lib_(lib) {
  STATLEAK_CHECK(circuit.finalized(), "LoadCache requires finalized circuit");
  loads_.resize(circuit_.num_gates());
  for (GateId id = 0; id < circuit_.num_gates(); ++id) {
    loads_[id] = output_load_ff(circuit_, lib_, id);
  }
}

void LoadCache::on_resize(GateId resized) {
  for (GateId driver : circuit_.gate(resized).fanins) {
    loads_[driver] = output_load_ff(circuit_, lib_, driver);
  }
}

void LoadCache::restore_load(GateId id, double load_ff) {
  STATLEAK_CHECK(id < loads_.size(), "gate id out of range");
  loads_[id] = load_ff;
}

}  // namespace statleak
