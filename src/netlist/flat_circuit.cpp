#include "netlist/flat_circuit.hpp"

#include "util/error.hpp"

namespace statleak {

FlatCircuit FlatCircuit::build(const Circuit& circuit) {
  STATLEAK_CHECK(circuit.finalized(),
                 "FlatCircuit requires a finalized circuit");
  FlatCircuit flat;
  const auto n = static_cast<std::uint32_t>(circuit.num_gates());
  flat.num_gates = n;
  flat.fanin_offset = circuit.fanin_csr().offset;
  flat.fanin = circuit.fanin_csr().ids;
  flat.fanout_offset = circuit.fanout_csr().offset;
  flat.fanout = circuit.fanout_csr().ids;
  flat.topo = circuit.topo_order();
  flat.outputs = circuit.outputs();

  flat.kind.assign(circuit.kinds().begin(), circuit.kinds().end());
  flat.vth.assign(circuit.vths().begin(), circuit.vths().end());
  flat.size.assign(circuit.sizes().begin(), circuit.sizes().end());
  flat.is_input.resize(n);
  for (GateId g = 0; g < n; ++g) {
    flat.is_input[g] = flat.kind[g] == CellKind::kInput ? 1 : 0;
  }
  return flat;
}

}  // namespace statleak
