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

  flat.is_input.assign(n, 0);
  flat.kind.resize(n);
  flat.vth.resize(n);
  flat.size.resize(n);
  for (GateId g = 0; g < n; ++g) {
    const Gate gate = circuit.gate(g);
    flat.is_input[g] = gate.kind == CellKind::kInput ? 1 : 0;
    flat.kind[g] = gate.kind;
    flat.vth[g] = gate.vth;
    flat.size[g] = gate.size;
  }
  return flat;
}

}  // namespace statleak
