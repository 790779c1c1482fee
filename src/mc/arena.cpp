#include "mc/arena.hpp"

#include <chrono>

#include "netlist/circuit.hpp"
#include "sta/loads.hpp"

namespace statleak {

void McArena::prepare(const Circuit& circuit, const CellLibrary& lib,
                      int workers, obs::Registry* obs) {
  if (this->circuit != &circuit || !flat.has_value() ||
      flat->fanin.data() != circuit.fanin_csr().ids.data()) {
    const auto t0 = std::chrono::steady_clock::now();
    this->circuit = &circuit;
    flat.emplace(FlatCircuit::build(circuit));
    const auto t1 = std::chrono::steady_clock::now();
    if (obs != nullptr) {
      obs->add("flat.build_ns",
               static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                        t0)
                       .count()));
    }
  }
  // The kernels copy what they need from the loads, so the cache dies here.
  const LoadCache loads(circuit, lib);
  if (delay.has_value()) {
    delay->rebind(*flat, lib, loads);
  } else {
    delay.emplace(*flat, lib, loads, isa);
  }
  if (leak.has_value()) {
    leak->rebind(*flat, lib);
  } else {
    leak.emplace(*flat, lib, isa);
  }
  if (scratch.size() < static_cast<std::size_t>(workers)) {
    scratch.resize(static_cast<std::size_t>(workers));
  }
}

}  // namespace statleak
