/// \file flat_circuit.hpp
/// \brief Structure-of-arrays view of a finalized Circuit plus a frozen
///        copy of one implementation point.
///
/// The Monte-Carlo batched kernels (BatchDelayKernel, BatchLeakageKernel)
/// walk contiguous arrays. FlatCircuit hands them:
///
///   - CSR fanin and fanout adjacency (`fanin_offset`/`fanin`,
///     `fanout_offset`/`fanout`), fanins pin-ordered exactly as in the Gate,
///   - the topological order (`topo`, Circuit::topo_order(): a permutation
///     of all gate ids with every gate after all of its fanins),
///   - per-gate implementation attributes (`kind`, `vth`, `size`) and flags
///     (`is_input`) in index-by-GateId arrays.
///
/// The topology arrays are views of the Circuit's own (Circuit::fanin_csr(),
/// fanout_csr(), topo_order(), outputs()), so a FlatCircuit borrows its
/// circuit: the circuit must outlive it and must not be reassigned while it
/// is in use. Only `kind`, `vth`, `size` and `is_input` are copies. They are
/// a snapshot: they do not observe later set_size/set_vth mutations of the
/// source Circuit. The batched kernels precompute per-gate model constants
/// on top of this snapshot, so rebuild it (cheap; `flat.build_ns` counts it)
/// whenever the implementation point changes.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"

namespace statleak {

struct FlatCircuit {
  std::uint32_t num_gates = 0;

  // CSR fanin adjacency: fanins of gate g are
  // fanin[fanin_offset[g] .. fanin_offset[g + 1]), pin-ordered.
  std::span<const std::uint32_t> fanin_offset;
  std::span<const GateId> fanin;

  // CSR fanout adjacency, same layout, order matching Circuit::fanouts().
  std::span<const std::uint32_t> fanout_offset;
  std::span<const GateId> fanout;

  // Topological order: a permutation of [0, num_gates), fanins first.
  std::span<const GateId> topo;

  // Primary outputs (order matching Circuit::outputs()).
  std::span<const GateId> outputs;

  // Indexed by GateId; copied at build time.
  std::vector<char> is_input;
  std::vector<CellKind> kind;
  std::vector<Vth> vth;
  std::vector<double> size;

  std::span<const GateId> fanins_of(GateId g) const {
    return {fanin.data() + fanin_offset[g], fanin.data() + fanin_offset[g + 1]};
  }
  std::span<const GateId> fanouts_of(GateId g) const {
    return {fanout.data() + fanout_offset[g],
            fanout.data() + fanout_offset[g + 1]};
  }

  /// Views a finalized circuit and snapshots its implementation point.
  /// Throws statleak::Error if the circuit is not finalized.
  static FlatCircuit build(const Circuit& circuit);
};

}  // namespace statleak
