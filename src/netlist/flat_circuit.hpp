/// \file flat_circuit.hpp
/// \brief Structure-of-arrays view of a finalized Circuit plus a frozen
///        copy of one implementation point.
///
/// The batched kernels (BatchDelayKernel, BatchLeakageKernel, BatchScorer)
/// walk contiguous arrays. FlatCircuit hands them:
///
///   - CSR fanin and fanout adjacency (`fanin_offset`/`fanin`,
///     `fanout_offset`/`fanout`), fanins pin-ordered exactly as in the Gate,
///   - the topological order bucketed by logic level (`topo` is a
///     permutation of all gate ids; `level_offset[l] .. level_offset[l+1]`
///     delimits the gates of level l, and within a level the original
///     topo_order() relative order is preserved),
///   - per-gate implementation attributes (`kind`, `vth`, `size`) and flags
///     (`is_input`) in index-by-GateId arrays.
///
/// The topology arrays are views of the Circuit's own (Circuit::fanin_csr(),
/// fanout_csr(), level_order(), level_offset(), outputs()), so a
/// FlatCircuit borrows its circuit: the circuit must outlive it and must
/// not be reassigned while it is in use. Only `kind`, `vth`, `size` and
/// `is_input` are copies. They are a snapshot: they do not observe later
/// set_size/set_vth mutations of the source Circuit. The batched kernels
/// precompute per-gate model constants on top of this snapshot, so rebuild
/// it (cheap; `flat.build_ns` counts it) whenever the implementation point
/// changes.
///
/// Because topo is a topological order, iterating it in sequence evaluates
/// every gate after all of its fanins — level buckets additionally expose
/// independent gate sets, which the kernels do not currently need but the
/// invariants test pins so future wavefront schedulers can rely on them.

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

  // Level-bucketed topological order: topo is a permutation of [0, num_gates);
  // level_offset has depth + 2 entries and level l occupies
  // topo[level_offset[l] .. level_offset[l + 1]).
  std::span<const GateId> topo;
  std::span<const std::uint32_t> level_offset;

  // Primary outputs (order matching Circuit::outputs()).
  std::span<const GateId> outputs;

  // Indexed by GateId; copied at build time.
  std::vector<char> is_input;
  std::vector<CellKind> kind;
  std::vector<Vth> vth;
  std::vector<double> size;

  int depth = 0;

  std::span<const GateId> fanins_of(GateId g) const {
    return {fanin.data() + fanin_offset[g], fanin.data() + fanin_offset[g + 1]};
  }
  std::span<const GateId> fanouts_of(GateId g) const {
    return {fanout.data() + fanout_offset[g],
            fanout.data() + fanout_offset[g + 1]};
  }
  std::span<const GateId> level_bucket(int l) const {
    return {topo.data() + level_offset[static_cast<std::size_t>(l)],
            topo.data() + level_offset[static_cast<std::size_t>(l) + 1]};
  }

  /// Views a finalized circuit and snapshots its implementation point.
  /// Throws statleak::Error if the circuit is not finalized.
  static FlatCircuit build(const Circuit& circuit);
};

}  // namespace statleak
