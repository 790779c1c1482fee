/// \file arena.hpp
/// \brief Batched-engine state shared by the Monte-Carlo entry points.
///
/// run_monte_carlo, run_monte_carlo_spatial and run_abb_experiment all
/// evaluate samples in one block loop, run_mc_blocks (mc/sample_loop.hpp),
/// which readies the gate-major kernels through McArena::prepare(). A cold
/// call pays three fixed costs before the first sample: flattening the
/// circuit into SoA form (FlatCircuit::build), deriving the per-gate kernel
/// constant tables, and allocating the per-worker BatchScratch blocks. A
/// corner sweep evaluates the same frozen circuit dozens of times under
/// different CellLibrary instances, so those costs are pure overhead after
/// the first cell. An McArena carries them across calls: the FlatCircuit is
/// rebuilt only when the circuit changes, the kernels are rebind()-ed
/// (constants recomputed, allocations kept), and the scratch blocks keep
/// their capacity.
///
/// Reuse never changes a sampled bit: rebind() recomputes every derived
/// constant from the current library, and scratch contents are dead between
/// blocks. tests/sweep_test.cpp pins arena-reused populations bit-for-bit
/// against cold standalone runs.
///
/// Contract: a circuit shared through an arena must not be mutated between
/// runs — the cached FlatCircuit is keyed on the circuit's address. The
/// snapshot views the circuit's topology arrays (netlist/flat_circuit.hpp),
/// so the arena must not outlive the circuit; prepare() rebuilds it when
/// the circuit's arrays moved. Every arena in the library lives inside one
/// call that holds its circuit by reference (sweep_corners, run_mc_blocks).

#pragma once

#include <optional>
#include <vector>

#include "cells/library.hpp"
#include "leakage/batch_leakage.hpp"
#include "mc/batch.hpp"
#include "netlist/flat_circuit.hpp"
#include "obs/registry.hpp"
#include "sta/batch_delay.hpp"
#include "util/simd.hpp"

namespace statleak {

class Circuit;

struct McArena {
  const Circuit* circuit = nullptr;  ///< identity key of the cached snapshot
  std::optional<FlatCircuit> flat;
  std::optional<BatchDelayKernel> delay;
  std::optional<BatchLeakageKernel> leak;
  std::vector<BatchScratch> scratch;
  /// Variant of the lane draws and the first-order delay loop, from CPUID.
  SimdIsa isa = host_simd_isa();

  /// Readies the arena to evaluate `circuit` under `lib`: builds the
  /// FlatCircuit snapshot when the circuit changed (timed into the
  /// "flat.build_ns" counter), binds both kernels to the library's constants
  /// and the circuit's output loads, and grows the scratch pool to at least
  /// `workers` entries. Afterwards `delay`, `leak` and `scratch` are ready
  /// for one run.
  void prepare(const Circuit& circuit, const CellLibrary& lib, int workers,
               obs::Registry* obs);
};

}  // namespace statleak
