/// \file circuit.hpp
/// \brief The gate-level netlist data model.
///
/// A Circuit is a DAG of gates. Primary inputs are pseudo-gates of kind
/// CellKind::kInput so every timing/leakage traversal sees a uniform graph.
/// Construction is two-phase: add gates (forward references allowed, as in
/// .bench files), then finalize() — which validates arities and acyclicity
/// and builds fanout lists, a topological order, and logic levels. After
/// finalization the topology is frozen; the optimizers mutate only the
/// per-gate implementation attributes (size, Vth).

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cells/cell_kind.hpp"
#include "tech/process.hpp"

namespace statleak {

using GateId = std::uint32_t;
inline constexpr GateId kInvalidGate = std::numeric_limits<GateId>::max();

/// One gate instance. `fanins` are pin-ordered.
struct Gate {
  std::string name;
  CellKind kind = CellKind::kInput;
  Vth vth = Vth::kLow;
  double size = 1.0;
  std::vector<GateId> fanins;
};

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a primary input. Names must be unique across all gates.
  GateId add_input(std::string_view name);

  /// Adds a logic gate. Fanins may be patched through gate() before
  /// finalize(), so gates can be added in any order.
  GateId add_gate(std::string_view name, CellKind kind,
                  std::vector<GateId> fanins);
  /// Capacity hint: room for `n` gates and their names.
  void reserve(std::size_t n) { gates_.reserve(n); by_name_.reserve(n); }

  /// Marks a gate as a primary output (idempotent).
  void mark_output(GateId id);

  /// Validates and freezes the topology. Throws statleak::Error on arity
  /// mismatch, dangling fanin, cycles, or zero outputs.
  void finalize();
  bool finalized() const { return finalized_; }

  // --- structure access (most require finalized()) -----------------------
  std::size_t num_gates() const { return gates_.size(); }
  /// Number of logic cells (gates excluding primary-input pseudo-gates).
  std::size_t num_cells() const { return gates_.size() - inputs_.size(); }
  const Gate& gate(GateId id) const;
  Gate& gate(GateId id);
  std::span<const GateId> inputs() const { return inputs_; }
  std::span<const GateId> outputs() const { return outputs_; }
  bool is_output(GateId id) const;
  std::span<const GateId> fanouts(GateId id) const;
  /// Gates in topological order (fanins before fanouts), inputs first.
  std::span<const GateId> topo_order() const;
  /// Logic level of a gate: 0 for inputs, 1 + max(fanin levels) otherwise.
  int level(GateId id) const;
  /// Maximum logic level over all gates (circuit depth).
  int depth() const;

  /// Id of the gate with the given name, or kInvalidGate.
  GateId find(std::string_view name) const;

  // --- implementation attributes (mutable after finalize) ----------------
  void set_size(GateId id, double size);
  void set_vth(GateId id, Vth vth);

  /// Counts cells currently assigned to high Vth.
  std::size_t count_hvt() const;

 private:
  void require_finalized() const;

  /// Lets find() look a string_view up without building a std::string.
  struct Hash : std::hash<std::string_view> { using is_transparent = void; };

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<char> is_output_;
  std::unordered_map<std::string, GateId, Hash, std::equal_to<>> by_name_;

  bool finalized_ = false;
  std::vector<GateId> topo_;
  std::vector<int> level_;
  // Fanouts as CSR: g's are fanout_ids_[fanout_offset_[g], ..[g + 1]).
  std::vector<std::uint32_t> fanout_offset_;
  std::vector<GateId> fanout_ids_;
};

/// Evaluates the circuit on one input assignment. `input_values[i]` is the
/// value of circuit.inputs()[i]. Returns one value per gate, indexed by
/// GateId. Requires a finalized circuit.
std::vector<char> simulate(const Circuit& circuit,
                           std::span<const char> input_values);

/// Structural summary used by Table 1 of the experiment harness.
struct CircuitStats {
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  std::size_t num_cells = 0;
  int depth = 0;
  double avg_fanout = 0.0;
};

CircuitStats circuit_stats(const Circuit& circuit);

}  // namespace statleak
