/// \file circuit.hpp
/// \brief The gate-level netlist data model.
///
/// A Circuit is a DAG of gates. Primary inputs are pseudo-gates of kind
/// CellKind::kInput so every timing/leakage traversal sees a uniform graph.
/// Construction is two-phase: add gates (forward references allowed, as in
/// .bench files, through kInvalidGate placeholders patched with
/// patch_fanin()), then finalize() — which validates arities and acyclicity
/// and builds the shared graph below. After finalization the topology is
/// frozen; the optimizers mutate only the per-gate implementation
/// attributes (size, Vth).
///
/// Storage is compact. Kind, Vth and size live in per-gate arrays and the
/// fanins in one CSR. Names live in one arena, indexed by an
/// open-addressing table of GateIds. gate(id) returns a small by-value Gate
/// view into those arrays.
///
/// finalize() builds the graph every engine shares, once: the topological
/// order and each gate's rank in it, the logic levels, the by-id fanout
/// CSR, and the rank-space fanin and fanout CSR (rows by rank, entries as
/// ranks). The topological order is the only gate order: FlatCircuit and
/// the batched kernels view it with the by-id arrays, and the incremental
/// timers (FlatSstaEngine, CornerTimer) walk the rank-space CSR in it.

#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cells/cell_kind.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"

namespace statleak {

using GateId = std::uint32_t;
inline constexpr GateId kInvalidGate = std::numeric_limits<GateId>::max();

/// A gate's pin-ordered fanins: a span that compares by value.
struct Fanins : std::span<const GateId> {
  using std::span<const GateId>::span;
  friend bool operator==(Fanins a, Fanins b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// View of one gate instance. `fanins` are pin-ordered. `name` and
/// `fanins` point into the circuit: they stay valid until the circuit is
/// destroyed or, before finalize(), until the next add_gate() or
/// finalize().
struct Gate {
  std::string_view name;
  CellKind kind = CellKind::kInput;
  Vth vth = Vth::kLow;
  double size = 1.0;
  Fanins fanins;
};

/// Compressed sparse rows: row v holds ids[offset[v] .. offset[v + 1]).
struct Csr {
  std::vector<std::uint32_t> offset{0};
  std::vector<std::uint32_t> ids;

  std::span<const std::uint32_t> row(std::uint32_t v) const {
    return {ids.data() + offset[v], ids.data() + offset[v + 1]};
  }
};

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a primary input. Names must be unique across all gates.
  GateId add_input(std::string_view name);

  /// Adds a logic gate. A fanin may be kInvalidGate, a placeholder that
  /// patch_fanin() fills before finalize(), so gates can be added in any
  /// order.
  GateId add_gate(std::string_view name, CellKind kind,
                  std::span<const GateId> fanins);
  GateId add_gate(std::string_view name, CellKind kind,
                  std::initializer_list<GateId> fanins) {
    return add_gate(name, kind, std::span(fanins.begin(), fanins.size()));
  }
  /// Sets pin `pin` of gate `id` to `src`. Only before finalize().
  void patch_fanin(GateId id, std::size_t pin, GateId src);
  /// Capacity hint: room for `n` gates.
  void reserve(std::size_t n);

  /// Marks a gate as a primary output (idempotent). Only before finalize().
  void mark_output(GateId id);

  /// Validates and freezes the topology. Throws statleak::Error on arity
  /// mismatch, dangling fanin, cycles, or zero outputs.
  void finalize();
  bool finalized() const { return finalized_; }

  // --- structure access (most require finalized()) -----------------------
  std::size_t num_gates() const { return kind_.size(); }
  /// Number of logic cells (gates excluding primary-input pseudo-gates).
  std::size_t num_cells() const { return kind_.size() - inputs_.size(); }
  Gate gate(GateId id) const {
    check_id(id);
    const std::span<const GateId> fanins = fanin_.row(id);
    return {name_of(id), kind_[id], vth_[id], size_[id],
            {fanins.data(), fanins.size()}};
  }
  /// Every gate's kind, Vth and size, by GateId.
  std::span<const CellKind> kinds() const { return kind_; }
  std::span<const Vth> vths() const { return vth_; }
  std::span<const double> sizes() const { return size_; }
  std::span<const GateId> inputs() const { return inputs_; }
  std::span<const GateId> outputs() const { return outputs_; }
  bool is_output(GateId id) const {
    check_id(id);
    return id < is_output_.size() && is_output_[id] != 0;
  }
  std::span<const GateId> fanouts(GateId id) const {
    require_finalized();
    check_id(id);
    return fanout_.row(id);
  }
  /// Gates in topological order (fanins before fanouts), inputs first. A
  /// gate's position in it is its rank.
  std::span<const GateId> topo_order() const { return frozen(topo_); }
  /// Logic level of a gate: 0 for inputs, 1 + max(fanin levels) otherwise.
  int level(GateId id) const {
    require_finalized();
    check_id(id);
    return level_[id];
  }
  /// Maximum logic level over all gates (circuit depth).
  int depth() const { return frozen(depth_); }

  // --- the shared graph (requires finalized()) ---------------------------
  /// By-id CSR: row g holds g's fanins, pin-ordered (also before
  /// finalize()), and g's fanouts by consumer id, then pin.
  const Csr& fanin_csr() const { return fanin_; }
  const Csr& fanout_csr() const { return frozen(fanout_); }
  /// GateId -> rank, the inverse of topo_order().
  std::span<const std::uint32_t> ranks() const { return frozen(rank_); }
  /// The by-id CSR mapped through rank: row r holds the ranks of
  /// topo_order()[r]'s fanins (fanouts), in the by-id row's order.
  const Csr& rank_fanin_csr() const { return frozen(rank_fanin_); }
  const Csr& rank_fanout_csr() const { return frozen(rank_fanout_); }

  /// Id of the gate with the given name, or kInvalidGate.
  GateId find(std::string_view name) const;

  // --- implementation attributes (mutable after finalize) ----------------
  /// Throws unless `size` is finite and positive.
  void set_size(GateId id, double size);
  void set_vth(GateId id, Vth vth);

  /// Counts cells currently assigned to high Vth.
  std::size_t count_hvt() const;

 private:
  void require_finalized() const {
    STATLEAK_CHECK(finalized_, "circuit must be finalized first");
  }
  /// `member`, once the topology is frozen.
  template <typename T>
  const T& frozen(const T& member) const {
    require_finalized();
    return member;
  }
  void check_id(GateId id) const {
    STATLEAK_CHECK(id < num_gates(), "gate id out of range");
  }
  std::string_view name_of(GateId id) const {
    return std::string_view(names_).substr(
        name_offset_[id], name_offset_[id + 1] - name_offset_[id]);
  }
  /// Slot of `name` in slots_: its gate, or the empty slot it would take.
  std::size_t probe(std::string_view name) const;
  void rehash(std::size_t capacity);

  std::string name_;
  std::vector<CellKind> kind_;
  std::vector<Vth> vth_;
  std::vector<double> size_;
  Csr fanin_;
  std::string names_;  ///< every gate name, back to back
  /// Gate g's name is names_[name_offset_[g] .. name_offset_[g + 1]).
  std::vector<std::uint32_t> name_offset_{0};
  std::vector<GateId> slots_;  ///< open addressing, kInvalidGate = empty
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<char> is_output_;

  bool finalized_ = false;
  int depth_ = 0;
  std::vector<GateId> topo_;
  std::vector<std::uint32_t> rank_;
  std::vector<int> level_;
  Csr fanout_;
  Csr rank_fanin_;
  Csr rank_fanout_;
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
