#include "netlist/circuit.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace statleak {

GateId Circuit::add_input(std::string_view name) {
  return add_gate(name, CellKind::kInput, {});
}

GateId Circuit::add_gate(std::string_view name, CellKind kind,
                         std::vector<GateId> fanins) {
  STATLEAK_CHECK(!finalized_, "cannot add gates after finalize");
  STATLEAK_CHECK(!name.empty(), "gate name must be non-empty");
  STATLEAK_CHECK(by_name_.find(name) == by_name_.end(),
                 "duplicate gate name: " + std::string(name));
  const auto id = static_cast<GateId>(gates_.size());
  Gate g;
  g.name = name;
  g.kind = kind;
  g.fanins = std::move(fanins);
  gates_.push_back(std::move(g));
  by_name_.emplace(name, id);
  if (kind == CellKind::kInput) inputs_.push_back(id);
  return id;
}

void Circuit::mark_output(GateId id) {
  STATLEAK_CHECK(id < gates_.size(), "output id out of range");
  if (is_output_.size() < gates_.size()) is_output_.resize(gates_.size(), 0);
  if (!is_output_[id]) {
    is_output_[id] = 1;
    outputs_.push_back(id);
  }
}

void Circuit::finalize() {
  STATLEAK_CHECK(!finalized_, "finalize called twice");
  STATLEAK_CHECK(!outputs_.empty(), "circuit has no primary outputs");
  is_output_.resize(gates_.size(), 0);

  // Arity and dangling-fanin validation.
  for (const Gate& g : gates_) {
    const int want = cell_info(g.kind).fanin;
    STATLEAK_CHECK(static_cast<int>(g.fanins.size()) == want,
                   "gate '" + g.name + "' (" +
                       std::string(to_string(g.kind)) + ") has " +
                       std::to_string(g.fanins.size()) + " fanins, expected " +
                       std::to_string(want));
    for (GateId f : g.fanins) {
      STATLEAK_CHECK(f < gates_.size(),
                     "gate '" + g.name + "' references undefined fanin");
    }
  }

  // Fanout CSR, each list by consumer id, then pin.
  fanout_offset_.assign(gates_.size() + 1, 0);
  for (const Gate& g : gates_) {
    for (GateId f : g.fanins) ++fanout_offset_[f + 1];
  }
  std::partial_sum(fanout_offset_.begin(), fanout_offset_.end(),
                   fanout_offset_.begin());
  std::vector<std::uint32_t> next(fanout_offset_.begin(),
                                  fanout_offset_.end() - 1);
  fanout_ids_.resize(fanout_offset_.back());
  for (GateId id = 0; id < gates_.size(); ++id) {
    for (GateId f : gates_[id].fanins) fanout_ids_[next[f]++] = id;
  }

  // Kahn topological sort; detects cycles.
  std::vector<int> pending(gates_.size());
  topo_.clear();
  topo_.reserve(gates_.size());
  for (GateId id = 0; id < gates_.size(); ++id) {
    pending[id] = static_cast<int>(gates_[id].fanins.size());
    if (pending[id] == 0) topo_.push_back(id);
  }
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    const GateId v = topo_[head];
    for (auto k = fanout_offset_[v]; k < fanout_offset_[v + 1]; ++k) {
      if (--pending[fanout_ids_[k]] == 0) topo_.push_back(fanout_ids_[k]);
    }
  }
  STATLEAK_CHECK(topo_.size() == gates_.size(),
                 "circuit contains a combinational cycle");

  // Logic levels.
  level_.assign(gates_.size(), 0);
  for (GateId id : topo_) {
    int lvl = 0;
    for (GateId f : gates_[id].fanins) lvl = std::max(lvl, level_[f] + 1);
    level_[id] = gates_[id].fanins.empty() ? 0 : lvl;
  }

  finalized_ = true;
}

void Circuit::require_finalized() const {
  STATLEAK_CHECK(finalized_, "circuit must be finalized first");
}

const Gate& Circuit::gate(GateId id) const {
  STATLEAK_CHECK(id < gates_.size(), "gate id out of range");
  return gates_[id];
}

Gate& Circuit::gate(GateId id) {
  STATLEAK_CHECK(id < gates_.size(), "gate id out of range");
  return gates_[id];
}

bool Circuit::is_output(GateId id) const {
  STATLEAK_CHECK(id < gates_.size(), "gate id out of range");
  return id < is_output_.size() && is_output_[id] != 0;
}

std::span<const GateId> Circuit::fanouts(GateId id) const {
  require_finalized();
  STATLEAK_CHECK(id < gates_.size(), "gate id out of range");
  return {fanout_ids_.data() + fanout_offset_[id],
          fanout_ids_.data() + fanout_offset_[id + 1]};
}

std::span<const GateId> Circuit::topo_order() const {
  require_finalized();
  return topo_;
}

int Circuit::level(GateId id) const {
  require_finalized();
  STATLEAK_CHECK(id < gates_.size(), "gate id out of range");
  return level_[id];
}

int Circuit::depth() const {
  require_finalized();
  int d = 0;
  for (int lvl : level_) d = std::max(d, lvl);
  return d;
}

GateId Circuit::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidGate : it->second;
}

void Circuit::set_size(GateId id, double size) {
  STATLEAK_CHECK(size > 0.0, "gate size must be positive");
  gate(id).size = size;
}

void Circuit::set_vth(GateId id, Vth vth) { gate(id).vth = vth; }

std::size_t Circuit::count_hvt() const {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    if (g.kind != CellKind::kInput && g.vth == Vth::kHigh) ++n;
  }
  return n;
}

std::vector<char> simulate(const Circuit& circuit,
                           std::span<const char> input_values) {
  STATLEAK_CHECK(circuit.finalized(), "simulate requires a finalized circuit");
  STATLEAK_CHECK(input_values.size() == circuit.inputs().size(),
                 "input vector size mismatch");
  std::vector<char> value(circuit.num_gates(), 0);
  for (std::size_t i = 0; i < circuit.inputs().size(); ++i) {
    value[circuit.inputs()[i]] = input_values[i] ? 1 : 0;
  }
  for (GateId id : circuit.topo_order()) {
    const Gate& g = circuit.gate(id);
    if (g.kind == CellKind::kInput) continue;
    std::uint32_t bits = 0;
    for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
      if (value[g.fanins[pin]]) bits |= 1u << pin;
    }
    value[id] = evaluate(g.kind, bits) ? 1 : 0;
  }
  return value;
}

CircuitStats circuit_stats(const Circuit& circuit) {
  STATLEAK_CHECK(circuit.finalized(), "stats require a finalized circuit");
  CircuitStats s;
  s.num_inputs = circuit.inputs().size();
  s.num_outputs = circuit.outputs().size();
  s.num_cells = circuit.num_cells();
  s.depth = circuit.depth();
  std::size_t edges = 0;
  std::size_t drivers = 0;
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const auto fo = circuit.fanouts(id).size();
    if (fo > 0) {
      edges += fo;
      ++drivers;
    }
  }
  s.avg_fanout = drivers ? static_cast<double>(edges) / drivers : 0.0;
  return s;
}

}  // namespace statleak
