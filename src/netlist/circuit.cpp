#include "netlist/circuit.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "util/error.hpp"

namespace statleak {

GateId Circuit::add_input(std::string_view name) {
  return add_gate(name, CellKind::kInput, {});
}

GateId Circuit::add_gate(std::string_view name, CellKind kind,
                         std::span<const GateId> fanins) {
  STATLEAK_CHECK(!finalized_, "cannot add gates after finalize");
  STATLEAK_CHECK(!name.empty(), "gate name must be non-empty");
  const std::vector<GateId>& ids = fanin_.ids;
  if (!fanins.empty() && std::less_equal<>{}(ids.data(), fanins.data()) &&
      std::less<>{}(fanins.data(), ids.data() + ids.size())) {
    // The fanins are another gate's: copy them before the CSR grows.
    const std::vector<GateId> copy(fanins.begin(), fanins.end());
    return add_gate(name, kind, copy);
  }
  if (2 * (num_gates() + 1) > slots_.size()) {
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  }
  const std::size_t slot = probe(name);
  STATLEAK_CHECK(slots_[slot] == kInvalidGate,
                 "duplicate gate name: " + std::string(name));
  STATLEAK_CHECK(names_.size() + name.size() <=
                     std::numeric_limits<std::uint32_t>::max(),
                 "gate names exceed 4 GiB");
  const auto id = static_cast<GateId>(num_gates());
  slots_[slot] = id;
  names_.append(name);
  name_offset_.push_back(static_cast<std::uint32_t>(names_.size()));
  kind_.push_back(kind);
  vth_.push_back(Vth::kLow);
  size_.push_back(1.0);
  fanin_.ids.insert(fanin_.ids.end(), fanins.begin(), fanins.end());
  fanin_.offset.push_back(static_cast<std::uint32_t>(fanin_.ids.size()));
  if (kind == CellKind::kInput) inputs_.push_back(id);
  return id;
}

void Circuit::patch_fanin(GateId id, std::size_t pin, GateId src) {
  STATLEAK_CHECK(!finalized_, "cannot patch fanins after finalize");
  check_id(id);
  STATLEAK_CHECK(pin < fanin_.offset[id + 1] - fanin_.offset[id],
                 "fanin pin out of range");
  fanin_.ids[fanin_.offset[id] + pin] = src;
}

void Circuit::reserve(std::size_t n) {
  kind_.reserve(n);
  vth_.reserve(n);
  size_.reserve(n);
  fanin_.offset.reserve(n + 1);
  name_offset_.reserve(n + 1);
  std::size_t capacity = 16;
  while (capacity < 2 * n) capacity *= 2;
  if (capacity > slots_.size()) rehash(capacity);
}

std::size_t Circuit::probe(std::string_view name) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(name) & mask;
  while (slots_[i] != kInvalidGate && name_of(slots_[i]) != name) {
    i = (i + 1) & mask;
  }
  return i;
}

void Circuit::rehash(std::size_t capacity) {
  slots_.assign(capacity, kInvalidGate);
  for (GateId id = 0; id < num_gates(); ++id) slots_[probe(name_of(id))] = id;
}

void Circuit::mark_output(GateId id) {
  STATLEAK_CHECK(!finalized_, "cannot mark outputs after finalize");
  check_id(id);
  if (is_output_.size() < num_gates()) is_output_.resize(num_gates(), 0);
  if (!is_output_[id]) {
    is_output_[id] = 1;
    outputs_.push_back(id);
  }
}

void Circuit::finalize() {
  STATLEAK_CHECK(!finalized_, "finalize called twice");
  STATLEAK_CHECK(!outputs_.empty(), "circuit has no primary outputs");
  const auto n = static_cast<std::uint32_t>(num_gates());
  is_output_.resize(n, 0);

  // Arity and dangling-fanin validation.
  std::vector<std::uint32_t> degree(n, 0);
  for (GateId id = 0; id < n; ++id) {
    const auto fanins = fanin_.row(id);
    const int want = cell_info(kind_[id]).fanin;
    STATLEAK_CHECK(static_cast<int>(fanins.size()) == want,
                   "gate '" + std::string(name_of(id)) + "' (" +
                       std::string(to_string(kind_[id])) + ") has " +
                       std::to_string(fanins.size()) + " fanins, expected " +
                       std::to_string(want));
    for (GateId f : fanins) {
      STATLEAK_CHECK(f < n, "gate '" + std::string(name_of(id)) +
                                "' references undefined fanin");
      ++degree[f];
    }
  }

  // Fanout CSR, each row by consumer id, then pin.
  {
    std::vector<std::uint32_t> next(n + 1, 0);
    std::partial_sum(degree.begin(), degree.end(), next.begin() + 1);
    fanout_.offset = next;
    fanout_.ids.resize(next.back());
    for (GateId id = 0; id < n; ++id) {
      for (GateId f : fanin_.row(id)) fanout_.ids[next[f]++] = id;
    }
  }

  // Kahn topological sort; detects cycles. `degree` becomes the count of
  // fanins not yet placed.
  topo_.clear();
  topo_.reserve(n);
  for (GateId id = 0; id < n; ++id) {
    degree[id] = fanin_.offset[id + 1] - fanin_.offset[id];
    if (degree[id] == 0) topo_.push_back(id);
  }
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    for (GateId fo : fanout_.row(topo_[head])) {
      if (--degree[fo] == 0) topo_.push_back(fo);
    }
  }
  STATLEAK_CHECK(topo_.size() == n, "circuit contains a combinational cycle");
  rank_.resize(n);
  for (std::uint32_t r = 0; r < n; ++r) rank_[topo_[r]] = r;

  // Logic levels, for the placement and the structural stats.
  level_.assign(n, 0);
  depth_ = 0;
  for (GateId id : topo_) {
    int lvl = 0;
    for (GateId f : fanin_.row(id)) lvl = std::max(lvl, level_[f] + 1);
    level_[id] = lvl;
    depth_ = std::max(depth_, lvl);
  }

  // Rank-space CSR: the by-id rows, reordered by rank and mapped through it.
  const auto rank_csr = [&](const Csr& by_id) {
    Csr csr;
    csr.offset.resize(n + 1);
    csr.ids.reserve(by_id.ids.size());
    for (std::uint32_t r = 0; r < n; ++r) {
      for (GateId g : by_id.row(topo_[r])) csr.ids.push_back(rank_[g]);
      csr.offset[r + 1] = static_cast<std::uint32_t>(csr.ids.size());
    }
    return csr;
  };
  rank_fanin_ = rank_csr(fanin_);
  rank_fanout_ = rank_csr(fanout_);

  // Building grew these by doubling; the topology is final now.
  fanin_.ids.shrink_to_fit();
  names_.shrink_to_fit();
  finalized_ = true;
}

GateId Circuit::find(std::string_view name) const {
  if (slots_.empty()) return kInvalidGate;
  return slots_[probe(name)];
}

void Circuit::set_size(GateId id, double size) {
  STATLEAK_CHECK(std::isfinite(size) && size > 0.0,
                 "gate size must be finite and positive");
  check_id(id);
  size_[id] = size;
}

void Circuit::set_vth(GateId id, Vth vth) {
  check_id(id);
  vth_[id] = vth;
}

std::size_t Circuit::count_hvt() const {
  std::size_t n = 0;
  for (GateId id = 0; id < num_gates(); ++id) {
    if (kind_[id] != CellKind::kInput && vth_[id] == Vth::kHigh) ++n;
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
    const Gate g = circuit.gate(id);
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
