#include "gen/random_dag.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace statleak {

namespace {

/// Weighted kind mix approximating technology-mapped random logic.
struct KindWeight {
  CellKind kind;
  double weight;
};

constexpr KindWeight kMix[] = {
    {CellKind::kNand2, 0.26}, {CellKind::kNor2, 0.13},
    {CellKind::kInv, 0.12},   {CellKind::kAnd2, 0.10},
    {CellKind::kOr2, 0.08},   {CellKind::kXor2, 0.07},
    {CellKind::kNand3, 0.07}, {CellKind::kNor3, 0.05},
    {CellKind::kXnor2, 0.04}, {CellKind::kAoi21, 0.04},
    {CellKind::kOai21, 0.03}, {CellKind::kBuf, 0.02},
    {CellKind::kNand4, 0.02}, {CellKind::kAnd3, 0.02},
    {CellKind::kOr3, 0.02},   {CellKind::kMux2, 0.02},
    {CellKind::kNor4, 0.01},
};

}  // namespace

CellKind random_mapped_kind(Rng& rng) {
  double total = 0.0;
  for (const auto& kw : kMix) total += kw.weight;
  double draw = rng.uniform(0.0, total);
  for (const auto& kw : kMix) {
    draw -= kw.weight;
    if (draw <= 0.0) return kw.kind;
  }
  return CellKind::kNand2;
}

Circuit make_random_dag(const RandomDagSpec& spec) {
  STATLEAK_CHECK(spec.num_inputs >= 4, "random dag needs >= 4 inputs");
  STATLEAK_CHECK(spec.num_gates >= 1, "random dag needs >= 1 gate");
  STATLEAK_CHECK(spec.num_outputs >= 1, "random dag needs >= 1 output");
  STATLEAK_CHECK(spec.locality > 1.0, "locality must exceed 1");

  Rng rng(spec.seed);
  Circuit circuit("rand" + std::to_string(spec.num_gates) + "_s" +
                  std::to_string(spec.seed));

  std::vector<GateId> pool;  // candidate fanin sources, in creation order
  for (int i = 0; i < spec.num_inputs; ++i) {
    pool.push_back(circuit.add_input("in" + std::to_string(i)));
  }

  std::vector<int> fanout_count(pool.size(), 0);
  const double p_geo = 1.0 / spec.locality;

  for (int g = 0; g < spec.num_gates; ++g) {
    const CellKind kind = random_mapped_kind(rng);
    const int arity = cell_info(kind).fanin;
    std::vector<GateId> fanins;
    fanins.reserve(static_cast<std::size_t>(arity));
    for (int pin = 0; pin < arity; ++pin) {
      // Geometric recency bias from the newest pool entry backwards.
      std::size_t back = 0;
      while (rng.uniform() > p_geo && back + 1 < pool.size()) ++back;
      std::size_t idx = pool.size() - 1 - back;
      // Avoid duplicate fanins on one gate where possible (a gate fed twice
      // by the same net is legal but structurally uninteresting).
      for (int attempts = 0;
           attempts < 4 &&
           std::find(fanins.begin(), fanins.end(), pool[idx]) != fanins.end();
           ++attempts) {
        idx = static_cast<std::size_t>(rng.uniform_index(pool.size()));
      }
      fanins.push_back(pool[idx]);
      ++fanout_count[idx];
    }
    const GateId id =
        circuit.add_gate("g" + std::to_string(g), kind, fanins);
    pool.push_back(id);
    fanout_count.push_back(0);
  }

  // Outputs: prefer the newest sink gates, then promote any remaining
  // dangling gates so every cell drives something.
  std::vector<GateId> sinks;
  for (std::size_t i = static_cast<std::size_t>(spec.num_inputs);
       i < pool.size(); ++i) {
    if (fanout_count[i] == 0) sinks.push_back(pool[i]);
  }
  std::size_t marked = 0;
  for (auto it = sinks.rbegin(); it != sinks.rend(); ++it) {
    circuit.mark_output(*it);
    ++marked;
  }
  // If the DAG had fewer sinks than requested outputs, top up with the
  // newest gates.
  for (std::size_t i = pool.size();
       marked < static_cast<std::size_t>(spec.num_outputs) &&
       i-- > static_cast<std::size_t>(spec.num_inputs);) {
    if (fanout_count[i] != 0) {
      circuit.mark_output(pool[i]);
      ++marked;
    }
  }

  circuit.finalize();
  return circuit;
}

}  // namespace statleak
