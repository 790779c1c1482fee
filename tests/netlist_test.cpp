// Unit tests for statleak_netlist: circuit construction, validation,
// topological structure, simulation, and implementation attributes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

/// a, b -> x = NAND(a,b); y = INV(x); y is the output. (y == a & b)
Circuit make_tiny() {
  Circuit c("tiny");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId x = c.add_gate("x", CellKind::kNand2, {a, b});
  const GateId y = c.add_gate("y", CellKind::kInv, {x});
  c.mark_output(y);
  c.finalize();
  return c;
}

TEST(Circuit, BasicCounts) {
  const Circuit c = make_tiny();
  EXPECT_EQ(c.num_gates(), 4u);
  EXPECT_EQ(c.num_cells(), 2u);
  EXPECT_EQ(c.inputs().size(), 2u);
  EXPECT_EQ(c.outputs().size(), 1u);
}

TEST(Circuit, FindByName) {
  const Circuit c = make_tiny();
  EXPECT_NE(c.find("x"), kInvalidGate);
  EXPECT_EQ(c.gate(c.find("x")).kind, CellKind::kNand2);
  EXPECT_EQ(c.find("nope"), kInvalidGate);
}

TEST(Circuit, DuplicateNameRejected) {
  Circuit c("dup");
  c.add_input("a");
  EXPECT_THROW(c.add_input("a"), Error);
}

TEST(Circuit, ArityMismatchRejectedAtFinalize) {
  Circuit c("bad");
  const GateId a = c.add_input("a");
  c.add_gate("g", CellKind::kNand2, {a});  // NAND2 with one fanin
  c.mark_output(c.find("g"));
  EXPECT_THROW(c.finalize(), Error);
}

TEST(Circuit, NoOutputsRejected) {
  Circuit c("noout");
  const GateId a = c.add_input("a");
  c.add_gate("g", CellKind::kInv, {a});
  EXPECT_THROW(c.finalize(), Error);
}

TEST(Circuit, CycleRejected) {
  Circuit c("cycle");
  const GateId a = c.add_input("a");
  // g -> h -> g
  const GateId g = c.add_gate("g", CellKind::kNand2, {a, a});
  // Patch a cycle: h feeds g.
  const GateId h = c.add_gate("h", CellKind::kInv, {g});
  c.patch_fanin(g, 1, h);
  c.mark_output(h);
  EXPECT_THROW(c.finalize(), Error);
}

TEST(Circuit, TopoOrderRespectsEdges) {
  const Circuit c = make_tiny();
  const auto topo = c.topo_order();
  std::vector<std::size_t> pos(c.num_gates());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    for (GateId f : c.gate(id).fanins) {
      EXPECT_LT(pos[f], pos[id]);
    }
  }
}

TEST(Circuit, LevelsAndDepth) {
  const Circuit c = make_tiny();
  EXPECT_EQ(c.level(c.find("a")), 0);
  EXPECT_EQ(c.level(c.find("x")), 1);
  EXPECT_EQ(c.level(c.find("y")), 2);
  EXPECT_EQ(c.depth(), 2);
}

TEST(Circuit, Fanouts) {
  const Circuit c = make_tiny();
  const auto fanouts_a = c.fanouts(c.find("a"));
  ASSERT_EQ(fanouts_a.size(), 1u);
  EXPECT_EQ(fanouts_a[0], c.find("x"));
  EXPECT_TRUE(c.fanouts(c.find("y")).empty());
}

/// a, b -> n = NAND2(b, a), d = NAND2(a, a), i = INV(a), o = NOR2(d, i),
/// defined out of topological order so ids and levels disagree.
Circuit make_shared_driver() {
  Circuit c("shared");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId o =
      c.add_gate("o", CellKind::kNor2, {kInvalidGate, kInvalidGate});
  const GateId n = c.add_gate("n", CellKind::kNand2, {b, a});
  const GateId d = c.add_gate("d", CellKind::kNand2, {a, a});
  const GateId i = c.add_gate("i", CellKind::kInv, {a});
  c.patch_fanin(o, 0, d);
  c.patch_fanin(o, 1, i);
  c.mark_output(o);
  c.mark_output(n);
  c.finalize();
  return c;
}

TEST(Circuit, FanoutOrderIsConsumerIdThenPin) {
  const Circuit c = make_shared_driver();
  const auto ids = [&](GateId id) {
    const auto fo = c.fanouts(id);
    return std::vector<GateId>(fo.begin(), fo.end());
  };
  const GateId n = c.find("n");
  const GateId d = c.find("d");
  const GateId i = c.find("i");
  const GateId o = c.find("o");
  // d reads a on both pins and is listed once per pin.
  EXPECT_EQ(ids(c.find("a")), (std::vector<GateId>{n, d, d, i}));
  EXPECT_EQ(ids(c.find("b")), (std::vector<GateId>{n}));
  EXPECT_EQ(ids(d), (std::vector<GateId>{o}));
  EXPECT_EQ(ids(i), (std::vector<GateId>{o}));
  EXPECT_TRUE(ids(o).empty());
  EXPECT_TRUE(ids(n).empty());
}

TEST(Circuit, CopyKeepsFanoutsAfterSourceIsDestroyed) {
  auto source = std::make_unique<Circuit>(make_shared_driver());
  const Circuit copy = *source;
  const GateId a = source->find("a");
  const std::vector<GateId> want(source->fanouts(a).begin(),
                                 source->fanouts(a).end());
  source.reset();
  const auto fo = copy.fanouts(a);
  EXPECT_EQ(std::vector<GateId>(fo.begin(), fo.end()), want);
  EXPECT_EQ(copy.fanouts(copy.find("d")).size(), 1u);
  EXPECT_EQ(copy.depth(), 2);
}

TEST(Circuit, MarkOutputIdempotent) {
  Circuit c("idem");
  const GateId a = c.add_input("a");
  const GateId g = c.add_gate("g", CellKind::kInv, {a});
  c.mark_output(g);
  c.mark_output(g);
  c.finalize();
  EXPECT_EQ(c.outputs().size(), 1u);
  EXPECT_TRUE(c.is_output(g));
  EXPECT_FALSE(c.is_output(a));
}

TEST(Circuit, StructureFrozenAfterFinalize) {
  Circuit c = make_tiny();
  EXPECT_THROW(c.add_input("z"), Error);
  EXPECT_THROW(c.finalize(), Error);  // double finalize
}

TEST(Circuit, MarkOutputAfterFinalizeThrows) {
  Circuit c = make_tiny();
  EXPECT_THROW(c.mark_output(c.find("x")), Error);
  EXPECT_THROW(c.mark_output(c.find("y")), Error);  // even a repeat
  EXPECT_EQ(c.outputs().size(), 1u);
  EXPECT_FALSE(c.is_output(c.find("x")));
}

TEST(Circuit, PatchFaninAfterFinalizeThrows) {
  Circuit c = make_tiny();
  EXPECT_THROW(c.patch_fanin(c.find("y"), 0, c.find("a")), Error);
  EXPECT_EQ(c.gate(c.find("y")).fanins[0], c.find("x"));
}

TEST(Circuit, PatchFaninChecksItsPin) {
  Circuit c("patch");
  const GateId a = c.add_input("a");
  const GateId g = c.add_gate("g", CellKind::kInv, {kInvalidGate});
  EXPECT_THROW(c.patch_fanin(g, 1, a), Error);
  EXPECT_THROW(c.patch_fanin(7, 0, a), Error);
  c.patch_fanin(g, 0, a);
  c.mark_output(g);
  c.finalize();
  EXPECT_EQ(c.gate(g).fanins[0], a);
}

TEST(Circuit, UnpatchedPlaceholderRejectedAtFinalize) {
  Circuit c("open");
  c.add_input("a");
  const GateId g = c.add_gate("g", CellKind::kInv, {kInvalidGate});
  c.mark_output(g);
  EXPECT_THROW(c.finalize(), Error);
}

TEST(Circuit, AddGateAcceptsAnotherGatesFanins) {
  Circuit c("alias");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId x = c.add_gate("x", CellKind::kNand2, {b, a});
  // The span points into the circuit's own fanin array, which grows here.
  for (int i = 0; i < 64; ++i) {
    const GateId y = c.add_gate("y" + std::to_string(i), CellKind::kNor2,
                                c.gate(x).fanins);
    ASSERT_EQ(c.gate(y).fanins, c.gate(x).fanins) << i;
    c.mark_output(y);
  }
  c.finalize();
  EXPECT_EQ(c.fanouts(a).size(), 65u);
}

TEST(Circuit, NonFiniteSizeRejected) {
  Circuit c = make_tiny();
  const GateId x = c.find("x");
  EXPECT_THROW(c.set_size(x, std::numeric_limits<double>::infinity()),
               Error);
  EXPECT_THROW(c.set_size(x, -std::numeric_limits<double>::infinity()),
               Error);
  EXPECT_THROW(c.set_size(x, std::numeric_limits<double>::quiet_NaN()),
               Error);
  EXPECT_THROW(c.set_size(x, -1.0), Error);
  EXPECT_EQ(c.gate(x).size, 1.0);
  c.set_size(x, std::numeric_limits<double>::max());
  EXPECT_EQ(c.gate(x).size, std::numeric_limits<double>::max());
}

TEST(Circuit, AccessBeforeFinalizeThrows) {
  Circuit c("early");
  const GateId a = c.add_input("a");
  c.add_gate("g", CellKind::kInv, {a});
  EXPECT_THROW((void)c.topo_order(), Error);
  EXPECT_THROW((void)c.depth(), Error);
  EXPECT_THROW((void)c.fanouts(a), Error);
}

TEST(Circuit, ImplementationAttributes) {
  Circuit c = make_tiny();
  const GateId x = c.find("x");
  c.set_size(x, 4.0);
  c.set_vth(x, Vth::kHigh);
  EXPECT_DOUBLE_EQ(c.gate(x).size, 4.0);
  EXPECT_EQ(c.gate(x).vth, Vth::kHigh);
  EXPECT_EQ(c.count_hvt(), 1u);
  EXPECT_THROW(c.set_size(x, 0.0), Error);
  EXPECT_THROW(c.set_size(static_cast<GateId>(999), 1.0), Error);
}

// ----------------------------------------------------- build sequences ----

/// One gate of a random reference DAG; fanins index earlier model gates.
struct ModelGate {
  std::string name;
  CellKind kind = CellKind::kInput;
  std::vector<std::size_t> fanins;
};

/// A random DAG in model order (every fanin precedes its consumer). Names
/// vary in length, so some outgrow any small-string buffer.
std::vector<ModelGate> random_model(Rng& rng) {
  const std::size_t inputs = 1 + rng.uniform_index(6);
  const std::size_t gates = inputs + rng.uniform_index(60);
  std::vector<ModelGate> model(gates);
  const auto kinds = all_cell_kinds();
  for (std::size_t i = 0; i < gates; ++i) {
    ModelGate& g = model[i];
    const char pad = static_cast<char>('a' + i % 26);
    g.name = (i < inputs ? "in" : "n") + std::to_string(i) +
             std::string(rng.uniform_index(24), pad);
    if (i < inputs) continue;
    g.kind = kinds[rng.uniform_index(kinds.size())];
    for (int pin = 0; pin < cell_info(g.kind).fanin; ++pin) {
      g.fanins.push_back(rng.uniform_index(i));
    }
  }
  return model;
}

/// Builds `model` in a shuffled creation order. A fanin whose driver does
/// not exist yet goes in as a placeholder and is patched once every gate
/// exists. Returns the circuit, finalized, and each model gate's id.
Circuit build_shuffled(const std::vector<ModelGate>& model, Rng& rng,
                       std::vector<GateId>& id_of) {
  std::vector<std::size_t> order(model.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  Circuit c("random");
  if (rng.uniform() < 0.5) c.reserve(model.size());
  id_of.assign(model.size(), kInvalidGate);
  std::vector<std::size_t> forward;  // model gates with placeholders
  for (const std::size_t m : order) {
    std::vector<GateId> fanins;
    bool open = false;
    for (const std::size_t f : model[m].fanins) {
      fanins.push_back(id_of[f]);
      open = open || id_of[f] == kInvalidGate;
    }
    id_of[m] = model[m].kind == CellKind::kInput
                   ? c.add_input(model[m].name)
                   : c.add_gate(model[m].name, model[m].kind, fanins);
    if (open) forward.push_back(m);
  }
  for (const std::size_t m : forward) {
    for (std::size_t pin = 0; pin < model[m].fanins.size(); ++pin) {
      c.patch_fanin(id_of[m], pin, id_of[model[m].fanins[pin]]);
    }
  }
  // Sinks must be outputs; others sometimes are, some marked twice.
  std::vector<char> used(model.size(), 0);
  for (const ModelGate& g : model) {
    for (const std::size_t f : g.fanins) used[f] = 1;
  }
  for (const std::size_t m : order) {
    if (!used[m] || rng.uniform() < 0.2) c.mark_output(id_of[m]);
    if (rng.uniform() < 0.1) c.mark_output(id_of[m]);
  }
  c.finalize();
  return c;
}

/// Kahn's order and the levels, recomputed from fanins and fanouts alone.
void reference_topo(const Circuit& c, std::vector<GateId>& topo,
                    std::vector<int>& level) {
  const std::size_t n = c.num_gates();
  std::vector<std::size_t> pending(n);
  topo.clear();
  for (GateId id = 0; id < n; ++id) {
    pending[id] = c.gate(id).fanins.size();
    if (pending[id] == 0) topo.push_back(id);
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    for (const GateId fo : c.fanouts(topo[head])) {
      if (--pending[fo] == 0) topo.push_back(fo);
    }
  }
  level.assign(n, 0);
  for (const GateId id : topo) {
    for (const GateId f : c.gate(id).fanins) {
      level[id] = std::max(level[id], level[f] + 1);
    }
  }
}

testing::AssertionResult matches_model(const Circuit& c,
                                       const std::vector<ModelGate>& model,
                                       const std::vector<GateId>& id_of) {
  if (c.num_gates() != model.size()) {
    return testing::AssertionFailure() << "gate count";
  }
  for (std::size_t m = 0; m < model.size(); ++m) {
    const GateId id = id_of[m];
    const Gate g = c.gate(id);
    if (g.name != model[m].name || c.find(model[m].name) != id) {
      return testing::AssertionFailure() << "name round trip of " << id;
    }
    if (g.kind != model[m].kind) {
      return testing::AssertionFailure() << "kind of " << id;
    }
    std::vector<GateId> want;
    for (const std::size_t f : model[m].fanins) want.push_back(id_of[f]);
    if (!std::equal(g.fanins.begin(), g.fanins.end(), want.begin(),
                    want.end())) {
      return testing::AssertionFailure() << "fanin pins of " << id;
    }
  }
  if (c.find("missing") != kInvalidGate || c.find("") != kInvalidGate) {
    return testing::AssertionFailure() << "found an unknown name";
  }
  // Fanouts: by consumer id, then pin.
  for (GateId id = 0; id < c.num_gates(); ++id) {
    std::vector<GateId> want;
    for (GateId consumer = 0; consumer < c.num_gates(); ++consumer) {
      for (const GateId f : c.gate(consumer).fanins) {
        if (f == id) want.push_back(consumer);
      }
    }
    const auto got = c.fanouts(id);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      return testing::AssertionFailure() << "fanouts of " << id;
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult graph_consistent(const Circuit& c) {
  std::vector<GateId> topo;
  std::vector<int> level;
  reference_topo(c, topo, level);
  const auto got_topo = c.topo_order();
  if (!std::equal(got_topo.begin(), got_topo.end(), topo.begin(),
                  topo.end())) {
    return testing::AssertionFailure() << "topo order";
  }
  int depth = 0;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.level(id) != level[id]) {
      return testing::AssertionFailure() << "level of " << id;
    }
    depth = std::max(depth, level[id]);
  }
  if (c.depth() != depth) return testing::AssertionFailure() << "depth";
  // The incremental timers test `rank < inputs` for "is an input".
  const auto inputs = c.inputs();
  if (!std::equal(inputs.begin(), inputs.end(), got_topo.begin())) {
    return testing::AssertionFailure() << "inputs lead the topo order";
  }
  // Rank space: the by-id CSR mapped through rank.
  const auto rank = c.ranks();
  for (std::uint32_t r = 0; r < topo.size(); ++r) {
    if (rank[topo[r]] != r) return testing::AssertionFailure() << "rank";
    const auto mapped = [&](std::span<const GateId> ids) {
      std::vector<std::uint32_t> out;
      for (const GateId id : ids) out.push_back(rank[id]);
      return out;
    };
    const auto fanins = mapped(c.gate(topo[r]).fanins);
    const auto fanouts = mapped(c.fanouts(topo[r]));
    const auto rank_fanins = c.rank_fanin_csr().row(r);
    const auto rank_fanouts = c.rank_fanout_csr().row(r);
    if (!std::equal(rank_fanins.begin(), rank_fanins.end(), fanins.begin(),
                    fanins.end()) ||
        !std::equal(rank_fanouts.begin(), rank_fanouts.end(),
                    fanouts.begin(), fanouts.end())) {
      return testing::AssertionFailure() << "rank CSR row " << r;
    }
  }
  return testing::AssertionSuccess();
}

TEST(CircuitProperty, RandomBuildSequencesKeepTheirGraph) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const std::vector<ModelGate> model = random_model(rng);
    std::vector<GateId> id_of;
    auto source = std::make_unique<Circuit>(build_shuffled(model, rng, id_of));
    ASSERT_TRUE(matches_model(*source, model, id_of)) << "seed " << seed;
    ASSERT_TRUE(graph_consistent(*source)) << "seed " << seed;

    // A copy owns its arrays and names: it outlives the source intact.
    const Circuit copy = *source;
    Circuit assigned;
    assigned = *source;
    source.reset();
    ASSERT_TRUE(matches_model(copy, model, id_of)) << "seed " << seed;
    ASSERT_TRUE(graph_consistent(copy)) << "seed " << seed;
    ASSERT_TRUE(matches_model(assigned, model, id_of)) << "seed " << seed;
  }
}

TEST(Simulate, TinyCircuitIsAnd) {
  const Circuit c = make_tiny();
  const GateId y = c.find("y");
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      const std::vector<char> in = {static_cast<char>(a),
                                    static_cast<char>(b)};
      const auto values = simulate(c, in);
      EXPECT_EQ(values[y] != 0, a == 1 && b == 1) << a << "," << b;
    }
  }
}

TEST(Simulate, InputSizeMismatchThrows) {
  const Circuit c = make_tiny();
  const std::vector<char> wrong = {1};
  EXPECT_THROW(simulate(c, wrong), Error);
}

TEST(Simulate, MuxCircuit) {
  Circuit c("mux");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId s = c.add_input("s");
  const GateId m = c.add_gate("m", CellKind::kMux2, {a, b, s});
  c.mark_output(m);
  c.finalize();
  const auto run = [&](int av, int bv, int sv) {
    const std::vector<char> in = {static_cast<char>(av),
                                  static_cast<char>(bv),
                                  static_cast<char>(sv)};
    return simulate(c, in)[m] != 0;
  };
  EXPECT_EQ(run(1, 0, 0), true);   // sel=0 -> a
  EXPECT_EQ(run(1, 0, 1), false);  // sel=1 -> b
  EXPECT_EQ(run(0, 1, 1), true);
}

TEST(CircuitStats, Fields) {
  const Circuit c = make_tiny();
  const CircuitStats s = circuit_stats(c);
  EXPECT_EQ(s.num_inputs, 2u);
  EXPECT_EQ(s.num_outputs, 1u);
  EXPECT_EQ(s.num_cells, 2u);
  EXPECT_EQ(s.depth, 2);
  EXPECT_GT(s.avg_fanout, 0.0);
}

}  // namespace
}  // namespace statleak
