// Unit tests for statleak_netlist: circuit construction, validation,
// topological structure, simulation, and implementation attributes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "netlist/circuit.hpp"
#include "util/error.hpp"

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
  c.gate(g).fanins[1] = h;
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
  const GateId o = c.add_gate("o", CellKind::kNor2, {});
  const GateId n = c.add_gate("n", CellKind::kNand2, {b, a});
  const GateId d = c.add_gate("d", CellKind::kNand2, {a, a});
  const GateId i = c.add_gate("i", CellKind::kInv, {a});
  c.gate(o).fanins = {d, i};
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
