// Invariants of the frozen SoA circuit snapshot: CSR adjacency must
// round-trip the AoS Circuit exactly (including fanin pin order), the topo
// order must be a valid topological permutation, and the per-gate attribute
// arrays must mirror the implementation point at build time (not track
// later mutations).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/arithmetic.hpp"
#include "gen/proxy.hpp"
#include "netlist/flat_circuit.hpp"
#include "util/error.hpp"

namespace statleak {
namespace {

class FlatCircuitTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FlatCircuitTest, CsrAdjacencyRoundTrips) {
  const Circuit c = iscas85_proxy(GetParam());
  const FlatCircuit flat = FlatCircuit::build(c);
  ASSERT_EQ(flat.num_gates, c.num_gates());
  for (GateId g = 0; g < flat.num_gates; ++g) {
    const auto fanins = flat.fanins_of(g);
    const auto& expect = c.gate(g).fanins;
    ASSERT_EQ(fanins.size(), expect.size()) << "gate " << g;
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      EXPECT_EQ(fanins[i], expect[i]) << "gate " << g << " pin " << i;
    }
    const auto fanouts = flat.fanouts_of(g);
    const auto expect_out = c.fanouts(g);
    ASSERT_EQ(fanouts.size(), expect_out.size()) << "gate " << g;
    for (std::size_t i = 0; i < fanouts.size(); ++i) {
      EXPECT_EQ(fanouts[i], expect_out[i]) << "gate " << g;
    }
  }
}

TEST_P(FlatCircuitTest, TopoIsValidTopologicalPermutation) {
  const Circuit c = iscas85_proxy(GetParam());
  const FlatCircuit flat = FlatCircuit::build(c);

  // Permutation of all gate ids.
  std::vector<char> seen(flat.num_gates, 0);
  for (const GateId g : flat.topo) {
    ASSERT_LT(g, flat.num_gates);
    EXPECT_FALSE(seen[g]) << "gate " << g << " appears twice";
    seen[g] = 1;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](char s) { return s == 1; }));

  // Topological: every fanin earlier than its consumer.
  std::vector<std::uint32_t> pos(flat.num_gates, 0);
  for (std::uint32_t i = 0; i < flat.num_gates; ++i) pos[flat.topo[i]] = i;
  for (GateId g = 0; g < flat.num_gates; ++g) {
    for (const GateId f : flat.fanins_of(g)) {
      EXPECT_LT(pos[f], pos[g]) << "fanin " << f << " of gate " << g;
    }
  }
}

TEST_P(FlatCircuitTest, AttributesAndOutputsMatch) {
  const Circuit c = iscas85_proxy(GetParam());
  const FlatCircuit flat = FlatCircuit::build(c);
  for (GateId g = 0; g < flat.num_gates; ++g) {
    const Gate& gate = c.gate(g);
    EXPECT_EQ(flat.is_input[g] != 0, gate.kind == CellKind::kInput);
    EXPECT_EQ(flat.kind[g], gate.kind);
    EXPECT_EQ(flat.vth[g], gate.vth);
    EXPECT_EQ(flat.size[g], gate.size);
  }
  const auto outs = c.outputs();
  ASSERT_EQ(flat.outputs.size(), outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(flat.outputs[i], outs[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Proxies, FlatCircuitTest,
                         ::testing::Values("c432p", "c499p", "c880p",
                                           "c1908p"),
                         [](const auto& info) { return info.param; });

TEST(FlatCircuitBasics, RequiresFinalizedCircuit) {
  Circuit c("unfinished");
  c.add_input("a");
  EXPECT_THROW(FlatCircuit::build(c), Error);
}

TEST(FlatCircuitBasics, SnapshotDoesNotTrackLaterMutations) {
  Circuit c = make_ripple_carry_adder(4);
  const FlatCircuit flat = FlatCircuit::build(c);
  // Find a logic cell and mutate it after the snapshot.
  GateId cell = kInvalidGate;
  for (GateId g = 0; g < c.num_gates(); ++g) {
    if (c.gate(g).kind != CellKind::kInput) {
      cell = g;
      break;
    }
  }
  ASSERT_NE(cell, kInvalidGate);
  const double old_size = c.gate(cell).size;
  c.set_size(cell, old_size * 2.0);
  c.set_vth(cell, c.gate(cell).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
  EXPECT_EQ(flat.size[cell], old_size);
  EXPECT_NE(flat.vth[cell], c.gate(cell).vth);
}

}  // namespace
}  // namespace statleak
