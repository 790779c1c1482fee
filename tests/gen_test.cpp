// Unit tests for the circuit generators: functional correctness of every
// arithmetic/structured core against reference integer arithmetic, plus
// structural properties of the random DAGs and ISCAS85 proxies.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "gen/arithmetic.hpp"
#include "gen/prefix.hpp"
#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "gen/structures.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

/// Packs an unsigned value into input bits (LSB first).
void pack(std::vector<char>& in, std::size_t offset, std::uint64_t value,
          int bits) {
  for (int i = 0; i < bits; ++i) {
    in[offset + static_cast<std::size_t>(i)] = (value >> i) & 1;
  }
}

/// Sums output bits of an adder circuit (sum0..sumN-1 are the first N
/// outputs in order; carry is the last output).
std::uint64_t read_adder(const std::vector<char>& values, const Circuit& c,
                         int bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < bits; ++i) {
    if (values[c.outputs()[static_cast<std::size_t>(i)]]) out |= 1ull << i;
  }
  if (values[c.outputs()[static_cast<std::size_t>(bits)]]) {
    out |= 1ull << bits;
  }
  return out;
}

// ------------------------------------------------------------- adders ----

enum class AdderKind { kRipple, kLookahead, kSelect };

// Names the adder in test names (gtest would print the enum's bytes).
void PrintTo(AdderKind kind, std::ostream* os) {
  constexpr const char* kNames[] = {"ripple", "lookahead", "select"};
  *os << kNames[static_cast<int>(kind)];
}

class AdderTest
    : public ::testing::TestWithParam<std::tuple<AdderKind, int>> {};

TEST_P(AdderTest, MatchesIntegerAddition) {
  const auto [kind, bits] = GetParam();
  Circuit c = [&] {
    switch (kind) {
      case AdderKind::kRipple:
        return make_ripple_carry_adder(bits);
      case AdderKind::kLookahead:
        return make_carry_lookahead_adder(bits);
      default:
        return make_carry_select_adder(bits, 3);
    }
  }();

  Rng rng(17);
  const std::uint64_t mask = (bits >= 64) ? ~0ull : ((1ull << bits) - 1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = rng.uniform_index(mask + 1);
    const std::uint64_t b = rng.uniform_index(mask + 1);
    const int cin = trial % 2;
    std::vector<char> in(c.inputs().size(), 0);
    pack(in, 0, a, bits);
    pack(in, static_cast<std::size_t>(bits), b, bits);
    in.back() = static_cast<char>(cin);  // cin is the last declared input
    const auto values = simulate(c, in);
    EXPECT_EQ(read_adder(values, c, bits), a + b + cin)
        << "a=" << a << " b=" << b << " cin=" << cin;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAdders, AdderTest,
    ::testing::Combine(::testing::Values(AdderKind::kRipple,
                                         AdderKind::kLookahead,
                                         AdderKind::kSelect),
                       ::testing::Values(1, 4, 7, 16, 33)));

TEST(Adders, LookaheadShallowerThanRipple) {
  const Circuit rca = make_ripple_carry_adder(32);
  const Circuit cla = make_carry_lookahead_adder(32);
  EXPECT_LT(cla.depth(), rca.depth());
}

TEST(Adders, KoggeStoneMatchesIntegerAddition) {
  for (int bits : {1, 3, 8, 16, 24}) {
    const Circuit c = make_kogge_stone_adder(bits);
    Rng rng(29);
    const std::uint64_t mask =
        bits >= 64 ? ~0ull : ((1ull << bits) - 1);
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint64_t a = rng.uniform_index(mask + 1);
      const std::uint64_t b = rng.uniform_index(mask + 1);
      const int cin = trial % 2;
      std::vector<char> in(c.inputs().size(), 0);
      pack(in, 0, a, bits);
      pack(in, static_cast<std::size_t>(bits), b, bits);
      in.back() = static_cast<char>(cin);
      const auto values = simulate(c, in);
      EXPECT_EQ(read_adder(values, c, bits), a + b + cin)
          << "bits=" << bits << " a=" << a << " b=" << b;
    }
  }
}

TEST(Adders, KoggeStoneIsLogDepth) {
  const Circuit ks = make_kogge_stone_adder(32);
  const Circuit rca = make_ripple_carry_adder(32);
  EXPECT_LT(ks.depth() * 3, rca.depth());
}

// --------------------------------------------------------- multiplier ----

TEST(Multiplier, MatchesIntegerMultiplication) {
  for (int bits : {2, 4, 6, 8}) {
    const Circuit c = make_array_multiplier(bits);
    EXPECT_EQ(c.outputs().size(), static_cast<std::size_t>(2 * bits));
    Rng rng(23);
    const std::uint64_t mask = (1ull << bits) - 1;
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint64_t a = rng.uniform_index(mask + 1);
      const std::uint64_t b = rng.uniform_index(mask + 1);
      std::vector<char> in(c.inputs().size(), 0);
      pack(in, 0, a, bits);
      pack(in, static_cast<std::size_t>(bits), b, bits);
      const auto values = simulate(c, in);
      std::uint64_t product = 0;
      for (int i = 0; i < 2 * bits; ++i) {
        if (values[c.outputs()[static_cast<std::size_t>(i)]]) {
          product |= 1ull << i;
        }
      }
      EXPECT_EQ(product, a * b) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Multiplier, WallaceMatchesIntegerMultiplication) {
  for (int bits : {2, 4, 7}) {
    const Circuit c = make_wallace_multiplier(bits);
    Rng rng(31);
    const std::uint64_t mask = (1ull << bits) - 1;
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint64_t a = rng.uniform_index(mask + 1);
      const std::uint64_t b = rng.uniform_index(mask + 1);
      std::vector<char> in(c.inputs().size(), 0);
      pack(in, 0, a, bits);
      pack(in, static_cast<std::size_t>(bits), b, bits);
      const auto values = simulate(c, in);
      std::uint64_t product = 0;
      for (int i = 0; i < 2 * bits; ++i) {
        if (values[c.outputs()[static_cast<std::size_t>(i)]]) {
          product |= 1ull << i;
        }
      }
      EXPECT_EQ(product, a * b) << "bits=" << bits;
    }
  }
}

TEST(Multiplier, WallaceShallowerThanArray) {
  const Circuit wal = make_wallace_multiplier(12);
  const Circuit arr = make_array_multiplier(12);
  EXPECT_LT(wal.depth() * 2, arr.depth());
}

// ----------------------------------------------------------- structures ----

TEST(Parity, MatchesPopcountParity) {
  const Circuit c = make_parity_tree(9);
  for (int bits = 0; bits < 512; ++bits) {
    std::vector<char> in(9);
    int ones = 0;
    for (int i = 0; i < 9; ++i) {
      in[i] = (bits >> i) & 1;
      ones += in[i];
    }
    const auto values = simulate(c, in);
    EXPECT_EQ(values[c.outputs()[0]] != 0, (ones % 2) == 1);
  }
}

TEST(PriorityEncoder, GrantsHighestPriorityOnly) {
  const Circuit c = make_priority_encoder(8);
  for (int bits = 0; bits < 256; ++bits) {
    std::vector<char> in(8);
    for (int i = 0; i < 8; ++i) in[i] = (bits >> i) & 1;
    const auto values = simulate(c, in);
    int first = -1;
    for (int i = 0; i < 8; ++i) {
      if (in[i]) {
        first = i;
        break;
      }
    }
    for (int i = 0; i < 8; ++i) {
      const bool grant = values[c.outputs()[static_cast<std::size_t>(i)]];
      EXPECT_EQ(grant, i == first) << "bits=" << bits << " i=" << i;
    }
    // valid output is last.
    EXPECT_EQ(values[c.outputs()[8]] != 0, first >= 0);
  }
}

TEST(Decoder, OneHot) {
  const Circuit c = make_decoder(3);
  for (int code = 0; code < 8; ++code) {
    for (int en = 0; en <= 1; ++en) {
      std::vector<char> in(4);
      for (int i = 0; i < 3; ++i) in[i] = (code >> i) & 1;
      in[3] = static_cast<char>(en);
      const auto values = simulate(c, in);
      for (int o = 0; o < 8; ++o) {
        const bool hot = values[c.outputs()[static_cast<std::size_t>(o)]];
        EXPECT_EQ(hot, en == 1 && o == code);
      }
    }
  }
}

TEST(MuxTree, SelectsData) {
  const Circuit c = make_mux_tree(3);  // 8 data + 3 sel
  Rng rng(5);
  for (int trial = 0; trial < 64; ++trial) {
    const auto data = static_cast<int>(rng.uniform_index(256));
    const auto sel = static_cast<int>(rng.uniform_index(8));
    std::vector<char> in(11);
    for (int i = 0; i < 8; ++i) in[i] = (data >> i) & 1;
    for (int i = 0; i < 3; ++i) in[8 + i] = (sel >> i) & 1;
    const auto values = simulate(c, in);
    EXPECT_EQ(values[c.outputs()[0]] != 0, ((data >> sel) & 1) == 1);
  }
}

TEST(Comparator, EqualAndGreater) {
  const Circuit c = make_comparator(5);
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t a = rng.uniform_index(32);
    const std::uint64_t b = rng.uniform_index(32);
    std::vector<char> in(10);
    pack(in, 0, a, 5);
    pack(in, 5, b, 5);
    const auto values = simulate(c, in);
    EXPECT_EQ(values[c.outputs()[0]] != 0, a == b) << a << " vs " << b;
    EXPECT_EQ(values[c.outputs()[1]] != 0, a > b) << a << " vs " << b;
  }
}

TEST(Alu, AllOpcodes) {
  const int bits = 6;
  const Circuit c = make_alu(bits);
  Rng rng(11);
  const std::uint64_t mask = (1ull << bits) - 1;
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = rng.uniform_index(mask + 1);
    const std::uint64_t b = rng.uniform_index(mask + 1);
    const int op = trial % 4;
    std::vector<char> in(c.inputs().size(), 0);
    pack(in, 0, a, bits);
    pack(in, static_cast<std::size_t>(bits), b, bits);
    in[static_cast<std::size_t>(2 * bits)] = op & 1;
    in[static_cast<std::size_t>(2 * bits) + 1] = (op >> 1) & 1;
    const auto values = simulate(c, in);
    std::uint64_t result = 0;
    for (int i = 0; i < bits; ++i) {
      if (values[c.outputs()[static_cast<std::size_t>(i)]]) {
        result |= 1ull << i;
      }
    }
    std::uint64_t expected = 0;
    switch (op) {
      case 0: expected = (a + b) & mask; break;
      case 1: expected = a & b; break;
      case 2: expected = a | b; break;
      case 3: expected = a ^ b; break;
    }
    EXPECT_EQ(result, expected) << "op=" << op << " a=" << a << " b=" << b;
  }
}

TEST(Ecc, CleanWordHasZeroSyndrome) {
  // Compute the check bits the circuit expects by simulating with zero
  // check inputs, reading the syndrome, then feeding it back.
  const int data_bits = 16;
  const int check_bits = 5;
  const Circuit c = make_ecc_checker(data_bits, check_bits, false);
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t word = rng.uniform_index(1ull << data_bits);
    std::vector<char> in(static_cast<std::size_t>(data_bits + check_bits), 0);
    pack(in, 0, word, data_bits);
    auto values = simulate(c, in);
    // Syndrome with zero check bits = the stored parity for this word.
    std::uint64_t parity = 0;
    for (int s = 0; s < check_bits; ++s) {
      if (values[c.outputs()[static_cast<std::size_t>(s)]]) {
        parity |= 1ull << s;
      }
    }
    pack(in, static_cast<std::size_t>(data_bits), parity, check_bits);
    values = simulate(c, in);
    for (int s = 0; s < check_bits; ++s) {
      EXPECT_EQ(values[c.outputs()[static_cast<std::size_t>(s)]], 0);
    }
    // error_detect (last output) must be low.
    EXPECT_EQ(values[c.outputs()[static_cast<std::size_t>(check_bits)]], 0);

    // Now flip one data bit: the syndrome must flag it.
    const auto flip = static_cast<std::size_t>(rng.uniform_index(data_bits));
    in[flip] = in[flip] ? 0 : 1;
    values = simulate(c, in);
    EXPECT_EQ(values[c.outputs()[static_cast<std::size_t>(check_bits)]], 1);
  }
}

TEST(Ecc, NandExpansionPreservesFunction) {
  const Circuit plain = make_ecc_checker(12, 4, false);
  const Circuit expanded = make_ecc_checker(12, 4, true);
  EXPECT_GT(expanded.num_cells(), 2 * plain.num_cells());
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> in(16);
    for (auto& bit : in) bit = rng.uniform_index(2) ? 1 : 0;
    const auto va = simulate(plain, in);
    const auto vb = simulate(expanded, in);
    for (std::size_t o = 0; o < plain.outputs().size(); ++o) {
      EXPECT_EQ(va[plain.outputs()[o]], vb[expanded.outputs()[o]]);
    }
  }
}

// ----------------------------------------------------------- random DAG ----

TEST(RandomDag, DeterministicPerSeed) {
  RandomDagSpec spec;
  spec.num_gates = 300;
  spec.seed = 99;
  const Circuit a = make_random_dag(spec);
  const Circuit b = make_random_dag(spec);
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (GateId id = 0; id < a.num_gates(); ++id) {
    EXPECT_EQ(a.gate(id).kind, b.gate(id).kind);
    EXPECT_EQ(a.gate(id).fanins, b.gate(id).fanins);
  }
}

TEST(RandomDag, DifferentSeedsDiffer) {
  RandomDagSpec spec;
  spec.num_gates = 300;
  spec.seed = 1;
  const Circuit a = make_random_dag(spec);
  spec.seed = 2;
  const Circuit b = make_random_dag(spec);
  bool any_diff = a.num_gates() != b.num_gates();
  for (GateId id = 0; !any_diff && id < a.num_gates(); ++id) {
    any_diff = a.gate(id).kind != b.gate(id).kind ||
               a.gate(id).fanins != b.gate(id).fanins;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomDag, RequestedSize) {
  RandomDagSpec spec;
  spec.num_inputs = 20;
  spec.num_gates = 500;
  spec.seed = 3;
  const Circuit c = make_random_dag(spec);
  EXPECT_EQ(c.num_cells(), 500u);
  EXPECT_EQ(c.inputs().size(), 20u);
  EXPECT_GE(c.outputs().size(), 1u);
}

TEST(RandomDag, NoDanglingCells) {
  RandomDagSpec spec;
  spec.num_gates = 400;
  spec.seed = 5;
  const Circuit c = make_random_dag(spec);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.gate(id).kind == CellKind::kInput) continue;
    EXPECT_TRUE(!c.fanouts(id).empty() || c.is_output(id))
        << "gate " << c.gate(id).name << " is dangling";
  }
}

TEST(RandomDag, RejectsBadSpec) {
  RandomDagSpec spec;
  spec.num_inputs = 1;
  EXPECT_THROW(make_random_dag(spec), Error);
}

// -------------------------------------------------------------- proxies ----

TEST(Proxy, NamesAndMirrors) {
  const auto names = iscas85_proxy_names();
  EXPECT_EQ(names.size(), 10u);
  EXPECT_EQ(mirrors_of("c432p"), "c432");
  EXPECT_EQ(mirrors_of("c6288p"), "c6288");
}

TEST(Proxy, UnknownNameThrows) {
  EXPECT_THROW(iscas85_proxy("c9999"), Error);
}

TEST(Proxy, SizesTrackMirroredBenchmarks) {
  // Proxy cell counts should be within ~40 % of the mirrored ISCAS85 gate
  // counts (exact counts are not the goal; the size ladder is).
  const std::vector<std::pair<std::string, std::size_t>> targets = {
      {"c432p", 160},  {"c499p", 202},   {"c880p", 383},  {"c1355p", 546},
      {"c1908p", 880}, {"c2670p", 1193}, {"c3540p", 1669}, {"c5315p", 2307},
      {"c6288p", 2406}, {"c7552p", 3512}};
  for (const auto& [name, target] : targets) {
    const Circuit c = iscas85_proxy(name);
    const auto cells = static_cast<double>(c.num_cells());
    EXPECT_GT(cells, 0.55 * static_cast<double>(target)) << name;
    EXPECT_LT(cells, 1.6 * static_cast<double>(target)) << name;
  }
}

TEST(Proxy, SuiteIsSizeOrderedAndDeterministic) {
  const auto suite = iscas85_proxy_suite();
  ASSERT_EQ(suite.size(), 10u);
  const Circuit again = iscas85_proxy(suite[0].name());
  EXPECT_EQ(again.num_gates(), suite[0].num_gates());
}

TEST(Proxy, MultiplierProxyIsDeep) {
  const Circuit c = iscas85_proxy("c6288p");
  EXPECT_GT(c.depth(), 50);  // array multiplier: long ripple chains
}

TEST(Proxy, AllProxiesWellFormed) {
  for (const auto& name : iscas85_proxy_names()) {
    const Circuit c = iscas85_proxy(name);
    EXPECT_TRUE(c.finalized());
    EXPECT_GE(c.outputs().size(), 1u) << name;
    EXPECT_GE(c.inputs().size(), 4u) << name;
    // Simulation must run end to end.
    std::vector<char> in(c.inputs().size(), 1);
    EXPECT_NO_THROW(simulate(c, in)) << name;
  }
}

}  // namespace
}  // namespace statleak
