// Differential test of the single-pass .bench reader against the
// line-by-line reference in bench_reader_oracle.hpp. For every input both
// readers must build equal circuits (names, kinds, fanins, outputs, topo
// order, fanouts) or both throw the same what(): the ISCAS85 c17 netlist,
// the round-trip text of every ISCAS proxy, hand-written inputs that cover
// the grammar's corners, every truncation of those, and seeded byte
// mutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_reader_oracle.hpp"
#include "gen/proxy.hpp"
#include "netlist/bench_io.hpp"
#include "util/error.hpp"

namespace statleak {
namespace {

const char* kC17 = R"(
# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

/// Accepted inputs that exercise the grammar's corners: forward
/// references, wide operators (temp names), comments, tabs, CRLF, the
/// trailing comma, lower-case directives and operators, late INPUT lines.
const std::vector<std::string>& accepted_corpus() {
  static const std::vector<std::string> kCorpus = {
      "INPUT(a)\nOUTPUT(y)\ny = NOT(x)   # x defined later\nx = NOT(a)\n",
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\n"
      "INPUT(g)\nINPUT(h)\nINPUT(i)\n"
      "OUTPUT(w1)\nOUTPUT(w2)\nOUTPUT(w3)\nOUTPUT(w4)\nOUTPUT(w5)\n"
      "OUTPUT(w6)\n"
      "w1 = AND(a, b, c, d, e, f, g)\n"
      "w2 = NAND(a, b, c, d, e, f, g, h, i)\n"
      "w3 = OR(a, b, c, d, e, f, g, h, i, a)\n"
      "w4 = NOR(a, b, c, d, e)\n"
      "w5 = XOR(a, b, c, d, e)\n"
      "w6 = XNOR(w1, w2, w3, w4)\n",
      "# header\n\tINPUT( a )\t\n  OUTPUT(y)#tail\n\n"
      "y\t=\tnand(\ta ,\tb\t)\n b = buff(a)  \n",
      "INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = AND(a, b)\r\n",
      "input(a)\ninput(b)\noutput(y)\ny = and(a, b,)\n",
      "OUTPUT(y)\ny = NOT(x)\nx = BUF(a)\nINPUT(a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)# comment straight after ')'\n",
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b, a, b, a, b)",
      "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = INV(a)\nz = BUFF(y)\n",
  };
  return kCorpus;
}

/// Rejected inputs, one per error path of the reader and the builder.
const std::vector<std::string>& rejected_corpus() {
  static const std::vector<std::string> kCorpus = {
      "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = dff(a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = not(a, a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = Nand(a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = NOT(missing)\n",
      "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\n",
      "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
      "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = AND(,a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n",
      "INPUT(a)\nOUTPUT(y)\ny = AND()\n",
      "INPUT(a)\nOUTPUT(y)\ny = AND\n",
      "INPUT(a)\nOUTPUT(y)\n = AND(a, a)\n",
      "INPUT(a)\nOUTPUT(y)\nwibble(a)\n",
      "INPUT(a)\nOUTPUT()\n",
      "INPUT(a)\nOUTPUT(y\n",
      "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n",
      "INPUT(a)\nOUTPUT(y)\ny__t0 = NOT(a)\ny = AND(a, a, a, a)\n",
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nb = NOT(a)\ny = NOT(b)\n",
      "INPUT(a)\n",
      "",
      "# only a comment\r\n",
  };
  return kCorpus;
}

/// What a reader did with one input: a circuit, or the error text.
struct Outcome {
  std::optional<Circuit> circuit;
  std::string error;
};

template <class Read>
Outcome outcome_of(Read read) {
  try {
    return {read(), ""};
  } catch (const Error& e) {
    return {std::nullopt, e.what()};
  }
}

/// Empty when equal, else the first difference found.
std::string circuit_diff(const Circuit& a, const Circuit& b) {
  if (a.name() != b.name()) return "name";
  if (a.num_gates() != b.num_gates()) return "gate count";
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  if (!same(a.inputs(), b.inputs())) return "inputs";
  if (!same(a.outputs(), b.outputs())) return "outputs";
  if (!same(a.topo_order(), b.topo_order())) return "topo order";
  for (GateId id = 0; id < a.num_gates(); ++id) {
    const Gate& ga = a.gate(id);
    const Gate& gb = b.gate(id);
    const std::string at = " of gate " + std::to_string(id);
    if (ga.name != gb.name) return "name" + at;
    if (ga.kind != gb.kind) return "kind" + at;
    if (ga.vth != gb.vth || ga.size != gb.size) return "implementation" + at;
    if (ga.fanins != gb.fanins) return "fanins" + at;
    if (!same(a.fanouts(id), b.fanouts(id))) return "fanouts" + at;
    if (a.level(id) != b.level(id)) return "level" + at;
    if (a.find(ga.name) != id || b.find(gb.name) != id) return "index" + at;
  }
  return "";
}

/// Runs both readers on `text`; reports the first disagreement.
/// `accepted` (optional) receives whether the oracle accepted the input.
::testing::AssertionResult readers_agree(const std::string& text,
                                         bool* accepted = nullptr) {
  const Outcome want =
      outcome_of([&] { return oracle::read_bench_string(text, "diff"); });
  const Outcome got =
      outcome_of([&] { return read_bench_string(text, "diff"); });
  if (accepted != nullptr) *accepted = want.circuit.has_value();
  const auto fail = [&](const std::string& why) {
    return ::testing::AssertionFailure()
           << why << "\n--- input ---\n" << text << "\n--- oracle: "
           << (want.circuit ? "accepted" : want.error) << "\n--- reader: "
           << (got.circuit ? "accepted" : got.error);
  };
  if (want.error != got.error) return fail("different outcome");
  if (want.circuit) {
    const std::string diff = circuit_diff(*got.circuit, *want.circuit);
    if (!diff.empty()) return fail("circuits differ in " + diff);
  }
  return ::testing::AssertionSuccess();
}

TEST(BenchReaderDifferential, C17) {
  EXPECT_TRUE(readers_agree(kC17));
  EXPECT_NO_THROW((void)read_bench_string(kC17, "c17"));
}

TEST(BenchReaderDifferential, EveryProxyRoundTrip) {
  for (const std::string& name : iscas85_proxy_names()) {
    const std::string text = write_bench_string(iscas85_proxy(name));
    EXPECT_TRUE(readers_agree(text)) << name;
  }
}

TEST(BenchReaderDifferential, HandWrittenCorpus) {
  for (const std::string& text : accepted_corpus()) {
    EXPECT_TRUE(readers_agree(text));
    EXPECT_NO_THROW((void)read_bench_string(text, "ok")) << text;
  }
  for (const std::string& text : rejected_corpus()) {
    EXPECT_TRUE(readers_agree(text));
    EXPECT_THROW((void)read_bench_string(text, "bad"), Error) << text;
  }
}

TEST(BenchReaderDifferential, OverCapAndWideOperands) {
  for (const int width : {1023, 1024, 1025}) {
    for (const char* op : {"AND", "NAND", "XOR"}) {
      std::string text = "INPUT(a)\nOUTPUT(x)\nx = " + std::string(op) + "(";
      for (int i = 0; i < width; ++i) text += i ? ", a" : "a";
      text += ")\n";
      EXPECT_TRUE(readers_agree(text)) << op << " x" << width;
    }
  }
}

TEST(BenchReaderDifferential, EveryTruncation) {
  std::vector<std::string> bases = {kC17};
  for (const auto* corpus : {&accepted_corpus(), &rejected_corpus()}) {
    bases.insert(bases.end(), corpus->begin(), corpus->end());
  }
  for (const std::string& base : bases) {
    for (std::size_t cut = 0; cut <= base.size(); ++cut) {
      ASSERT_TRUE(readers_agree(base.substr(0, cut))) << "cut " << cut;
    }
  }
}

TEST(BenchReaderDifferential, SeededByteMutations) {
  // 1-4 edits per trial (replace, insert or delete one byte), drawn mostly
  // from the grammar's own punctuation so mutants reach deep paths.
  static constexpr char kAlphabet[] = "()=,#\n\r\t ab_AND OR X01";
  std::vector<std::string> bases = {kC17};
  bases.insert(bases.end(), accepted_corpus().begin(),
               accepted_corpus().end());
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  const auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr int kTrials = 12000;
  int accepted = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string text = bases[next() % bases.size()];
    const int edits = 1 + static_cast<int>(next() % 4);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t pos = next() % text.size();
      const std::uint64_t r = next();
      const char c = r % 4 == 0 ? static_cast<char>(r >> 8)
                                : kAlphabet[(r >> 8) % (sizeof(kAlphabet) - 1)];
      switch ((r >> 16) % 3) {
        case 0: text[pos] = c; break;
        case 1: text.insert(text.begin() + pos, c); break;
        default: text.erase(pos, 1); break;
      }
    }
    bool ok = false;
    ASSERT_TRUE(readers_agree(text, &ok)) << "trial " << trial;
    accepted += ok;
  }
  // Both sides of the grammar are covered, not just rejections.
  EXPECT_GT(accepted, kTrials / 20);
  EXPECT_LT(accepted, kTrials);
}

TEST(BenchReaderDifferential, StreamAndFilePathsMatchTheString) {
  const std::string text = write_bench_string(iscas85_proxy("c880p"));
  const Circuit from_string = read_bench_string(text, "c880p");
  std::istringstream in(text);
  EXPECT_EQ(circuit_diff(read_bench(in, "c880p"), from_string), "");

  const std::string path = ::testing::TempDir() + "c880p.bench";
  std::ofstream(path) << text;
  EXPECT_EQ(circuit_diff(read_bench_file(path), from_string), "");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace statleak
