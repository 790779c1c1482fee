// Unit tests for the .bench reader/writer, including the ISCAS85 c17
// benchmark (small enough to embed and verify exhaustively), wide-operator
// decomposition, forward references, and error reporting.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "netlist/bench_io.hpp"
#include "netlist/impl_io.hpp"
#include "util/error.hpp"

namespace statleak {
namespace {

// The canonical ISCAS85 c17 netlist.
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

/// Reference model of c17.
std::pair<bool, bool> c17_reference(bool i1, bool i2, bool i3, bool i6,
                                    bool i7) {
  const bool n10 = !(i1 && i3);
  const bool n11 = !(i3 && i6);
  const bool n16 = !(i2 && n11);
  const bool n19 = !(n11 && i7);
  return {!(n10 && n16), !(n16 && n19)};
}

TEST(BenchReader, C17Structure) {
  const Circuit c = read_bench_string(kC17, "c17");
  EXPECT_EQ(c.name(), "c17");
  EXPECT_EQ(c.inputs().size(), 5u);
  EXPECT_EQ(c.outputs().size(), 2u);
  EXPECT_EQ(c.num_cells(), 6u);
  EXPECT_EQ(c.depth(), 3);
  EXPECT_EQ(c.gate(c.find("10")).kind, CellKind::kNand2);
}

TEST(BenchReader, C17ExhaustiveFunctional) {
  const Circuit c = read_bench_string(kC17, "c17");
  const GateId o22 = c.find("22");
  const GateId o23 = c.find("23");
  for (int bits = 0; bits < 32; ++bits) {
    std::vector<char> in(5);
    for (int i = 0; i < 5; ++i) in[i] = (bits >> i) & 1;
    const auto values = simulate(c, in);
    const auto [r22, r23] =
        c17_reference(in[0], in[1], in[2], in[3], in[4]);
    EXPECT_EQ(values[o22] != 0, r22) << "bits=" << bits;
    EXPECT_EQ(values[o23] != 0, r23) << "bits=" << bits;
  }
}

TEST(BenchReader, ForwardReferencesAllowed) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
y = NOT(x)      # x defined later
x = NOT(a)
)";
  const Circuit c = read_bench_string(text, "fwd");
  EXPECT_EQ(c.num_cells(), 2u);
  const std::vector<char> in = {1};
  EXPECT_EQ(simulate(c, in)[c.find("y")], 1);
}

TEST(BenchReader, CaseInsensitiveOperators) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = nand(a, b)
)";
  const Circuit c = read_bench_string(text, "ci");
  EXPECT_EQ(c.gate(c.find("y")).kind, CellKind::kNand2);
}

TEST(BenchReader, AllNativeOperators) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(o1)
OUTPUT(o2)
n1 = NOT(a)
n2 = BUFF(b)
n3 = AND(a, b)
n4 = OR(c, d)
n5 = NAND(a, b, c)
n6 = NOR(a, b, c, d)
n7 = XOR(a, b)
n8 = XNOR(c, d)
o1 = AND(n1, n2, n3)
o2 = OR(n4, n5, n6, n7, n8)
)";
  const Circuit c = read_bench_string(text, "ops");
  EXPECT_EQ(c.gate(c.find("n1")).kind, CellKind::kInv);
  EXPECT_EQ(c.gate(c.find("n2")).kind, CellKind::kBuf);
  EXPECT_EQ(c.gate(c.find("n3")).kind, CellKind::kAnd2);
  EXPECT_EQ(c.gate(c.find("n5")).kind, CellKind::kNand3);
  EXPECT_EQ(c.gate(c.find("n6")).kind, CellKind::kNor4);
  EXPECT_EQ(c.gate(c.find("n7")).kind, CellKind::kXor2);
  EXPECT_EQ(c.gate(c.find("o1")).kind, CellKind::kAnd3);
}

/// Wide-operator decomposition must preserve functionality.
class WideOpTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WideOpTest, DecomposedEquivalence) {
  const std::string op = GetParam();
  const int width = 6;
  std::string text;
  for (int i = 0; i < width; ++i) {
    text += "INPUT(i" + std::to_string(i) + ")\n";
  }
  text += "OUTPUT(y)\ny = " + op + "(";
  for (int i = 0; i < width; ++i) {
    if (i) text += ", ";
    text += "i" + std::to_string(i);
  }
  text += ")\n";

  const Circuit c = read_bench_string(text, "wide");
  const GateId y = c.find("y");
  for (int bits = 0; bits < (1 << width); ++bits) {
    std::vector<char> in(width);
    int ones = 0;
    for (int i = 0; i < width; ++i) {
      in[i] = (bits >> i) & 1;
      ones += in[i];
    }
    bool expected = false;
    if (op == "AND") expected = ones == width;
    if (op == "NAND") expected = ones != width;
    if (op == "OR") expected = ones > 0;
    if (op == "NOR") expected = ones == 0;
    if (op == "XOR") expected = (ones % 2) == 1;
    if (op == "XNOR") expected = (ones % 2) == 0;
    EXPECT_EQ(simulate(c, in)[y] != 0, expected)
        << op << " bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWideOps, WideOpTest,
                         ::testing::Values("AND", "NAND", "OR", "NOR", "XOR",
                                           "XNOR"));

TEST(BenchReader, Errors) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n", "t"),
               Error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "t"),
               Error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(missing)\n",
                                 "t"),
               Error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\n", "t"), Error);
  EXPECT_THROW(read_bench_string("garbage line\n", "t"), Error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n", "t"),
               Error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n", "t"),
               Error);
}

TEST(BenchReader, ErrorMentionsLineNumber) {
  try {
    read_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "t");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(BenchReader, MissingFileThrows) {
  EXPECT_THROW(read_bench_file("/nonexistent/path.bench"), Error);
}

TEST(BenchWriter, RoundTripPreservesFunction) {
  const Circuit original = read_bench_string(kC17, "c17");
  const std::string text = write_bench_string(original);
  const Circuit reparsed = read_bench_string(text, "c17rt");
  ASSERT_EQ(reparsed.inputs().size(), original.inputs().size());
  const GateId o22a = original.find("22");
  const GateId o22b = reparsed.find("22");
  const GateId o23a = original.find("23");
  const GateId o23b = reparsed.find("23");
  for (int bits = 0; bits < 32; ++bits) {
    std::vector<char> in(5);
    for (int i = 0; i < 5; ++i) in[i] = (bits >> i) & 1;
    const auto va = simulate(original, in);
    const auto vb = simulate(reparsed, in);
    EXPECT_EQ(va[o22a], vb[o22b]);
    EXPECT_EQ(va[o23a], vb[o23b]);
  }
}

TEST(BenchWriter, DecomposesInexpressibleKinds) {
  // AOI21, OAI21 and MUX2 have no .bench operator; the writer must emit a
  // logically equivalent decomposition.
  Circuit c("complexcells");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId s = c.add_input("s");
  const GateId aoi = c.add_gate("aoi", CellKind::kAoi21, {a, b, s});
  const GateId oai = c.add_gate("oai", CellKind::kOai21, {a, b, s});
  const GateId mux = c.add_gate("mux", CellKind::kMux2, {a, b, s});
  c.mark_output(aoi);
  c.mark_output(oai);
  c.mark_output(mux);
  c.finalize();

  const Circuit reparsed =
      read_bench_string(write_bench_string(c), "roundtrip");
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<char> in(3);
    for (int i = 0; i < 3; ++i) in[i] = (bits >> i) & 1;
    const auto va = simulate(c, in);
    const auto vb = simulate(reparsed, in);
    EXPECT_EQ(va[aoi], vb[reparsed.find("aoi")]) << bits;
    EXPECT_EQ(va[oai], vb[reparsed.find("oai")]) << bits;
    EXPECT_EQ(va[mux], vb[reparsed.find("mux")]) << bits;
  }
}

// --------------------------------------------------------- fuzz corpus ----
// Robustness contract: malformed input of any shape raises a clean
// statleak::Error — never a crash, hang or unbounded allocation. The
// corpus runs under the ASan/UBSan CI job, which turns latent memory
// errors on these paths into hard failures.

/// Parsing must either succeed or throw Error; anything else (segfault,
/// std::bad_alloc from a hostile width, uncaught std exception) fails.
void expect_clean(const std::string& text, const char* what) {
  try {
    const Circuit c = read_bench_string(text, "fuzz");
    EXPECT_TRUE(c.finalized()) << what;
  } catch (const Error&) {
    // Clean rejection is fine.
  }
}

void expect_rejected(const std::string& text, const char* what) {
  EXPECT_THROW((void)read_bench_string(text, "fuzz"), Error) << what;
}

TEST(BenchFuzz, TruncationsAtEveryByte) {
  // Every prefix of a valid netlist must parse cleanly or be rejected
  // cleanly — truncated files are the most common corruption in the wild.
  const std::string full(kC17);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    expect_clean(full.substr(0, cut), "truncation");
  }
}

TEST(BenchFuzz, CyclicDefinitionsAreRejected) {
  expect_rejected("INPUT(a)\nOUTPUT(x)\nx = AND(a, x)\n", "self loop");
  expect_rejected(
      "INPUT(a)\nOUTPUT(x)\n"
      "x = AND(a, y)\ny = AND(a, z)\nz = AND(a, x)\n",
      "three-gate cycle");
  expect_rejected("OUTPUT(x)\nx = BUF(x)\n", "buffer self loop");
}

TEST(BenchFuzz, DuplicateOutputIsRejected) {
  expect_rejected("INPUT(a)\nOUTPUT(x)\nOUTPUT(x)\nx = NOT(a)\n",
                  "duplicate OUTPUT");
}

TEST(BenchFuzz, DuplicateDefinitionsAreRejected) {
  expect_rejected("INPUT(a)\nINPUT(a)\nOUTPUT(x)\nx = NOT(a)\n",
                  "duplicate INPUT");
  expect_rejected("INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUF(a)\n",
                  "redefined signal");
  expect_rejected("INPUT(a)\nOUTPUT(a)\na = NOT(a)\n",
                  "gate named like an input");
}

TEST(BenchFuzz, AbsurdFaninIsRejectedNotAllocated) {
  // 100k operands would expand into ~100k tree gates; the reader must
  // refuse at the cap instead.
  std::string text = "INPUT(a)\nOUTPUT(x)\nx = AND(";
  for (int i = 0; i < 100000; ++i) {
    if (i) text += ", ";
    text += "a";
  }
  text += ")\n";
  expect_rejected(text, "100k-input AND");

  // ...while a wide-but-sane operator still decomposes fine.
  std::string ok = "INPUT(a)\nOUTPUT(x)\nx = AND(";
  for (int i = 0; i < 1000; ++i) {
    if (i) ok += ", ";
    ok += "a";
  }
  ok += ")\n";
  EXPECT_NO_THROW((void)read_bench_string(ok, "wide"));
}

TEST(BenchFuzz, MalformedLinesAreRejected) {
  const char* cases[] = {
      "garbage",
      "INPUT",
      "INPUT()",
      "INPUT(a",
      "OUTPUT)a(",
      "= AND(a, b)",
      "x = ",
      "x = AND",
      "x = AND()",
      "x = AND(,)",
      "x = AND(a,)",
      "x = AND(a b)",     // missing comma -> one operand with a space
      "x = FROB(a, b)",   // unknown operator
      "x = DFF(a)",       // sequential element
      "x = NOT(a, b)",    // arity violation
      "x = NAND(a)",      // arity violation
      "WIBBLE(a)",        // unknown directive
      "x = AND(a, b)\nOUTPUT(y)",  // undefined output
      "x = AND(a, b)",    // undefined operand, no outputs
  };
  for (const char* bad : cases) {
    const std::string text =
        std::string("INPUT(a)\nINPUT(b)\nOUTPUT(x)\n") + bad + "\n";
    expect_clean(text, bad);  // many are outright invalid -> Error
  }
  // And the strict subset that must definitely throw:
  expect_rejected("INPUT(a)\nOUTPUT(x)\nx = FROB(a)\n", "unknown op");
  expect_rejected("INPUT(a)\nOUTPUT(x)\nx = DFF(a)\n", "DFF");
  expect_rejected("INPUT(a)\nOUTPUT(x)\nx = NOT(a, a)\n", "arity");
  expect_rejected("", "empty file");
  expect_rejected("# only a comment\n", "comment only");
  expect_rejected("INPUT(a)\n", "no outputs");
  expect_rejected("OUTPUT(x)\n", "undefined output");
}

TEST(BenchFuzz, RandomByteMutationsNeverCrash) {
  // Deterministic pseudo-random single-byte corruptions of c17.
  const std::string full(kC17);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = full;
    const std::size_t pos = next() % mutated.size();
    mutated[pos] = static_cast<char>(next() % 256);
    expect_clean(mutated, "byte mutation");
  }
}

// ------------------------------------------------------ grammar quirks ---
// Behaviours of the .bench grammar that real files rely on, pinned by name
// (the header comment of netlist/bench_io.hpp lists them).

TEST(BenchQuirks, TrailingCommaIsAccepted) {
  const Circuit c =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b,)\n", "t");
  EXPECT_EQ(c.gate(c.find("y")).kind, CellKind::kAnd2);
  // Only a piece after the last comma may be empty.
  expect_rejected("INPUT(a)\nOUTPUT(y)\ny = AND(,a)\n", "leading comma");
  expect_rejected("INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n", "double comma");
}

TEST(BenchQuirks, LowerCaseDirectives) {
  const Circuit c =
      read_bench_string("input(a)\nOutput(y)\ny = not(a)\n", "t");
  ASSERT_EQ(c.inputs().size(), 1u);
  EXPECT_EQ(c.gate(c.inputs()[0]).name, "a");
  EXPECT_EQ(c.gate(c.outputs()[0]).name, "y");
}

TEST(BenchQuirks, LateInputLineTakesAnInputIdBelowEveryGate) {
  const Circuit c = read_bench_string(
      "OUTPUT(y)\ny = NAND(a, x)\nx = NOT(a)\nINPUT(a)\n", "t");
  const GateId a = c.find("a");
  EXPECT_EQ(a, 0u);
  EXPECT_LT(a, c.find("y"));
  EXPECT_LT(a, c.find("x"));
  // Gates keep definition order after the inputs.
  EXPECT_LT(c.find("y"), c.find("x"));
}

TEST(BenchQuirks, CommentStraightAfterParen) {
  const Circuit c = read_bench_string(
      "INPUT(a)#in\nOUTPUT(y)#out\ny = NOT(a)# no space before '#'\n", "t");
  EXPECT_EQ(c.num_cells(), 1u);
  EXPECT_EQ(c.gate(c.find("y")).kind, CellKind::kInv);
}

TEST(BenchQuirks, CrlfLineEnds) {
  const Circuit c = read_bench_string(
      "INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = OR(a, b)\r\n", "t");
  EXPECT_NE(c.find("a"), kInvalidGate);
  EXPECT_NE(c.find("y"), kInvalidGate);
  EXPECT_EQ(c.gate(c.find("y")).kind, CellKind::kOr2);
  // Line numbers count '\n' only.
  try {
    read_bench_string("INPUT(a)\r\nOUTPUT(y)\r\ny = FROB(a)\r\n", "t");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: unknown operator 'FROB'"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ .impl I/O ---
// The implementation-sidecar parser hardened in the robustness PR: every
// diagnostic carries line AND column so a bad token in a machine-generated
// file is findable without counting fields by hand.

class ImplFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    std::istringstream in(kC17);
    circuit_ = read_bench(in, "c17");
  }

  /// Expects read_impl to reject `text` with a diagnostic naming the given
  /// 1-based line and column.
  void expect_reject_at(const std::string& text, int line, int col,
                        const std::string& needle) {
    std::istringstream in(text);
    try {
      (void)read_impl(in, circuit_);
      FAIL() << "accepted: " << text;
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line " + std::to_string(line)), std::string::npos)
          << msg << "\ninput: " << text;
      EXPECT_NE(msg.find("column " + std::to_string(col)), std::string::npos)
          << msg << "\ninput: " << text;
      EXPECT_NE(msg.find(needle), std::string::npos)
          << msg << "\ninput: " << text;
    }
  }

  Circuit circuit_;
};

TEST_F(ImplFuzz, TooFewFields) {
  expect_reject_at("10 LVT", 1, 7, "got 2 field(s)");
}

TEST_F(ImplFuzz, TrailingField) {
  expect_reject_at("10 LVT 2.0 surprise", 1, 12, "trailing field");
}

TEST_F(ImplFuzz, UnknownGate) {
  expect_reject_at("nope HVT 1.0", 1, 1, "unknown gate");
}

TEST_F(ImplFuzz, PrimaryInputRejected) {
  expect_reject_at("1 HVT 1.0", 1, 1, "primary input");
}

TEST_F(ImplFuzz, BadVthClass) {
  expect_reject_at("10 MVT 1.0", 1, 4, "bad Vth class");
}

TEST_F(ImplFuzz, MalformedSize) {
  expect_reject_at("10 LVT banana", 1, 8, "malformed size");
  expect_reject_at("10 LVT 2.0x", 1, 8, "malformed size");
}

TEST_F(ImplFuzz, NonPositiveSize) {
  expect_reject_at("10 LVT 0", 1, 8, "positive");
  expect_reject_at("10 LVT -3", 1, 8, "positive");
  expect_reject_at("10 LVT inf", 1, 8, "positive");
}

TEST_F(ImplFuzz, ErrorsNameTheOffendingLineNotTheFirst) {
  // Valid entries precede the bad one; blank and comment lines still count.
  expect_reject_at("10 LVT 2.0\n\n# comment\n11 HVT 1.5\n16 XVT 1.0", 5, 4,
                   "bad Vth class");
}

TEST_F(ImplFuzz, ColumnsAccountForExtraWhitespace) {
  expect_reject_at("10   \t LVT  frob", 1, 13, "malformed size");
}

TEST_F(ImplFuzz, ValidInputStillApplies) {
  std::istringstream in("10 HVT 2.5  # inline comment\n11 LVT 1.5\n");
  EXPECT_EQ(read_impl(in, circuit_), 2u);
  const GateId id = circuit_.find("10");
  EXPECT_EQ(circuit_.gate(id).vth, Vth::kHigh);
  EXPECT_DOUBLE_EQ(circuit_.gate(id).size, 2.5);
}

}  // namespace
}  // namespace statleak
