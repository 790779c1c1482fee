#include "netlist/bench_io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <deque>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/error.hpp"

namespace statleak {

namespace {

using Names = std::span<const std::string_view>;

/// Whitespace as std::isspace defines it (CR included).
std::string_view strip(std::string_view s) {
  const auto space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

std::string upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

[[noreturn]] void parse_error(int line, const std::string& msg) {
  throw Error("bench parse error at line " + std::to_string(line) + ": " +
              msg);
}

/// Operand-count cap per definition. Real ISCAS-era netlists stay far below
/// this; anything above it is a corrupt or adversarial file, rejected with a
/// clean parse error before the tree decomposition allocates gates for it.
constexpr std::size_t kMaxBenchFanin = 1024;

/// One `name = OP(...)` line: views into the text, operands as a range.
struct Def {
  std::string_view name;
  std::string_view op;
  std::size_t first_arg = 0, num_args = 0;
  int line = 0;
};

/// Second construction phase: turns parsed defs into gates, decomposing
/// operators wider than the library's native fanin into balanced trees.
class Builder {
 public:
  explicit Builder(const std::string& name) : circuit_(name) {}

  void add_input(std::string_view name) { circuit_.add_input(name); }

  Circuit build(const std::vector<Def>& defs, Names args, Names outputs) {
    circuit_.reserve(circuit_.num_gates() + defs.size());
    // Gates may reference later definitions, so create first, patch after.
    for (const Def& def : defs) {
      create(def, args.subspan(def.first_arg, def.num_args));
    }
    for (const Patch& p : patches_) {
      const GateId src = circuit_.find(p.src_name);
      if (src == kInvalidGate) {
        throw Error("bench: gate references undefined signal '" +
                    std::string(p.src_name) + "'");
      }
      circuit_.patch_fanin(p.gate, p.pin, src);
    }
    for (const std::string_view out : outputs) {
      const GateId id = circuit_.find(out);
      if (id == kInvalidGate) {
        throw Error("bench: OUTPUT(" + std::string(out) +
                    ") is never defined");
      }
      circuit_.mark_output(id);
    }
    circuit_.finalize();
    return std::move(circuit_);
  }

 private:
  /// Creates the gate(s) for one definition.
  void create(const Def& def, Names args) {
    const std::string op = upper(def.op);
    const auto need = [&](bool ok, const char* arity) {
      if (!ok) parse_error(def.line, op + arity);
    };
    if (op == "NOT" || op == "INV" || op == "BUF" || op == "BUFF") {
      need(args.size() == 1, " takes exactly 1 input");
      make_gate(def.name,
                op == "NOT" || op == "INV" ? CellKind::kInv : CellKind::kBuf,
                args);
    } else if (op == "AND" || op == "OR" || op == "NAND" || op == "NOR") {
      need(args.size() >= 2, " needs at least 2 inputs");
      make_reduction(def.name, args, op == "AND" || op == "NAND",
                     op == "NAND" || op == "NOR");
    } else if (op == "XOR" || op == "XNOR") {
      need(args.size() >= 2, " needs at least 2 inputs");
      make_xor_chain(def.name, args, op == "XNOR");
    } else if (op == "DFF") {
      parse_error(def.line,
                  "sequential element DFF not supported "
                  "(combinational circuits only)");
    } else {
      parse_error(def.line, "unknown operator '" + op + "'");
    }
  }

  /// AND/OR/NAND/NOR of any arity: pairwise-reduce with AND2/OR2 cells down
  /// to the widest native cell (3 inputs, 4 for NAND/NOR), which carries the
  /// user-visible name.
  void make_reduction(std::string_view name, Names args, bool is_and,
                      bool invert) {
    using K = CellKind;
    static constexpr CellKind kCells[2][2][3] = {
        {{K::kOr2, K::kOr3}, {K::kNor2, K::kNor3, K::kNor4}},
        {{K::kAnd2, K::kAnd3}, {K::kNand2, K::kNand3, K::kNand4}}};
    const auto& cells = kCells[is_and];
    args = reduce_to(name, args, invert ? 4 : 3, cells[0][0]);
    make_gate(name, cells[invert][args.size() - 2], args);
  }

  /// XOR/XNOR of any arity: left-to-right XOR2 chain, final gate named.
  void make_xor_chain(std::string_view name, Names args, bool negate_last) {
    std::string_view acc = args[0];
    for (std::size_t i = 1; i + 1 < args.size(); ++i) {
      const std::string_view t = temp_name(name);
      make_gate(t, CellKind::kXor2, std::array{acc, args[i]});
      acc = t;
    }
    make_gate(name, negate_last ? CellKind::kXnor2 : CellKind::kXor2,
              std::array{acc, args.back()});
  }

  /// Pairwise-reduces `args` with `two`-input cells until at most
  /// `max_operands` remain (but never below 2).
  Names reduce_to(std::string_view name, Names args, std::size_t max_operands,
                  CellKind two) {
    if (args.size() <= max_operands) return args;
    level_.assign(args.begin(), args.end());
    while (level_.size() > max_operands) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < level_.size(); i += 2) {
        if (i + 1 < level_.size()) {
          const std::string_view t = temp_name(name);
          make_gate(t, two, std::array{level_[i], level_[i + 1]});
          level_[kept++] = t;
        } else {
          level_[kept++] = level_[i];
        }
      }
      level_.resize(kept);
    }
    return level_;
  }

  /// "<base>__tN", kept where it never moves: patches hold views of it.
  std::string_view temp_name(std::string_view base) {
    return temps_.emplace_back(std::string(base) + "__t" +
                               std::to_string(temp_counter_++));
  }

  /// Adds the gate with placeholder fanins; their names are resolved once
  /// every gate exists.
  void make_gate(std::string_view name, CellKind kind, Names arg_names) {
    unresolved_.assign(arg_names.size(), kInvalidGate);
    const GateId id = circuit_.add_gate(name, kind, unresolved_);
    for (std::uint32_t pin = 0; pin < arg_names.size(); ++pin) {
      patches_.push_back({id, pin, arg_names[pin]});
    }
  }

  /// Pin `pin` of `gate` reads the signal named `src_name`.
  struct Patch {
    GateId gate;
    std::uint32_t pin;
    std::string_view src_name;
  };

  Circuit circuit_;
  std::vector<GateId> unresolved_;  ///< make_gate's placeholder fanins
  std::vector<Patch> patches_;
  std::deque<std::string> temps_;
  std::vector<std::string_view> level_;  ///< reduce_to's working level
  int temp_counter_ = 0;
};

/// One pass over the whole text. Lines split on '\n' only; everything from
/// the first '#' on is a comment; tokens are views into `text`.
Circuit read_bench_impl(std::string_view text,
                        const std::string& circuit_name) {
  constexpr auto npos = std::string_view::npos;
  Builder builder(circuit_name);
  std::vector<Def> defs;
  std::vector<std::string_view> args;  // every def's operands, in order
  std::vector<std::string_view> outputs;
  std::unordered_set<std::string_view> seen_outputs;

  int line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    line = strip(line.substr(0, line.find('#')));
    if (line.empty()) continue;

    const auto lparen = line.find('(');
    const auto equals = line.find('=');
    if (equals == npos) {
      // INPUT(x) or OUTPUT(x)
      if (lparen == npos || line.back() != ')') {
        parse_error(line_no, "expected INPUT(...), OUTPUT(...) or assignment");
      }
      const std::string head = upper(strip(line.substr(0, lparen)));
      const std::string_view arg =
          strip(line.substr(lparen + 1, line.size() - lparen - 2));
      if (arg.empty()) parse_error(line_no, "empty signal name");
      if (head == "INPUT") {
        builder.add_input(arg);
      } else if (head == "OUTPUT") {
        if (!seen_outputs.insert(arg).second) {
          parse_error(line_no, "duplicate OUTPUT(" + std::string(arg) + ")");
        }
        outputs.push_back(arg);
      } else {
        parse_error(line_no, "unknown directive '" + head + "'");
      }
      continue;
    }

    // name = OP(a, b, ...)
    Def def;
    def.name = strip(line.substr(0, equals));
    def.line = line_no;
    const std::string_view rhs = strip(line.substr(equals + 1));
    const auto rp = rhs.find('(');
    if (def.name.empty() || rp == npos || rhs.back() != ')') {
      parse_error(line_no, "malformed assignment");
    }
    def.op = strip(rhs.substr(0, rp));
    def.first_arg = args.size();
    // Split as std::getline(',') does: an empty piece after the last comma
    // is no operand, any other empty piece is an error.
    std::string_view list = rhs.substr(rp + 1, rhs.size() - rp - 2);
    while (!list.empty()) {
      const auto comma = list.find(',');
      const std::string_view arg = strip(list.substr(0, comma));
      if (arg.empty()) parse_error(line_no, "empty operand");
      args.push_back(arg);
      list = comma == npos ? std::string_view() : list.substr(comma + 1);
    }
    def.num_args = args.size() - def.first_arg;
    if (def.num_args == 0) parse_error(line_no, "operator with no operands");
    if (def.num_args > kMaxBenchFanin) {
      parse_error(line_no, "operator with " + std::to_string(def.num_args) +
                               " operands exceeds the fan-in cap of " +
                               std::to_string(kMaxBenchFanin));
    }
    defs.push_back(def);
  }

  return builder.build(defs, args, outputs);
}

/// The .bench operator of a kind: its library name without the arity digits
/// ("NOT", "BUFF", "NAND" for NAND2-4), or empty for kinds the format lacks.
std::string_view bench_op(CellKind kind) {
  if (kind == CellKind::kAoi21 || kind == CellKind::kOai21 ||
      kind == CellKind::kMux2) {
    return {};
  }
  const std::string_view name = to_string(kind);
  return name.substr(0, name.find_last_not_of("0123456789") + 1);
}

}  // namespace

Circuit read_bench(std::istream& in, const std::string& circuit_name) {
  std::ostringstream text;
  if (in) text << in.rdbuf();
  return read_bench_impl(std::move(text).str(), circuit_name);
}

Circuit read_bench_string(const std::string& text,
                          const std::string& circuit_name) {
  return read_bench_impl(text, circuit_name);
}

Circuit read_bench_file(const std::string& path) {
  std::ifstream in(path);
  STATLEAK_CHECK(in.good(), "cannot open bench file: " + path);
  std::string_view name = path;
  name.remove_prefix(name.find_last_of('/') + 1);  // npos + 1 wraps to 0
  return read_bench(in, std::string(name.substr(0, name.find_last_of('.'))));
}

void write_bench(std::ostream& out, const Circuit& circuit) {
  STATLEAK_CHECK(circuit.finalized(),
                 "write_bench requires a finalized circuit");
  out << "# " << circuit.name() << " — written by statleak\n";
  for (GateId id : circuit.inputs()) {
    out << "INPUT(" << circuit.gate(id).name << ")\n";
  }
  for (GateId id : circuit.outputs()) {
    out << "OUTPUT(" << circuit.gate(id).name << ")\n";
  }
  for (GateId id : circuit.topo_order()) {
    const Gate g = circuit.gate(id);
    if (g.kind == CellKind::kInput) continue;
    const auto pin = [&](std::size_t p) {
      return circuit.gate(g.fanins[p]).name;
    };
    const std::string_view op = bench_op(g.kind);
    if (!op.empty()) {
      out << g.name << " = " << op << '(';
      for (std::size_t p = 0; p < g.fanins.size(); ++p) {
        out << (p ? ", " : "") << pin(p);
      }
      out << ")\n";
      continue;
    }
    // Kinds the format lacks are decomposed into native operators using
    // "__w"-suffixed helper nets (round-trips to equivalent logic, with a
    // different cell count).
    switch (g.kind) {
      case CellKind::kAoi21:  // !((a & b) | c)
        out << g.name << "__w = AND(" << pin(0) << ", " << pin(1) << ")\n"
            << g.name << " = NOR(" << g.name << "__w, " << pin(2) << ")\n";
        break;
      case CellKind::kOai21:  // !((a | b) & c)
        out << g.name << "__w = OR(" << pin(0) << ", " << pin(1) << ")\n"
            << g.name << " = NAND(" << g.name << "__w, " << pin(2) << ")\n";
        break;
      case CellKind::kMux2:  // sel ? b : a
        out << g.name << "__wn = NOT(" << pin(2) << ")\n"
            << g.name << "__w0 = AND(" << pin(0) << ", " << g.name
            << "__wn)\n"
            << g.name << "__w1 = AND(" << pin(1) << ", " << pin(2) << ")\n"
            << g.name << " = OR(" << g.name << "__w0, " << g.name
            << "__w1)\n";
        break;
      default:
        STATLEAK_CHECK(false, "cell kind " + std::string(to_string(g.kind)) +
                                  " is not expressible in .bench");
    }
  }
}

std::string write_bench_string(const Circuit& circuit) {
  std::ostringstream os;
  write_bench(os, circuit);
  return os.str();
}

}  // namespace statleak
