// Line-by-line .bench reader oracle: the reference the single-pass reader in
// src/netlist/bench_io.cpp is pinned against (BenchReaderDifferential.*).
//
// One std::getline per line, a std::string copy and upper() per token, one
// std::stringstream per operand list, and a name -> id map of its own next to
// Circuit's. Slow, but every accepted input, every rejection and every error
// text of the .bench grammar is defined by what this reader does: the
// production reader must build the same Circuit (ids, names, kinds, fanins,
// outputs, fanout order) or throw the same what().

#pragma once

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netlist/circuit.hpp"
#include "util/error.hpp"

namespace statleak::oracle {

namespace bench_detail {

inline std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

inline std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] inline void parse_error(int line, const std::string& msg) {
  throw Error("bench parse error at line " + std::to_string(line) + ": " +
              msg);
}

inline constexpr std::size_t kMaxBenchFanin = 1024;

struct Def {
  std::string name;
  std::string op;
  std::vector<std::string> args;
  int line = 0;
};

/// Turns parsed defs into gates, decomposing operators wider than the
/// library's native fanin into balanced trees.
class Builder {
 public:
  explicit Builder(const std::string& name) : circuit_(name) {}

  void add_input(const std::string& name) {
    ids_[name] = circuit_.add_input(name);
  }

  Circuit build(const std::vector<Def>& defs,
                const std::vector<std::string>& output_names) {
    for (const Def& def : defs) create(def);
    resolve_patches();
    for (const std::string& out : output_names) {
      const auto it = ids_.find(out);
      if (it == ids_.end()) {
        throw Error("bench: OUTPUT(" + out + ") is never defined");
      }
      circuit_.mark_output(it->second);
    }
    circuit_.finalize();
    return std::move(circuit_);
  }

 private:
  void create(const Def& def) {
    const std::string& op = def.op;
    const int arity = static_cast<int>(def.args.size());
    const auto exact = [&](int want) {
      if (arity != want) {
        parse_error(def.line,
                    op + " takes exactly " + std::to_string(want) + " input");
      }
    };
    const auto at_least = [&](int want) {
      if (arity < want) {
        parse_error(def.line, op + " needs at least " + std::to_string(want) +
                                  " inputs");
      }
    };

    if (op == "NOT" || op == "INV") {
      exact(1);
      make_gate(def.name, CellKind::kInv, def.args);
    } else if (op == "BUF" || op == "BUFF") {
      exact(1);
      make_gate(def.name, CellKind::kBuf, def.args);
    } else if (op == "NAND" || op == "NOR") {
      at_least(2);
      make_negated_reduction(def, op == "NAND");
    } else if (op == "AND" || op == "OR") {
      at_least(2);
      make_reduction(def, op == "AND");
    } else if (op == "XOR" || op == "XNOR") {
      at_least(2);
      make_xor_chain(def, op == "XNOR");
    } else if (op == "DFF") {
      parse_error(def.line,
                  "sequential element DFF not supported "
                  "(combinational circuits only)");
    } else {
      parse_error(def.line, "unknown operator '" + op + "'");
    }
  }

  void make_reduction(const Def& def, bool is_and) {
    const CellKind two = is_and ? CellKind::kAnd2 : CellKind::kOr2;
    const CellKind three = is_and ? CellKind::kAnd3 : CellKind::kOr3;
    std::vector<std::string> args = reduce_to(def, def.args, 3, two);
    make_gate(def.name, args.size() == 2 ? two : three, args);
  }

  void make_negated_reduction(const Def& def, bool is_nand) {
    const CellKind pre = is_nand ? CellKind::kAnd2 : CellKind::kOr2;
    std::vector<std::string> args = reduce_to(def, def.args, 4, pre);
    CellKind final_kind;
    switch (args.size()) {
      case 2:
        final_kind = is_nand ? CellKind::kNand2 : CellKind::kNor2;
        break;
      case 3:
        final_kind = is_nand ? CellKind::kNand3 : CellKind::kNor3;
        break;
      default:
        final_kind = is_nand ? CellKind::kNand4 : CellKind::kNor4;
        break;
    }
    make_gate(def.name, final_kind, args);
  }

  void make_xor_chain(const Def& def, bool negate_last) {
    std::vector<std::string> args = def.args;
    while (args.size() > 2) {
      const std::string t = temp_name(def.name);
      make_gate(t, CellKind::kXor2, {args[0], args[1]});
      args.erase(args.begin(), args.begin() + 2);
      args.insert(args.begin(), t);
    }
    make_gate(def.name, negate_last ? CellKind::kXnor2 : CellKind::kXor2,
              args);
  }

  std::vector<std::string> reduce_to(const Def& def,
                                     std::vector<std::string> args,
                                     std::size_t max_operands, CellKind two) {
    while (args.size() > max_operands) {
      std::vector<std::string> next;
      for (std::size_t i = 0; i < args.size(); i += 2) {
        if (i + 1 < args.size()) {
          const std::string t = temp_name(def.name);
          make_gate(t, two, {args[i], args[i + 1]});
          next.push_back(t);
        } else {
          next.push_back(args[i]);
        }
      }
      args = std::move(next);
    }
    return args;
  }

  std::string temp_name(const std::string& base) {
    return base + "__t" + std::to_string(temp_counter_++);
  }

  void make_gate(const std::string& name, CellKind kind,
                 const std::vector<std::string>& arg_names) {
    const GateId id = circuit_.add_gate(
        name, kind, std::vector<GateId>(arg_names.size(), kInvalidGate));
    ids_[name] = id;
    for (std::size_t pin = 0; pin < arg_names.size(); ++pin) {
      patches_.push_back({id, pin, arg_names[pin]});
    }
  }

  void resolve_patches() {
    for (const auto& [gate_id, pin, src_name] : patches_) {
      const auto it = ids_.find(src_name);
      if (it == ids_.end()) {
        throw Error("bench: gate references undefined signal '" + src_name +
                    "'");
      }
      circuit_.patch_fanin(gate_id, pin, it->second);
    }
    patches_.clear();
  }

  Circuit circuit_;
  std::unordered_map<std::string, GateId> ids_;
  std::vector<std::tuple<GateId, std::size_t, std::string>> patches_;
  int temp_counter_ = 0;
};

}  // namespace bench_detail

/// Reference .bench reader over a stream, one std::getline per line.
inline Circuit read_bench(std::istream& in, const std::string& circuit_name) {
  using namespace bench_detail;
  Builder builder(circuit_name);
  std::vector<Def> defs;
  std::vector<std::string> output_names;
  std::set<std::string> seen_outputs;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = strip(raw);
    if (line.empty()) continue;

    const auto lparen = line.find('(');
    const auto equals = line.find('=');
    if (equals == std::string::npos) {
      if (lparen == std::string::npos || line.back() != ')') {
        parse_error(line_no, "expected INPUT(...), OUTPUT(...) or assignment");
      }
      const std::string head = upper(strip(line.substr(0, lparen)));
      const std::string arg =
          strip(line.substr(lparen + 1, line.size() - lparen - 2));
      if (arg.empty()) parse_error(line_no, "empty signal name");
      if (head == "INPUT") {
        builder.add_input(arg);
      } else if (head == "OUTPUT") {
        if (!seen_outputs.insert(arg).second) {
          parse_error(line_no, "duplicate OUTPUT(" + arg + ")");
        }
        output_names.push_back(arg);
      } else {
        parse_error(line_no, "unknown directive '" + head + "'");
      }
      continue;
    }

    Def def;
    def.name = strip(line.substr(0, equals));
    def.line = line_no;
    const std::string rhs = strip(line.substr(equals + 1));
    const auto rp = rhs.find('(');
    if (def.name.empty() || rp == std::string::npos || rhs.back() != ')') {
      parse_error(line_no, "malformed assignment");
    }
    def.op = upper(strip(rhs.substr(0, rp)));
    const std::string args = rhs.substr(rp + 1, rhs.size() - rp - 2);
    std::stringstream as(args);
    std::string tok;
    while (std::getline(as, tok, ',')) {
      const std::string arg = strip(tok);
      if (arg.empty()) parse_error(line_no, "empty operand");
      def.args.push_back(arg);
    }
    if (def.args.empty()) parse_error(line_no, "operator with no operands");
    if (def.args.size() > kMaxBenchFanin) {
      parse_error(line_no, "operator with " + std::to_string(def.args.size()) +
                               " operands exceeds the fan-in cap of " +
                               std::to_string(kMaxBenchFanin));
    }
    defs.push_back(std::move(def));
  }

  return builder.build(defs, output_names);
}

inline Circuit read_bench_string(const std::string& text,
                                 const std::string& circuit_name) {
  std::istringstream in(text);
  return read_bench(in, circuit_name);
}

}  // namespace statleak::oracle
