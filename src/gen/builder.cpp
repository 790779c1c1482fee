#include "gen/builder.hpp"

#include "util/error.hpp"

namespace statleak {

std::vector<GateId> NetBuilder::inputs(const std::string& base, int count) {
  STATLEAK_CHECK(count > 0, "need at least one input");
  std::vector<GateId> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ids.push_back(circuit_.add_input(base + std::to_string(i)));
  }
  return ids;
}

GateId NetBuilder::input(const std::string& name) {
  return circuit_.add_input(name);
}

void NetBuilder::outputs(const std::vector<GateId>& ids) {
  for (GateId id : ids) circuit_.mark_output(id);
}

void NetBuilder::output(GateId id) { circuit_.mark_output(id); }

void NetBuilder::push_scope(const std::string& scope) {
  scopes_.push_back(scope);
}

void NetBuilder::pop_scope() {
  STATLEAK_CHECK(!scopes_.empty(), "scope stack underflow");
  scopes_.pop_back();
}

std::string NetBuilder::next_name(CellKind kind) {
  std::string name;
  for (const auto& s : scopes_) {
    name += s;
    name += '/';
  }
  name += to_string(kind);
  name += '_';
  name += std::to_string(counter_++);
  return name;
}

GateId NetBuilder::make(CellKind kind, std::vector<GateId> fanins) {
  return circuit_.add_gate(next_name(kind), kind, fanins);
}

GateId NetBuilder::and_tree(std::vector<GateId> terms) {
  STATLEAK_CHECK(!terms.empty(), "and_tree of nothing");
  while (terms.size() > 1) {
    std::vector<GateId> next;
    std::size_t i = 0;
    while (i < terms.size()) {
      const std::size_t left = terms.size() - i;
      if (left == 3) {
        next.push_back(and3(terms[i], terms[i + 1], terms[i + 2]));
        i += 3;
      } else if (left >= 2) {
        next.push_back(and2(terms[i], terms[i + 1]));
        i += 2;
      } else {
        next.push_back(terms[i]);
        i += 1;
      }
    }
    terms = std::move(next);
  }
  return terms[0];
}

GateId NetBuilder::or_tree(std::vector<GateId> terms) {
  STATLEAK_CHECK(!terms.empty(), "or_tree of nothing");
  while (terms.size() > 1) {
    std::vector<GateId> next;
    std::size_t i = 0;
    while (i < terms.size()) {
      const std::size_t left = terms.size() - i;
      if (left == 3) {
        next.push_back(or3(terms[i], terms[i + 1], terms[i + 2]));
        i += 3;
      } else if (left >= 2) {
        next.push_back(or2(terms[i], terms[i + 1]));
        i += 2;
      } else {
        next.push_back(terms[i]);
        i += 1;
      }
    }
    terms = std::move(next);
  }
  return terms[0];
}

GateId NetBuilder::xor_tree(std::vector<GateId> terms) {
  STATLEAK_CHECK(!terms.empty(), "xor_tree of nothing");
  while (terms.size() > 1) {
    std::vector<GateId> next;
    for (std::size_t i = 0; i < terms.size(); i += 2) {
      if (i + 1 < terms.size()) {
        next.push_back(xor2(terms[i], terms[i + 1]));
      } else {
        next.push_back(terms[i]);
      }
    }
    terms = std::move(next);
  }
  return terms[0];
}

Circuit NetBuilder::finish() {
  circuit_.finalize();
  Circuit out = std::move(circuit_);
  circuit_ = Circuit();
  scopes_.clear();
  counter_ = 0;
  return out;
}

}  // namespace statleak
