// A circuit whose GateIds sit far from their topo ranks, for the engines
// that index their arrays by rank and speak GateIds only at their API.
//
// A random DAG is written to .bench with its definition lines shuffled, then
// read back: the reader resolves forward references, so ids follow the
// shuffled file order while Kahn's order, and with it every rank, follows
// the graph. An id/rank mix-up that the generators' circuits hide (their
// ids nearly equal their ranks) shows on this one.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/random_dag.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/circuit.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace statleak {

/// Mean |id - rank| over the gates of a finalized circuit.
inline std::size_t mean_id_rank_displacement(const Circuit& c) {
  const auto topo = c.topo_order();
  std::size_t displacement = 0;
  for (std::size_t r = 0; r < topo.size(); ++r) {
    displacement += static_cast<std::size_t>(
        std::abs(static_cast<long>(topo[r]) - static_cast<long>(r)));
  }
  return displacement / topo.size();
}

/// A 600-gate random DAG (24 inputs, 12 outputs) read back from a .bench
/// text with shuffled definitions. Throws unless the mean |id - rank| is
/// above 50.
inline Circuit permuted_circuit() {
  RandomDagSpec spec;
  spec.num_inputs = 24;
  spec.num_gates = 600;
  spec.num_outputs = 12;
  spec.seed = 71;
  const std::string written = write_bench_string(make_random_dag(spec));
  std::vector<std::string_view> head;
  std::vector<std::string_view> defs;
  std::string_view rest = written;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
    (line.find('=') == std::string_view::npos ? head : defs).push_back(line);
  }
  Rng shuffle(71);
  for (std::size_t i = defs.size(); i > 1; --i) {
    std::swap(defs[i - 1], defs[shuffle.uniform_index(i)]);
  }
  std::string text;
  for (const auto& lines : {head, defs}) {
    for (std::string_view line : lines) text.append(line).append("\n");
  }
  Circuit c = read_bench_string(text, "permuted");
  STATLEAK_CHECK(mean_id_rank_displacement(c) > 50, "ids track topo ranks");
  return c;
}

}  // namespace statleak
