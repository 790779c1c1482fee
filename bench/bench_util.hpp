/// \file bench_util.hpp
/// \brief Shared scaffolding for the experiment-regeneration binaries.
///
/// Every bench binary prints a header naming the experiment it reproduces
/// ([reconstructed] — see DESIGN.md for the provenance note) followed by an
/// aligned table whose rows are pasteable into EXPERIMENTS.md.

#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "cells/library.hpp"
#include "tech/process.hpp"
#include "tech/variation.hpp"

namespace statleak::bench {

/// The default experimental setup shared by every experiment: generic
/// 100 nm dual-Vth node with the typical variation model.
struct Setup {
  ProcessNode node = generic_100nm();
  CellLibrary lib{node};
  VariationModel var = VariationModel::typical_100nm();
};

inline void print_header(const std::string& experiment_id,
                         const std::string& description) {
  std::cout << "\n=== " << experiment_id << " [reconstructed] — "
            << description << " ===\n"
            << "    (Srivastava/Sylvester/Blaauw, DAC 2004 reproduction; "
               "generic-100nm node)\n\n";
}

/// The CPU model string of /proc/cpuinfo, or "unknown" off Linux.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

}  // namespace statleak::bench
