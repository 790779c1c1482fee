/// \file bench_opt_throughput.cpp
/// \brief P1 — statistical-optimizer throughput.
///
/// Runs the statistical optimizer (flat-SoA SSTA engine with candidate-
/// batched move pricing) per circuit and reports wall-clock seconds and
/// optimizer loop iterations per second ("moves/s": each iteration prices
/// every legal candidate and commits or rejects one move). Before any
/// number is reported, c880p must reproduce the trajectory recorded in
/// BENCH_opt.json (482 iterations, 416 commits), so a throughput change is
/// never silent algorithmic drift.
///
/// Circuits: the two largest ISCAS85-class proxies plus the gen/scaling.hpp
/// series (10k/30k/100k/200k gates). The scaling members run with a reduced
/// iteration cap so each run finishes in seconds; throughput is
/// per-iteration, so the cap does not distort it.
///
/// Repetition protocol: the ISCAS proxies are cheap enough to run three
/// back-to-back repetitions; each circuit reports its MINIMUM wall time, the
/// standard estimator of the noise floor on a shared machine (run-to-run
/// scheduler jitter only ever adds time). The scaling members run once —
/// their multi-second runtimes average the jitter out.
///
/// Output: one JSON document on stdout (machine format for
/// tools/bench_to_json.py --opt), with the host's CPU model and vCPU count.
/// Human summary on stderr. Single-threaded
/// by design — the thread dimension is covered by the invariance tests;
/// throughput here isolates the layout.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "gen/proxy.hpp"
#include "gen/scaling.hpp"
#include "opt/statistical.hpp"
#include "report/flow.hpp"
#include "sta/sta.hpp"
#include "util/error.hpp"

namespace {

using namespace statleak;

struct CircuitSpec {
  std::string name;
  bool scaling = false;  ///< gen/scaling member vs ISCAS proxy
  /// Iteration cap as a multiple of the cell count; the scaling members are
  /// capped low so each run stays bounded.
  double max_iterations_factor = 24.0;
  int reps = 1;  ///< back-to-back repetitions; min wall time reported
};

struct Entry {
  std::string circuit;
  std::size_t num_cells = 0;
  double seconds = 0.0;
  int iterations = 0;
  int commits = 0;
  double moves_per_second = 0.0;
};

Entry run_one(const Circuit& proto, const bench::Setup& setup,
              const CircuitSpec& spec, double t_max_ps) {
  Circuit c = proto;  // each run starts from the same implementation point
  OptConfig cfg;
  cfg.t_max_ps = t_max_ps;
  cfg.max_iterations_factor = spec.max_iterations_factor;
  cfg.num_threads = 1;

  const auto start = std::chrono::steady_clock::now();
  const OptResult result =
      StatisticalOptimizer(setup.lib, setup.var, cfg).run(c);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  Entry e;
  e.circuit = spec.name;
  e.num_cells = c.num_cells();
  e.seconds = elapsed.count();
  e.iterations = result.iterations;
  e.commits =
      result.sizing_commits + result.hvt_commits + result.downsize_commits;
  e.moves_per_second =
      e.seconds > 0.0 ? static_cast<double>(e.iterations) / e.seconds : 0.0;
  std::cerr << "  " << e.circuit << ": " << e.seconds
            << " s, " << e.iterations << " iterations ("
            << e.moves_per_second << " moves/s), objective "
            << result.final_objective << "\n";
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace statleak;
  bench::Setup setup;

  std::vector<CircuitSpec> specs;
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const bool scaling = !name.empty() && name[0] == 's';
    specs.push_back({name, scaling, scaling ? 0.002 : 24.0, scaling ? 1 : 3});
  }
  if (specs.empty()) {
    specs = {{"c880p", false, 24.0, 3},
             {"c7552p", false, 24.0, 3},
             {"s10k", true, 0.01, 1},
             {"s30k", true, 0.004, 1},
             {"s100k", true, 0.002, 1},
             {"s200k", true, 0.002, 1}};
  }

  std::vector<Entry> entries;
  for (const CircuitSpec& spec : specs) {
    const Circuit proto =
        spec.scaling ? scaling_circuit(spec.name) : iscas85_proxy(spec.name);
    // ISCAS proxies target 1.40x the min-achievable delay: the relaxed-
    // constraint operating point where the paper's dual-Vth assignment does
    // its real work (thousands of HVT swaps across the slack distribution)
    // rather than fighting an infeasibility wall; tighter factors spend the
    // run in rejected moves, looser ones saturate to all-HVT in a few
    // sweeps. The scaling members use a plain-STA target instead:
    // min_achievable_delay_ps runs the deterministic sizer to exhaustion,
    // which is O(gates^2 * size steps) and takes tens of minutes at 10^5
    // gates — setup cost that would dwarf the measurement. A target
    // slightly under the default-implementation critical delay exercises
    // the same sizing + assignment schedule.
    const double t_max =
        spec.scaling
            ? 0.92 * StaEngine(proto, setup.lib).critical_delay_ps()
            : 1.40 * min_achievable_delay_ps(proto, setup.lib);
    std::cerr << spec.name << " (" << proto.num_cells() << " cells, t_max "
              << t_max << " ps):\n";

    Entry best;
    for (int rep = 0; rep < spec.reps; ++rep) {
      const Entry e = run_one(proto, setup, spec, t_max);
      if (rep == 0 || e.seconds < best.seconds) best = e;
    }
    // The c880p trajectory recorded in BENCH_opt.json: a mismatch means the
    // optimizer's behaviour changed and the timings are not comparable.
    STATLEAK_CHECK(spec.name != "c880p" ||
                       (best.iterations == 482 && best.commits == 416),
                   "c880p trajectory diverged from BENCH_opt.json (482 "
                   "iterations, 416 commits) — throughput would be "
                   "meaningless");
    entries.push_back(best);
  }

  // Machine output: a single JSON document on stdout.
  std::printf("{\n");
  std::printf("  \"bench\": \"opt_throughput\",\n");
#ifdef NDEBUG
  std::printf("  \"build_type\": \"release\",\n");
#else
  std::printf("  \"build_type\": \"debug\",\n");
#endif
  std::printf("  \"threads\": 1,\n");
  std::printf("  \"cpu_model\": \"%s\",\n", bench::cpu_model().c_str());
  std::printf("  \"vcpus\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::printf("    {\"circuit\": \"%s\", \"engine\": \"flat\", "
                "\"num_cells\": %zu, \"seconds\": %.17g, "
                "\"iterations\": %d, \"commits\": %d, "
                "\"moves_per_second\": %.17g}%s\n",
                e.circuit.c_str(), e.num_cells, e.seconds,
                e.iterations, e.commits, e.moves_per_second,
                i + 1 < entries.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
