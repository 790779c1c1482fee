/// \file bench_ablation.cpp
/// \brief A1 — ablations of the design choices DESIGN.md calls out.
///
/// (a) Correlated Wilkinson sum vs independent-sum leakage: how much of the
///     tail comes from inter-die correlation.
/// (b) Clark MAX vs max-of-means SSTA: what moment-matched MAX buys.
/// (c) Oracle-calibrated auto-corner baseline vs fixed 3-sigma: how much of
///     the headline saving is really "the deterministic flow guard-bands
///     too hard" vs "statistical move pricing".
/// (d) Quadratic leakage exponent on/off: sensitivity of the distribution
///     to the second-order channel-length term.

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "gen/proxy.hpp"
#include "opt/statistical.hpp"
#include "leakage/leakage.hpp"
#include "mc/monte_carlo.hpp"
#include "report/flow.hpp"
#include "ssta/flat_incremental.hpp"
#include "util/table.hpp"

namespace {

using namespace statleak;

void ablation_wilkinson(const bench::Setup& setup) {
  std::cout << "--- (a) correlated Wilkinson vs independent lognormal sum "
               "---\n";
  Table table({"circuit", "MC p99 [uA]", "Wilkinson p99 [uA]",
               "indep-sum p99 [uA]", "Wilkinson err%", "indep err%"});
  for (const std::string name : {"c432p", "c880p", "c1908p"}) {
    const Circuit c = iscas85_proxy(name);
    const LeakageAnalyzer an(c, setup.lib, setup.var);
    const LeakageDistribution full = an.distribution();

    // Independent-sum variant: same per-gate moments, no cross covariance.
    const LeakageModel model(setup.lib, setup.var);
    double mean = 0.0;
    double var_sum = 0.0;
    for (GateId id = 0; id < c.num_gates(); ++id) {
      const Gate& g = c.gate(id);
      if (g.kind == CellKind::kInput) continue;
      const GateLeakMoments m = model.gate_moments(g.kind, g.vth, g.size);
      mean += m.mean_na;
      var_sum += m.var_na2;
    }
    const Lognormal indep = Lognormal::from_moments(mean, var_sum);

    McConfig mc;
    mc.num_samples = 4000;
    mc.seed = 81;
    const McResult res = run_monte_carlo(c, setup.lib, setup.var, mc);
    const double mc_p99 = res.leakage_quantile_na(0.99);

    table.begin_row();
    table.add(name);
    table.add(mc_p99 / 1000.0, 2);
    table.add(full.quantile_na(0.99) / 1000.0, 2);
    table.add(indep.quantile(0.99) / 1000.0, 2);
    table.add(100.0 * (full.quantile_na(0.99) - mc_p99) / mc_p99, 1);
    table.add(100.0 * (indep.quantile(0.99) - mc_p99) / mc_p99, 1);
  }
  table.print(std::cout);
  std::cout << "takeaway: dropping inter-die correlation underestimates the "
               "p99 tail badly — the correlated sum is load-bearing.\n\n";
}

void ablation_clark(const bench::Setup& setup) {
  std::cout << "--- (b) Clark MAX vs max-of-means SSTA ---\n";
  Table table({"circuit", "MC delay mean [ps]", "Clark mean [ps]",
               "max-of-means [ps]", "Clark err%", "naive err%"});
  for (const std::string name : {"c432p", "c880p", "c1908p"}) {
    const Circuit c = iscas85_proxy(name);
    const FlatSstaEngine ssta(c, setup.lib, setup.var);
    const Canonical clark = ssta.circuit_delay();

    // Max-of-means variant: deterministic arrival of means, per-gate sigma
    // accumulated along the mean-critical path only (the classic
    // corner-style underestimate of the MAX mean shift).
    std::vector<double> arr(c.num_gates(), 0.0);
    for (GateId id : c.topo_order()) {
      double in = 0.0;
      for (GateId f : c.gate(id).fanins) in = std::max(in, arr[f]);
      arr[id] = in + ssta.gate_delay(id).mean;
    }
    double naive_mean = 0.0;
    for (GateId out : c.outputs()) naive_mean = std::max(naive_mean, arr[out]);

    McConfig mc;
    mc.num_samples = 4000;
    mc.seed = 82;
    const McResult res = run_monte_carlo(c, setup.lib, setup.var, mc);
    const double mc_mean = res.delay_summary().mean;

    table.begin_row();
    table.add(name);
    table.add(mc_mean, 1);
    table.add(clark.mean, 1);
    table.add(naive_mean, 1);
    table.add(100.0 * (clark.mean - mc_mean) / mc_mean, 2);
    table.add(100.0 * (naive_mean - mc_mean) / mc_mean, 2);
  }
  table.print(std::cout);
  std::cout << "takeaway: ignoring the MAX mean shift biases delay low; "
               "Clark's moment matching removes most of that bias.\n\n";
}

void ablation_corner(const bench::Setup& setup) {
  std::cout << "--- (c) how strong can the deterministic baseline get? ---\n";
  Table table({"circuit", "saving vs det@3sigma %",
               "saving vs auto-corner %", "auto corner k"});
  for (const std::string name : {"c432p", "c880p"}) {
    Circuit c1 = iscas85_proxy(name);
    FlowConfig fixed;
    fixed.det_corner_k = 3.0;
    const FlowOutcome out_fixed = run_flow(c1, setup.lib, setup.var, fixed);

    Circuit c2 = iscas85_proxy(name);
    FlowConfig autoc;
    autoc.det_auto_corner = true;
    const FlowOutcome out_auto = run_flow(c2, setup.lib, setup.var, autoc);

    table.begin_row();
    table.add(name);
    table.add(100.0 * out_fixed.p99_saving(), 1);
    table.add(100.0 * out_auto.p99_saving(), 1);
    table.add(out_auto.det_corner_k, 1);
  }
  table.print(std::cout);
  std::cout << "takeaway: an SSTA-calibrated corner (information the "
               "deterministic flow does not have in practice) recovers most "
               "of the gap — the statistical gain is largely about pricing "
               "per-path margin correctly, which the oracle corner "
               "approximates globally.\n\n";
}

void ablation_quadratic(const bench::Setup& setup) {
  std::cout << "--- (d) quadratic channel-length leakage exponent ---\n";
  ProcessNode node_q = setup.node;
  node_q.leak_quadratic_per_nm2 = 0.01;
  const CellLibrary lib_q(node_q);

  Table table({"circuit", "linear p99 [uA]", "quadratic p99 [uA]",
               "tail inflation %"});
  for (const std::string name : {"c432p", "c880p"}) {
    const Circuit c = iscas85_proxy(name);
    const double lin =
        LeakageAnalyzer(c, setup.lib, setup.var).quantile_na(0.99);
    const double quad = LeakageAnalyzer(c, lib_q, setup.var).quantile_na(0.99);
    table.begin_row();
    table.add(name);
    table.add(lin / 1000.0, 2);
    table.add(quad / 1000.0, 2);
    table.add(100.0 * (quad - lin) / lin, 1);
  }
  table.print(std::cout);
  std::cout << "takeaway: the second-order term fattens the leakage tail; "
               "the moment-corrected model absorbs it without re-deriving "
               "the flow.\n";
}

void ablation_vth_offset(const bench::Setup& setup) {
  std::cout << "\n--- (e) dual-Vth offset: how far apart should the two "
               "thresholds sit? ---\n";
  // Sweep the HVT offset at fixed LVT; rebuild the library each time and
  // run the statistical flow on c880p at T = 1.15 x Dmin.
  Table table({"HVT - LVT [mV]", "HVT/LVT leak ratio", "stat p99 [uA]",
               "HVT %", "feasible"});
  for (double offset_mv : {60.0, 90.0, 120.0, 180.0, 240.0}) {
    ProcessNode node = setup.node;
    node.vth_high = node.vth_low + offset_mv / 1000.0;
    node.validate();
    const CellLibrary lib(node);

    Circuit c = iscas85_proxy("c880p");
    OptConfig cfg;
    cfg.t_max_ps = 1.15 * min_achievable_delay_ps(c, lib);
    cfg.yield_target = 0.99;
    const OptResult r = StatisticalOptimizer(lib, setup.var, cfg).run(c);
    const double ratio = lib.leakage_na(CellKind::kInv, Vth::kLow, 1.0) /
                         lib.leakage_na(CellKind::kInv, Vth::kHigh, 1.0);
    const LeakageAnalyzer leak(c, lib, setup.var);
    table.begin_row();
    table.add(offset_mv, 0);
    table.add(ratio, 1);
    table.add(leak.quantile_na(0.99) / 1000.0, 2);
    table.add(100.0 * static_cast<double>(c.count_hvt()) /
                  static_cast<double>(c.num_cells()),
              1);
    table.add(r.feasible ? "yes" : "no");
  }
  table.print(std::cout);
  std::cout << "takeaway: larger offsets leak less per HVT cell but price "
               "fewer cells into HVT on critical structures; the optimum "
               "sits at a moderate offset, which is why real dual-Vth "
               "libraries use ~100-150 mV.\n";
}

}  // namespace

int main() {
  bench::Setup setup;
  bench::print_header("A1", "design-choice ablations");
  ablation_wilkinson(setup);
  ablation_clark(setup);
  ablation_corner(setup);
  ablation_quadratic(setup);
  ablation_vth_offset(setup);
  return 0;
}
