/// \file bench_ext_spatial.cpp
/// \brief E1 — extension experiment: grid-based spatial intra-die
///        correlation (the paper's named follow-on direction).
///
/// Same marginal variation, different correlation structure: part of each
/// gate's intra-die (dL, dVth) is shared within a placement grid region.
/// Two questions, each answered against a spatial Monte-Carlo reference:
///   1. How wrong is the flat (independent-intra) analysis on spatially
///      correlated silicon? (It underestimates both delay and leakage
///      spread.)
///   2. Does the vector-canonical spatial SSTA / region-aware Wilkinson sum
///      recover the reference?

#include <iostream>

#include "bench_util.hpp"
#include "gen/proxy.hpp"
#include "leakage/leakage.hpp"
#include "spatial/spatial_analysis.hpp"
#include "spatial/spatial_ssta.hpp"
#include "ssta/flat_incremental.hpp"
#include "util/table.hpp"

int main() {
  using namespace statleak;
  bench::Setup setup;
  bench::print_header("E1",
                      "spatial intra-die correlation: flat vs spatial "
                      "analysis vs spatial MC (grid 4x4, 50 % of L-intra and "
                      "25 % of Vth-intra variance region-shared)");

  SpatialVariationModel model;
  model.base = setup.var;
  model.grid = 4;
  model.region_fraction_l = 0.5;
  model.region_fraction_v = 0.25;

  Table delay({"circuit", "MC sigma(D) [ps]", "flat sigma [ps]",
               "spatial sigma [ps]", "flat err%", "spatial err%"});
  Table leak({"circuit", "MC p99(L) [uA]", "flat p99 [uA]",
              "spatial p99 [uA]", "flat err%", "spatial err%"});

  for (const std::string name : {"c432p", "c880p", "c1908p", "c3540p"}) {
    const Circuit c = iscas85_proxy(name);
    const auto placement = make_topological_placement(c, 11);

    McConfig mc;
    mc.num_samples = 4000;
    mc.seed = 99;
    const McResult res =
        run_monte_carlo_spatial(c, setup.lib, model, placement, mc);
    const SampleSummary sd = res.delay_summary();
    const double mc_p99 = quantile(res.leakage_na, 0.99);

    const double flat_sigma =
        FlatSstaEngine(c, setup.lib, model.base).circuit_delay().sigma();
    const double spatial_sigma =
        SpatialSstaEngine(c, setup.lib, model, placement)
            .circuit_delay()
            .sigma();
    delay.begin_row();
    delay.add(name);
    delay.add(sd.stddev, 1);
    delay.add(flat_sigma, 1);
    delay.add(spatial_sigma, 1);
    delay.add(100.0 * (flat_sigma - sd.stddev) / sd.stddev, 1);
    delay.add(100.0 * (spatial_sigma - sd.stddev) / sd.stddev, 1);

    const double flat_p99 =
        LeakageAnalyzer(c, setup.lib, model.base).quantile_na(0.99);
    const double spatial_p99 =
        spatial_leakage_distribution(c, setup.lib, model, placement)
            .quantile_na(0.99);
    leak.begin_row();
    leak.add(name);
    leak.add(mc_p99 / 1000.0, 2);
    leak.add(flat_p99 / 1000.0, 2);
    leak.add(spatial_p99 / 1000.0, 2);
    leak.add(100.0 * (flat_p99 - mc_p99) / mc_p99, 1);
    leak.add(100.0 * (spatial_p99 - mc_p99) / mc_p99, 1);
  }

  std::cout << "delay spread:\n";
  delay.print(std::cout);
  std::cout << "\nleakage tail:\n";
  leak.print(std::cout);
  std::cout << "\nshape check: the flat engine underestimates both spreads "
               "on spatially correlated silicon; the spatial engines track "
               "MC within a few percent.\n";
  return 0;
}
