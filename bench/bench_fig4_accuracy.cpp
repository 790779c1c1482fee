/// \file bench_fig4_accuracy.cpp
/// \brief F4 — accuracy of the analytic engines vs Monte Carlo (paper
///        figure/table class: SSTA and lognormal-sum validation).
///
/// For every proxy circuit (min-size all-LVT implementation): SSTA delay
/// mean/sigma and Wilkinson leakage mean/sigma/p99 against a Monte-Carlo
/// reference. Expected shape: delay mean within ~2 %, sigma within ~15 %,
/// leakage mean within ~3 %, p99 within ~10 % — the accuracy class the
/// paper reports for its analytic models.

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "gen/proxy.hpp"
#include "leakage/leakage.hpp"
#include "mc/monte_carlo.hpp"
#include "ssta/flat_incremental.hpp"
#include "util/table.hpp"

int main() {
  using namespace statleak;
  bench::Setup setup;
  bench::print_header("F4",
                      "analytic engines vs Monte Carlo (3000 samples each, "
                      "min-size all-LVT implementations)");

  const auto err = [](double model, double ref) {
    return 100.0 * (model - ref) / ref;
  };

  Table table({"circuit", "D mean err%", "D sigma err%", "L mean err%",
               "L sigma err%", "L p95 err%", "L p99 err%"});
  double worst_dmean = 0.0;
  double worst_lp99 = 0.0;
  for (const std::string& name : iscas85_proxy_names()) {
    const Circuit c = iscas85_proxy(name);
    const Canonical d =
        FlatSstaEngine(c, setup.lib, setup.var).circuit_delay();
    const LeakageDistribution l =
        LeakageAnalyzer(c, setup.lib, setup.var).distribution();

    McConfig mc;
    mc.num_samples = 3000;
    mc.seed = 55;
    const McResult res = run_monte_carlo(c, setup.lib, setup.var, mc);
    const SampleSummary sd = res.delay_summary();
    const SampleSummary sl = res.leakage_summary();

    table.begin_row();
    table.add(name);
    table.add(err(d.mean, sd.mean), 2);
    table.add(err(d.sigma(), sd.stddev), 2);
    table.add(err(l.mean_na, sl.mean), 2);
    table.add(err(l.stddev_na(), sl.stddev), 2);
    table.add(err(l.quantile_na(0.95), res.leakage_quantile_na(0.95)), 2);
    table.add(err(l.quantile_na(0.99), res.leakage_quantile_na(0.99)), 2);
    worst_dmean = std::max(worst_dmean, std::fabs(err(d.mean, sd.mean)));
    worst_lp99 = std::max(
        worst_lp99,
        std::fabs(err(l.quantile_na(0.99), res.leakage_quantile_na(0.99))));
  }
  table.print(std::cout);
  std::cout << "\nworst |delay mean error| " << format_fixed(worst_dmean, 2)
            << " %, worst |leakage p99 error| "
            << format_fixed(worst_lp99, 2) << " %\n";
  return 0;
}
