// Property-based suites (parameterized gtest): invariants that must hold
// across the whole proxy suite, across delay-target sweeps, and across
// variation-model scalings — the safety net behind the experiment harness.

#include <gtest/gtest.h>

#include <cmath>

#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "leakage/leakage.hpp"
#include "mc/monte_carlo.hpp"
#include "opt/deterministic.hpp"
#include "opt/metrics.hpp"
#include "opt/statistical.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"

namespace statleak {
namespace {

const CellLibrary& shared_library() {
  static const CellLibrary lib(generic_100nm());
  return lib;
}

// ------------------------------------------------- per-proxy invariants ----

class ProxyInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(ProxyInvariants, SstaTracksMcAcrossSuite) {
  const CellLibrary& lib = shared_library();
  const VariationModel var = VariationModel::typical_100nm();
  const Circuit c = iscas85_proxy(GetParam());
  const Canonical d = FlatSstaEngine(c, lib, var).circuit_delay();

  McConfig mc;
  mc.num_samples = 2500;
  mc.seed = 101;
  const McResult res = run_monte_carlo(c, lib, var, mc);
  const SampleSummary s = res.delay_summary();
  EXPECT_NEAR(d.mean, s.mean, 0.04 * s.mean) << GetParam();
  EXPECT_NEAR(d.sigma(), s.stddev, 0.25 * s.stddev) << GetParam();
}

TEST_P(ProxyInvariants, WilkinsonTracksMcAcrossSuite) {
  const CellLibrary& lib = shared_library();
  const VariationModel var = VariationModel::typical_100nm();
  const Circuit c = iscas85_proxy(GetParam());
  const LeakageDistribution d = LeakageAnalyzer(c, lib, var).distribution();

  McConfig mc;
  mc.num_samples = 2500;
  mc.seed = 103;
  const McResult res = run_monte_carlo(c, lib, var, mc);
  const SampleSummary s = res.leakage_summary();
  EXPECT_NEAR(d.mean_na, s.mean, 0.05 * s.mean) << GetParam();
  EXPECT_NEAR(d.quantile_na(0.95), res.leakage_quantile_na(0.95),
              0.12 * res.leakage_quantile_na(0.95))
      << GetParam();
}

TEST_P(ProxyInvariants, SimulationStableUnderImplementationChanges) {
  // Sizing / Vth assignment must never change logic values.
  const CellLibrary& lib = shared_library();
  Circuit c = iscas85_proxy(GetParam());
  std::vector<char> in(c.inputs().size());
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = (i % 3 == 0) ? 1 : 0;
  const auto before = simulate(c, in);

  OptConfig cfg;
  cfg.t_max_ps = 1.3 * StaEngine(c, lib).critical_delay_ps();
  (void)DeterministicOptimizer(lib, VariationModel::typical_100nm(), cfg)
      .run(c);
  const auto after = simulate(c, in);
  EXPECT_EQ(before, after) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SmallAndMidProxies, ProxyInvariants,
                         ::testing::Values("c432p", "c499p", "c880p",
                                           "c1355p", "c1908p"));

// -------------------------------------------- delay-target sweep (F2-ish) ----

class TargetSweep : public ::testing::TestWithParam<double> {};

TEST_P(TargetSweep, StatFeasibleAndBeatsWorstCaseCorner) {
  const double factor = GetParam();
  const CellLibrary& lib = shared_library();
  const VariationModel var = VariationModel::typical_100nm();
  Circuit det = iscas85_proxy("c499p");
  Circuit stat = det;

  // Use the min-size nominal delay as the reference floor: cheap and
  // monotone in the factor.
  OptConfig cfg;
  cfg.t_max_ps = factor * StaEngine(det, lib).critical_delay_ps();
  cfg.yield_target = 0.95;

  OptConfig det_cfg = cfg;
  det_cfg.corner_k_sigma = 3.0;
  (void)DeterministicOptimizer(lib, var, det_cfg).run(det);
  const OptResult sr = StatisticalOptimizer(lib, var, cfg).run(stat);
  EXPECT_TRUE(sr.feasible) << "factor " << factor;

  const CircuitMetrics md = measure_metrics(det, lib, var, cfg.t_max_ps);
  const CircuitMetrics ms = measure_metrics(stat, lib, var, cfg.t_max_ps);
  EXPECT_GE(ms.timing_yield, 0.95 - 1e-9);
  if (md.timing_yield >= 0.95) {
    EXPECT_LE(ms.leakage_p99_na, md.leakage_p99_na * 1.001)
        << "factor " << factor;
  }
}

TEST_P(TargetSweep, HvtFractionGrowsWithLooserTarget) {
  static double prev_fraction = -1.0;
  static double prev_factor = 0.0;
  const double factor = GetParam();
  const CellLibrary& lib = shared_library();
  const VariationModel var = VariationModel::typical_100nm();
  Circuit c = iscas85_proxy("c432p");
  OptConfig cfg;
  cfg.t_max_ps = factor * StaEngine(c, lib).critical_delay_ps();
  (void)StatisticalOptimizer(lib, var, cfg).run(c);
  const double fraction = static_cast<double>(c.count_hvt()) /
                          static_cast<double>(c.num_cells());
  if (prev_fraction >= 0.0 && factor > prev_factor) {
    EXPECT_GE(fraction, prev_fraction - 0.08)
        << "factor " << factor << " vs " << prev_factor;
  }
  prev_fraction = fraction;
  prev_factor = factor;
}

INSTANTIATE_TEST_SUITE_P(Factors, TargetSweep,
                         ::testing::Values(1.15, 1.3, 1.5, 1.8));

// ------------------------------------------- variation-scale invariants ----

class VariationSweep : public ::testing::TestWithParam<double> {};

TEST_P(VariationSweep, DelaySigmaScalesWithVariation) {
  const double scale = GetParam();
  const CellLibrary& lib = shared_library();
  const VariationModel var = VariationModel::typical_100nm().scaled(scale);
  const Circuit c = iscas85_proxy("c432p");
  const Canonical base =
      FlatSstaEngine(c, lib, VariationModel::typical_100nm()).circuit_delay();
  const Canonical scaled = FlatSstaEngine(c, lib, var).circuit_delay();
  // First-order delay model: sigma scales linearly with the variation scale
  // (up to MAX nonlinearity, hence the tolerance).
  EXPECT_NEAR(scaled.sigma(), scale * base.sigma(), 0.2 * scale * base.sigma());
}

TEST_P(VariationSweep, LeakageTailGrowsFasterThanLinear) {
  const double scale = GetParam();
  if (scale <= 1.0) GTEST_SKIP() << "tail-growth check needs scale > 1";
  const CellLibrary& lib = shared_library();
  const Circuit c = iscas85_proxy("c432p");
  const double base_p99 =
      LeakageAnalyzer(c, lib, VariationModel::typical_100nm())
          .quantile_na(0.99);
  const double base_mean =
      LeakageAnalyzer(c, lib, VariationModel::typical_100nm()).mean_na();
  const VariationModel var = VariationModel::typical_100nm().scaled(scale);
  const LeakageAnalyzer an(c, lib, var);
  // Exponential amplification: the p99/mean ratio widens superlinearly.
  EXPECT_GT(an.quantile_na(0.99) / an.mean_na(), base_p99 / base_mean);
}

INSTANTIATE_TEST_SUITE_P(Scales, VariationSweep,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0));

// --------------------------------------------- random-DAG seed sweep -------

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, OptimizerInvariantsOnRandomLogic) {
  const CellLibrary& lib = shared_library();
  const VariationModel var = VariationModel::typical_100nm();
  RandomDagSpec spec;
  spec.num_gates = 350;
  spec.seed = static_cast<std::uint64_t>(GetParam());
  Circuit c = make_random_dag(spec);

  OptConfig cfg;
  cfg.t_max_ps = 1.25 * StaEngine(c, lib).critical_delay_ps();
  cfg.yield_target = 0.95;
  const OptResult r = StatisticalOptimizer(lib, var, cfg).run(c);
  EXPECT_TRUE(r.feasible) << "seed " << GetParam();

  // Yield holds, sizes on grid, leakage objective sane.
  const double yield =
      FlatSstaEngine(c, lib, var).circuit_delay().cdf(cfg.t_max_ps);
  EXPECT_GE(yield, 0.95 - 1e-9);
  EXPECT_GT(r.final_objective, 0.0);
  const auto steps = lib.size_steps();
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind == CellKind::kInput) continue;
    EXPECT_GE(g.size, steps.front());
    EXPECT_LE(g.size, steps.back());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace statleak
