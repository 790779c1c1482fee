// Tests for the Pelgrom width-scaling extension: intra-die Vth sigma
// shrinking as 1/sqrt(device width), propagated consistently through the
// variation model, SSTA, the analytic leakage distribution, Monte Carlo,
// and the optimizer.

#include <gtest/gtest.h>

#include <cmath>

#include "gen/arithmetic.hpp"
#include "leakage/leakage.hpp"
#include "mc/monte_carlo.hpp"
#include "opt/statistical.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"

namespace statleak {
namespace {

VariationModel pelgrom_model() {
  VariationModel var = VariationModel::typical_100nm();
  var.pelgrom_vth_scaling = true;
  return var;
}

TEST(Pelgrom, OffReturnsNominalSigma) {
  const VariationModel var = VariationModel::typical_100nm();
  EXPECT_DOUBLE_EQ(var.sigma_vth_intra_for(0.1), var.sigma_vth_intra_v);
  EXPECT_DOUBLE_EQ(var.sigma_vth_intra_for(100.0), var.sigma_vth_intra_v);
}

TEST(Pelgrom, SqrtLaw) {
  const VariationModel var = pelgrom_model();
  const double ref = var.pelgrom_ref_width_um;
  EXPECT_NEAR(var.sigma_vth_intra_for(ref), var.sigma_vth_intra_v, 1e-15);
  EXPECT_NEAR(var.sigma_vth_intra_for(4.0 * ref),
              0.5 * var.sigma_vth_intra_v, 1e-15);
  EXPECT_NEAR(var.sigma_vth_intra_for(0.25 * ref),
              2.0 * var.sigma_vth_intra_v, 1e-15);
}

TEST(Pelgrom, NonPositiveWidthFallsBack) {
  const VariationModel var = pelgrom_model();
  EXPECT_DOUBLE_EQ(var.sigma_vth_intra_for(-1.0), var.sigma_vth_intra_v);
  EXPECT_DOUBLE_EQ(var.sigma_vth_intra_for(0.0), var.sigma_vth_intra_v);
}

TEST(Pelgrom, ScaledPreservesConfiguration) {
  const VariationModel var = pelgrom_model().scaled(2.0);
  EXPECT_TRUE(var.pelgrom_vth_scaling);
  EXPECT_DOUBLE_EQ(var.pelgrom_ref_width_um,
                   pelgrom_model().pelgrom_ref_width_um);
}

TEST(Pelgrom, UpsizedCircuitHasSmallerDelaySigma) {
  const CellLibrary lib(generic_100nm());
  Circuit small = make_ripple_carry_adder(8);
  Circuit big = small;
  for (GateId id = 0; id < big.num_gates(); ++id) {
    if (big.gate(id).kind != CellKind::kInput) big.set_size(id, 8.0);
  }
  const VariationModel var = pelgrom_model();
  // Relative sigma (sigma/mean) must shrink for the upsized circuit beyond
  // what it does without Pelgrom scaling.
  const Canonical ds = FlatSstaEngine(small, lib, var).circuit_delay();
  const Canonical db = FlatSstaEngine(big, lib, var).circuit_delay();
  const VariationModel flat = VariationModel::typical_100nm();
  const Canonical fs = FlatSstaEngine(small, lib, flat).circuit_delay();
  const Canonical fb = FlatSstaEngine(big, lib, flat).circuit_delay();
  const double gain_pelgrom = (ds.sigma() / ds.mean) / (db.sigma() / db.mean);
  const double gain_flat = (fs.sigma() / fs.mean) / (fb.sigma() / fb.mean);
  EXPECT_GT(gain_pelgrom, gain_flat);
}

TEST(Pelgrom, WideGateLeakageVarianceShrinks) {
  const CellLibrary lib(generic_100nm());
  const VariationModel var = pelgrom_model();
  const LeakageModel model(lib, var);
  const GateLeakMoments narrow =
      model.gate_moments(CellKind::kInv, Vth::kLow, 1.0);
  const GateLeakMoments wide =
      model.gate_moments(CellKind::kInv, Vth::kLow, 8.0);
  // Relative spread sqrt(var)/mean must be smaller for the wide gate.
  EXPECT_LT(std::sqrt(wide.var_na2) / wide.mean_na,
            std::sqrt(narrow.var_na2) / narrow.mean_na);
}

TEST(Pelgrom, AnalyticTracksMonteCarlo) {
  const CellLibrary lib(generic_100nm());
  const VariationModel var = pelgrom_model();
  Circuit c = make_carry_lookahead_adder(8);
  // Mixed sizes so the width dependence actually matters.
  const auto steps = lib.size_steps();
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.gate(id).kind == CellKind::kInput) continue;
    c.set_size(id, steps[id % steps.size()]);
  }
  const LeakageDistribution d = LeakageAnalyzer(c, lib, var).distribution();

  McConfig mc;
  mc.num_samples = 10000;
  mc.seed = 91;
  const McResult res = run_monte_carlo(c, lib, var, mc);
  const SampleSummary s = res.leakage_summary();
  EXPECT_NEAR(d.mean_na, s.mean, 0.03 * s.mean);
  EXPECT_NEAR(d.stddev_na(), s.stddev, 0.12 * s.stddev);

  const Canonical delay = FlatSstaEngine(c, lib, var).circuit_delay();
  const SampleSummary sd = res.delay_summary();
  EXPECT_NEAR(delay.mean, sd.mean, 0.03 * sd.mean);
  EXPECT_NEAR(delay.sigma(), sd.stddev, 0.2 * sd.stddev);
}

TEST(Pelgrom, McLeakageSamplesUseWidthScaledSigma) {
  // With ONLY intra-die Vth variation enabled, an upsized circuit's
  // per-sample leakage must be tighter (relatively) under Pelgrom scaling.
  const CellLibrary lib(generic_100nm());
  VariationModel var = VariationModel::none();
  var.sigma_vth_intra_v = 0.02;
  VariationModel pel = var;
  pel.pelgrom_vth_scaling = true;

  Circuit c = make_ripple_carry_adder(8);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.gate(id).kind != CellKind::kInput) c.set_size(id, 8.0);
  }
  McConfig mc;
  mc.num_samples = 4000;
  const SampleSummary flat =
      run_monte_carlo(c, lib, var, mc).leakage_summary();
  const SampleSummary scaled =
      run_monte_carlo(c, lib, pel, mc).leakage_summary();
  EXPECT_LT(scaled.stddev / scaled.mean, 0.7 * flat.stddev / flat.mean);
}

TEST(Pelgrom, OptimizerStillMeetsYield) {
  const CellLibrary lib(generic_100nm());
  const VariationModel var = pelgrom_model();
  Circuit c = make_carry_lookahead_adder(10);
  OptConfig cfg;
  cfg.t_max_ps = 1.3 * StaEngine(c, lib).critical_delay_ps();
  cfg.yield_target = 0.99;
  const OptResult r = StatisticalOptimizer(lib, var, cfg).run(c);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(FlatSstaEngine(c, lib, var).circuit_delay().cdf(cfg.t_max_ps),
            0.99 - 1e-9);
}

}  // namespace
}  // namespace statleak
