// Tests for the spatial-correlation extension: placement, the grid model's
// variance bookkeeping, the vector-canonical SSTA, the region-aware leakage
// sum, and — the acceptance criterion — agreement with spatial Monte Carlo
// where the flat (independent-intra) engines visibly diverge.

#include <gtest/gtest.h>

#include <cmath>

#include "gen/arithmetic.hpp"
#include "gen/proxy.hpp"
#include "spatial/placement.hpp"
#include "spatial/spatial_analysis.hpp"
#include "spatial/spatial_model.hpp"
#include "spatial/spatial_ssta.hpp"
#include "ssta/flat_incremental.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace statleak {
namespace {

SpatialVariationModel default_spatial() {
  SpatialVariationModel m;
  m.base = VariationModel::typical_100nm();
  m.grid = 4;
  m.region_fraction_l = 0.5;
  m.region_fraction_v = 0.25;
  return m;
}

// ----------------------------------------------------------- placement ----

TEST(Placement, OnePointPerGateInUnitSquare) {
  const Circuit c = make_carry_lookahead_adder(8);
  const auto placement = make_topological_placement(c, 7);
  ASSERT_EQ(placement.size(), c.num_gates());
  for (const Point& p : placement) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

TEST(Placement, DeterministicPerSeed) {
  const Circuit c = make_carry_lookahead_adder(8);
  const auto a = make_topological_placement(c, 3);
  const auto b = make_topological_placement(c, 3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y);
  }
}

TEST(Placement, XFollowsLogicLevel) {
  const Circuit c = make_ripple_carry_adder(16);
  const auto placement = make_topological_placement(c, 1);
  // Deeper gates sit further right (allow jitter slack).
  const GateId shallow = c.inputs()[0];
  GateId deep = shallow;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.level(id) > c.level(deep)) deep = id;
  }
  EXPECT_GT(placement[deep].x, placement[shallow].x + 0.2);
}

// ----------------------------------------------------------- the model ----

TEST(SpatialModel, VarianceBudgetPreserved) {
  const SpatialVariationModel m = default_spatial();
  EXPECT_NEAR(m.sigma_l_region_nm() * m.sigma_l_region_nm() +
                  m.sigma_l_local_nm() * m.sigma_l_local_nm(),
              m.base.sigma_l_intra_nm * m.base.sigma_l_intra_nm, 1e-12);
  EXPECT_NEAR(m.sigma_vth_region_v() * m.sigma_vth_region_v() +
                  m.sigma_vth_local_v() * m.sigma_vth_local_v(),
              m.base.sigma_vth_intra_v * m.base.sigma_vth_intra_v, 1e-12);
}

TEST(SpatialModel, RegionIndexing) {
  SpatialVariationModel m = default_spatial();
  m.grid = 2;
  EXPECT_EQ(m.num_regions(), 4);
  EXPECT_EQ(m.region_of({0.1, 0.1}), 0);
  EXPECT_EQ(m.region_of({0.1, 0.9}), 1);
  EXPECT_EQ(m.region_of({0.9, 0.1}), 2);
  EXPECT_EQ(m.region_of({0.9, 0.9}), 3);
  // Boundary clamping.
  EXPECT_EQ(m.region_of({1.0, 1.0}), 3);
}

TEST(SpatialModel, ValidateRejectsBadConfig) {
  SpatialVariationModel m = default_spatial();
  m.grid = 0;
  EXPECT_THROW(m.validate(), Error);
  m = default_spatial();
  m.region_fraction_l = 1.5;
  EXPECT_THROW(m.validate(), Error);
}

TEST(SpatialModel, MarginalMomentsUnchanged) {
  // The per-gate marginal must equal the flat model's.
  const SpatialVariationModel m = default_spatial();
  Rng rng(5);
  RunningStats dl;
  RunningStats dv;
  for (int i = 0; i < 60000; ++i) {
    const SpatialDieSample die = sample_spatial_die(m, rng);
    const ParamSample s = sample_spatial_gate(m, die, 5, rng);
    dl.add(s.dl_nm);
    dv.add(s.dvth_v);
  }
  EXPECT_NEAR(dl.stddev(), m.base.sigma_l_total_nm(), 0.03);
  EXPECT_NEAR(dv.stddev(), m.base.sigma_vth_total_v(), 0.0005);
}

TEST(SpatialModel, SameRegionMoreCorrelatedThanCrossRegion) {
  const SpatialVariationModel m = default_spatial();
  Rng rng(6);
  std::vector<double> a, same, cross;
  for (int i = 0; i < 40000; ++i) {
    const SpatialDieSample die = sample_spatial_die(m, rng);
    a.push_back(sample_spatial_gate(m, die, 0, rng).dl_nm);
    same.push_back(sample_spatial_gate(m, die, 0, rng).dl_nm);
    cross.push_back(sample_spatial_gate(m, die, 9, rng).dl_nm);
  }
  const double rho_same = correlation(a, same);
  const double rho_cross = correlation(a, cross);
  // Same region: (inter + region) / total variance; cross: inter / total.
  const double var_total =
      m.base.sigma_l_total_nm() * m.base.sigma_l_total_nm();
  const double expect_same =
      (m.base.sigma_l_inter_nm * m.base.sigma_l_inter_nm +
       m.sigma_l_region_nm() * m.sigma_l_region_nm()) /
      var_total;
  const double expect_cross =
      m.base.sigma_l_inter_nm * m.base.sigma_l_inter_nm / var_total;
  EXPECT_NEAR(rho_same, expect_same, 0.03);
  EXPECT_NEAR(rho_cross, expect_cross, 0.03);
  EXPECT_GT(rho_same, rho_cross + 0.1);
}

// ------------------------------------------------------ vector canonical ----

TEST(VectorCanonical, SumAndVariance) {
  VectorCanonical a{10.0, {1.0, 2.0}, 2.0};
  VectorCanonical b{5.0, {0.5, 0.5}, 1.0};
  const VectorCanonical s = VectorCanonical::sum(a, b);
  EXPECT_DOUBLE_EQ(s.mean, 15.0);
  EXPECT_DOUBLE_EQ(s.g[0], 1.5);
  EXPECT_DOUBLE_EQ(s.g[1], 2.5);
  EXPECT_NEAR(s.loc, std::sqrt(5.0), 1e-12);
}

TEST(VectorCanonical, MaxOfIdenticalSharedOnly) {
  VectorCanonical a{10.0, {2.0, 1.0}, 0.0};
  double tight = 0.0;
  const VectorCanonical m = VectorCanonical::max(a, a, &tight);
  EXPECT_NEAR(m.mean, 10.0, 1e-9);
  EXPECT_NEAR(m.variance(), a.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(tight, 1.0);
}

TEST(VectorCanonical, MaxMatchesScalarEngineOnTwoSources) {
  // With two sources the vector engine must agree with ssta's Canonical.
  VectorCanonical a{10.0, {1.0, 0.5}, 1.5};
  VectorCanonical b{11.0, {0.8, 1.2}, 0.7};
  const VectorCanonical mv = VectorCanonical::max(a, b);
  const Canonical ca{10.0, 1.0, 0.5, 1.5};
  const Canonical cb{11.0, 0.8, 1.2, 0.7};
  const Canonical mc = Canonical::max(ca, cb);
  EXPECT_NEAR(mv.mean, mc.mean, 1e-12);
  EXPECT_NEAR(mv.variance(), mc.variance(), 1e-12);
}

TEST(VectorCanonical, MismatchedLengthsThrow) {
  VectorCanonical a{1.0, {1.0, 2.0}, 0.0};
  VectorCanonical b{1.0, {1.0}, 0.0};
  EXPECT_THROW(VectorCanonical::sum(a, b), Error);
}

// ------------------------------------------------------------- engines ----

class SpatialEngineTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  SpatialVariationModel model_ = default_spatial();
};

TEST_F(SpatialEngineTest, ZeroRegionFractionMatchesFlatEngine) {
  // With no region-shared variance the spatial engine must reproduce the
  // flat SSTA exactly (same marginals, same correlation structure).
  Circuit c = iscas85_proxy("c432p");
  const auto placement = make_topological_placement(c, 2);
  SpatialVariationModel flat = model_;
  flat.region_fraction_l = 0.0;
  flat.region_fraction_v = 0.0;
  const SpatialSstaEngine spatial(c, lib_, flat, placement);
  const FlatSstaEngine plain(c, lib_, flat.base);
  const VectorCanonical ds = spatial.circuit_delay();
  const Canonical dp = plain.circuit_delay();
  EXPECT_NEAR(ds.mean, dp.mean, 1e-6 * dp.mean);
  EXPECT_NEAR(ds.sigma(), dp.sigma(), 1e-6 * dp.sigma());
}

TEST_F(SpatialEngineTest, SpatialCorrelationWidensDelaySpread) {
  // Correlated intra-die variation averages out less along paths, so the
  // circuit-delay sigma grows with the region fraction.
  Circuit c = iscas85_proxy("c880p");
  const auto placement = make_topological_placement(c, 2);
  SpatialVariationModel strong = model_;
  strong.region_fraction_l = 0.8;
  const SpatialSstaEngine weak_engine(c, lib_, model_, placement);
  SpatialVariationModel none = model_;
  none.region_fraction_l = 0.0;
  none.region_fraction_v = 0.0;
  const SpatialSstaEngine none_engine(c, lib_, none, placement);
  const SpatialSstaEngine strong_engine(c, lib_, strong, placement);
  EXPECT_GT(weak_engine.circuit_delay().sigma(),
            none_engine.circuit_delay().sigma());
  EXPECT_GT(strong_engine.circuit_delay().sigma(),
            weak_engine.circuit_delay().sigma());
}

TEST_F(SpatialEngineTest, SstaTracksSpatialMonteCarlo) {
  Circuit c = iscas85_proxy("c432p");
  const auto placement = make_topological_placement(c, 2);
  const SpatialSstaEngine engine(c, lib_, model_, placement);
  const VectorCanonical d = engine.circuit_delay();

  McConfig mc;
  mc.num_samples = 5000;
  mc.seed = 12;
  const McResult res =
      run_monte_carlo_spatial(c, lib_, model_, placement, mc);
  const SampleSummary s = res.delay_summary();
  EXPECT_NEAR(d.mean, s.mean, 0.03 * s.mean);
  EXPECT_NEAR(d.sigma(), s.stddev, 0.2 * s.stddev);
}

TEST_F(SpatialEngineTest, LeakageTracksSpatialMonteCarlo) {
  Circuit c = iscas85_proxy("c432p");
  const auto placement = make_topological_placement(c, 2);
  const LeakageDistribution d =
      spatial_leakage_distribution(c, lib_, model_, placement);

  McConfig mc;
  mc.num_samples = 6000;
  mc.seed = 13;
  const McResult res =
      run_monte_carlo_spatial(c, lib_, model_, placement, mc);
  const SampleSummary s = res.leakage_summary();
  EXPECT_NEAR(d.mean_na, s.mean, 0.03 * s.mean);
  EXPECT_NEAR(d.stddev_na(), s.stddev, 0.12 * s.stddev);
  EXPECT_NEAR(d.quantile_na(0.99), quantile(res.leakage_na, 0.99),
              0.10 * quantile(res.leakage_na, 0.99));
}

TEST_F(SpatialEngineTest, MonteCarloRejectsConfigItIgnores) {
  // The spatial sampler draws plain pseudo-random dies and writes no
  // checkpoint; asking for anything else must fail rather than be ignored.
  const Circuit c = make_ripple_carry_adder(4);
  const auto placement = make_topological_placement(c, 2);
  McConfig plain;
  plain.num_samples = 8;
  EXPECT_NO_THROW(
      (void)run_monte_carlo_spatial(c, lib_, model_, placement, plain));

  McConfig sobol = plain;
  sobol.sampler = McSampler::kSobol;
  McConfig shifted = plain;
  shifted.is_shift = {1.0, 0.0};
  McConfig cv = plain;
  cv.control_variate = true;
  McConfig ckpt = plain;
  ckpt.checkpoint_path = "spatial.ckpt";
  for (const McConfig& cfg : {sobol, shifted, cv, ckpt}) {
    EXPECT_THROW(
        (void)run_monte_carlo_spatial(c, lib_, model_, placement, cfg),
        Error);
  }
}

TEST_F(SpatialEngineTest, FlatLeakageModelUnderestimatesSpatialVariance) {
  // The ablation claim: feeding spatially correlated silicon to the flat
  // analyzer underestimates the total-leakage spread.
  Circuit c = iscas85_proxy("c880p");
  const auto placement = make_topological_placement(c, 2);
  SpatialVariationModel strong = model_;
  strong.region_fraction_l = 0.8;
  strong.region_fraction_v = 0.6;
  const LeakageDistribution spatial =
      spatial_leakage_distribution(c, lib_, strong, placement);
  const LeakageDistribution flat =
      LeakageAnalyzer(c, lib_, strong.base).distribution();
  EXPECT_NEAR(spatial.mean_na, flat.mean_na, 1e-6 * flat.mean_na);
  EXPECT_GT(spatial.stddev_na(), 1.05 * flat.stddev_na());
}

TEST_F(SpatialEngineTest, GridOneEqualsOneSharedRegion) {
  // grid = 1: the "region" component behaves as extra inter-die variance.
  Circuit c = make_ripple_carry_adder(8);
  const auto placement = make_topological_placement(c, 2);
  SpatialVariationModel one = model_;
  one.grid = 1;
  const LeakageDistribution spatial =
      spatial_leakage_distribution(c, lib_, one, placement);
  // Equivalent flat model: move the region variance into inter-die.
  VariationModel merged = one.base;
  merged.sigma_l_inter_nm =
      std::sqrt(merged.sigma_l_inter_nm * merged.sigma_l_inter_nm +
                one.sigma_l_region_nm() * one.sigma_l_region_nm());
  merged.sigma_l_intra_nm = one.sigma_l_local_nm();
  merged.sigma_vth_inter_v =
      std::sqrt(merged.sigma_vth_inter_v * merged.sigma_vth_inter_v +
                one.sigma_vth_region_v() * one.sigma_vth_region_v());
  merged.sigma_vth_intra_v = one.sigma_vth_local_v();
  const LeakageDistribution flat =
      LeakageAnalyzer(c, lib_, merged).distribution();
  EXPECT_NEAR(spatial.mean_na, flat.mean_na, 1e-9 * flat.mean_na);
  EXPECT_NEAR(spatial.var_na2, flat.var_na2, 1e-6 * flat.var_na2);
}

}  // namespace
}  // namespace statleak
