// Unit tests for the statistical leakage engine: per-gate lognormal moments,
// the Wilkinson correlated sum, incremental updates, and agreement with
// Monte Carlo — including the quadratic-exponent extension.

#include <gtest/gtest.h>

#include <cmath>

#include "gen/arithmetic.hpp"
#include "gen/random_dag.hpp"
#include "leakage/leakage.hpp"
#include "mc/monte_carlo.hpp"
#include "mc_scalar_oracle.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

class LeakageTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_F(LeakageTest, GateMomentsClosedForm) {
  const LeakageModel model(lib_, var_);
  const double nominal = lib_.leakage_na(CellKind::kInv, Vth::kLow, 1.0);
  const GateLeakMoments m =
      model.gate_moments(CellKind::kInv, Vth::kLow, 1.0);
  const double s2 = model.log_sigma2();
  EXPECT_NEAR(m.mean_na, nominal * std::exp(0.5 * s2), nominal * 1e-9);
  EXPECT_NEAR(m.var_na2,
              nominal * nominal * std::exp(s2) * (std::exp(s2) - 1.0),
              m.var_na2 * 1e-6);
}

TEST_F(LeakageTest, MeanExceedsNominalUnderVariation) {
  // The paper's core observation: E[leakage] > nominal leakage because the
  // exponential amplifies the fast tail.
  const LeakageModel model(lib_, var_);
  const GateLeakMoments m =
      model.gate_moments(CellKind::kNand2, Vth::kLow, 2.0);
  EXPECT_GT(m.mean_na, lib_.leakage_na(CellKind::kNand2, Vth::kLow, 2.0));
}

TEST_F(LeakageTest, LogCovarianceIsInterDieShare) {
  const LeakageModel model(lib_, var_);
  EXPECT_GT(model.log_cov_global(), 0.0);
  EXPECT_LT(model.log_cov_global(), model.log_sigma2());
}

TEST_F(LeakageTest, AnalyzerMeanIsSumOfGateMeans) {
  const Circuit c = make_ripple_carry_adder(8);
  const LeakageAnalyzer an(c, lib_, var_);
  const LeakageModel model(lib_, var_);
  double sum = 0.0;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind == CellKind::kInput) continue;
    sum += model.gate_moments(g.kind, g.vth, g.size).mean_na;
  }
  EXPECT_NEAR(an.mean_na(), sum, sum * 1e-12);
}

TEST_F(LeakageTest, NominalBelowMean) {
  const Circuit c = make_ripple_carry_adder(8);
  const LeakageAnalyzer an(c, lib_, var_);
  EXPECT_LT(an.nominal_na(), an.mean_na());
}

TEST_F(LeakageTest, ZeroVariationDegenerates) {
  const Circuit c = make_ripple_carry_adder(6);
  const VariationModel none = VariationModel::none();
  const LeakageAnalyzer an(c, lib_, none);
  const LeakageDistribution d = an.distribution();
  EXPECT_NEAR(d.mean_na, an.nominal_na(), 1e-9);
  EXPECT_NEAR(d.stddev_na(), 0.0, 1e-6);
  EXPECT_NEAR(an.quantile_na(0.99), an.nominal_na(), an.nominal_na() * 1e-3);
}

TEST_F(LeakageTest, CorrelationInflatesVariance) {
  // The Wilkinson variance with shared inter-die terms must exceed the
  // independent-sum variance.
  const Circuit c = make_ripple_carry_adder(8);
  const LeakageAnalyzer an(c, lib_, var_);
  const LeakageModel model(lib_, var_);
  double indep_var = 0.0;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind == CellKind::kInput) continue;
    indep_var += model.gate_moments(g.kind, g.vth, g.size).var_na2;
  }
  EXPECT_GT(an.distribution().var_na2, 1.5 * indep_var);
}

TEST_F(LeakageTest, MatchesMonteCarloMoments) {
  const Circuit c = make_carry_lookahead_adder(10);
  const LeakageAnalyzer an(c, lib_, var_);
  const LeakageDistribution d = an.distribution();

  McConfig mc;
  mc.num_samples = 12000;
  mc.seed = 11;
  const McResult res = run_monte_carlo(c, lib_, var_, mc);
  const SampleSummary s = res.leakage_summary();

  EXPECT_NEAR(d.mean_na, s.mean, 0.03 * s.mean);
  EXPECT_NEAR(d.stddev_na(), s.stddev, 0.1 * s.stddev);
  EXPECT_NEAR(d.quantile_na(0.95), res.leakage_quantile_na(0.95),
              0.08 * res.leakage_quantile_na(0.95));
  EXPECT_NEAR(d.quantile_na(0.99), res.leakage_quantile_na(0.99),
              0.10 * res.leakage_quantile_na(0.99));
}

TEST_F(LeakageTest, IncrementalEqualsRebuild) {
  Circuit c = make_carry_lookahead_adder(8);
  LeakageAnalyzer an(c, lib_, var_);
  Rng rng(41);
  const auto steps = lib_.size_steps();
  for (int trial = 0; trial < 100; ++trial) {
    GateId id = static_cast<GateId>(rng.uniform_index(c.num_gates()));
    if (c.gate(id).kind == CellKind::kInput) continue;
    c.set_size(id, steps[rng.uniform_index(steps.size())]);
    c.set_vth(id, rng.uniform_index(2) ? Vth::kHigh : Vth::kLow);
    an.on_gate_changed(id);
  }
  LeakageAnalyzer fresh(c, lib_, var_);
  EXPECT_NEAR(an.mean_na(), fresh.mean_na(), fresh.mean_na() * 1e-9);
  EXPECT_NEAR(an.distribution().var_na2, fresh.distribution().var_na2,
              fresh.distribution().var_na2 * 1e-9);
  EXPECT_NEAR(an.quantile_na(0.99), fresh.quantile_na(0.99),
              fresh.quantile_na(0.99) * 1e-9);
}

TEST_F(LeakageTest, QuantileIfPredictsCommittedMove) {
  Circuit c = make_ripple_carry_adder(6);
  LeakageAnalyzer an(c, lib_, var_);
  const GateId target = c.find("XOR2_0") != kInvalidGate
                            ? c.find("XOR2_0")
                            : c.outputs()[0];
  const double predicted = an.quantile_if_na(target, Vth::kHigh, 2.0, 0.99);
  c.set_vth(target, Vth::kHigh);
  c.set_size(target, 2.0);
  an.on_gate_changed(target);
  EXPECT_NEAR(an.quantile_na(0.99), predicted, predicted * 1e-9);
}

TEST_F(LeakageTest, QuantileIfDoesNotMutate) {
  const Circuit c = make_ripple_carry_adder(4);
  LeakageAnalyzer an(c, lib_, var_);
  const double before = an.quantile_na(0.99);
  (void)an.quantile_if_na(c.outputs()[0], Vth::kHigh, 4.0, 0.99);
  EXPECT_DOUBLE_EQ(an.quantile_na(0.99), before);
}

TEST_F(LeakageTest, HvtCircuitLeaksLess) {
  Circuit c = make_ripple_carry_adder(8);
  const LeakageAnalyzer lvt(c, lib_, var_);
  const double lvt_p99 = lvt.quantile_na(0.99);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.gate(id).kind != CellKind::kInput) c.set_vth(id, Vth::kHigh);
  }
  const LeakageAnalyzer hvt(c, lib_, var_);
  EXPECT_LT(hvt.quantile_na(0.99), lvt_p99 / 5.0);
}

TEST_F(LeakageTest, SampleEvaluationMatchesLibrary) {
  // The Monte-Carlo oracle's per-die total (mc_scalar_oracle.hpp) against
  // an independent per-gate sum.
  const Circuit c = make_ripple_carry_adder(4);
  std::vector<ParamSample> samples(c.num_gates(), ParamSample{1.0, -0.005});
  double expected = 0.0;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind == CellKind::kInput) continue;
    expected += lib_.leakage_na(g.kind, g.vth, g.size, 1.0, -0.005);
  }
  EXPECT_NEAR(oracle::total_sample_na(c, lib_, samples), expected,
              expected * 1e-12);
}

TEST(LeakageQuadratic, ModelTracksMonteCarlo) {
  // Enable the second-order channel-length exponent and verify the
  // moment-corrected analytic mean still tracks MC.
  ProcessNode node = generic_100nm();
  node.leak_quadratic_per_nm2 = 0.01;
  const CellLibrary lib(node);
  const VariationModel var = VariationModel::typical_100nm();
  const Circuit c = make_ripple_carry_adder(6);
  const LeakageAnalyzer an(c, lib, var);

  McConfig mc;
  mc.num_samples = 20000;
  mc.seed = 17;
  const McResult res = run_monte_carlo(c, lib, var, mc);
  EXPECT_NEAR(an.mean_na(), res.leakage_summary().mean,
              0.05 * res.leakage_summary().mean);
}

TEST(LeakageQuadratic, RejectsDivergentExponent) {
  // 2*q*sigma_L^2 >= 1 makes E[exp] diverge; the model must refuse.
  ProcessNode node = generic_100nm();
  node.leak_quadratic_per_nm2 = 0.2;  // 2*0.2*9 = 3.6 > 1 at sigma_L = 3 nm
  const CellLibrary lib(node);
  const VariationModel var = VariationModel::typical_100nm();
  EXPECT_THROW((void)LeakageModel(lib, var), Error);
}

}  // namespace
}  // namespace statleak
