// Unit tests for SSTA: canonical-form algebra, propagation against
// Monte-Carlo ground truth, yield, and criticality properties.

#include <gtest/gtest.h>

#include <cmath>

#include "gen/arithmetic.hpp"
#include "gen/random_dag.hpp"
#include "mc/monte_carlo.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"

namespace statleak {
namespace {

// ---------------------------------------------------------- canonical ----

TEST(Canonical, SumAlgebra) {
  const Canonical a{10.0, 1.0, 0.5, 2.0};
  const Canonical b{5.0, 0.5, 0.5, 1.0};
  const Canonical s = Canonical::sum(a, b);
  EXPECT_DOUBLE_EQ(s.mean, 15.0);
  EXPECT_DOUBLE_EQ(s.gl, 1.5);
  EXPECT_DOUBLE_EQ(s.gv, 1.0);
  EXPECT_NEAR(s.loc, std::sqrt(5.0), 1e-12);
}

TEST(Canonical, VarianceAndSigma) {
  const Canonical a{0.0, 3.0, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(a.variance(), 25.0);
  EXPECT_DOUBLE_EQ(a.sigma(), 5.0);
}

TEST(Canonical, CdfQuantileInverse) {
  const Canonical a{100.0, 3.0, 0.0, 4.0};
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(a.cdf(a.quantile(p)), p, 1e-10);
  }
}

TEST(Canonical, MaxOfIdenticalPerfectlyCorrelated) {
  // Same global-only canonical: correlation 1, max == operand.
  const Canonical a{10.0, 2.0, 1.0, 0.0};
  double tight = 0.0;
  const Canonical m = Canonical::max(a, a, &tight);
  EXPECT_NEAR(m.mean, 10.0, 1e-12);
  EXPECT_NEAR(m.variance(), a.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(tight, 1.0);
}

TEST(Canonical, MaxOfIndependentEqualGaussians) {
  // Two purely local operands: E[max] = mu + sigma/sqrt(pi).
  const Canonical a{10.0, 0.0, 0.0, 2.0};
  const Canonical b{10.0, 0.0, 0.0, 2.0};
  double tight = 0.0;
  const Canonical m = Canonical::max(a, b, &tight);
  EXPECT_NEAR(m.mean, 10.0 + 2.0 * std::sqrt(2.0) / std::sqrt(2.0 * M_PI),
              1e-9);
  EXPECT_NEAR(tight, 0.5, 1e-12);
  // Globals stay zero; all variance is local.
  EXPECT_DOUBLE_EQ(m.gl, 0.0);
  EXPECT_DOUBLE_EQ(m.gv, 0.0);
}

TEST(Canonical, MaxDominantOperand) {
  const Canonical a{100.0, 1.0, 0.0, 1.0};
  const Canonical b{10.0, 1.0, 0.0, 1.0};
  double tight = 0.0;
  const Canonical m = Canonical::max(a, b, &tight);
  EXPECT_NEAR(m.mean, 100.0, 1e-6);
  EXPECT_NEAR(tight, 1.0, 1e-9);
  EXPECT_NEAR(m.gl, 1.0, 1e-6);
}

TEST(Canonical, MaxBlendsGlobalCoefficients) {
  const Canonical a{10.0, 2.0, 0.0, 0.5};
  const Canonical b{10.0, 0.5, 0.0, 2.0};
  double tight = 0.0;
  const Canonical m = Canonical::max(a, b, &tight);
  EXPECT_NEAR(m.gl, tight * 2.0 + (1.0 - tight) * 0.5, 1e-12);
  EXPECT_GE(m.variance(), 0.0);
}

// ------------------------------------------------------------- engine ----

class SstaTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

Circuit chain_circuit(int length) {
  Circuit c("chain");
  GateId prev = c.add_input("in");
  for (int i = 0; i < length; ++i) {
    prev = c.add_gate("g" + std::to_string(i), CellKind::kInv, {prev});
  }
  c.mark_output(prev);
  c.finalize();
  return c;
}

TEST_F(SstaTest, ZeroVariationDegeneratesToSta) {
  const Circuit c = make_carry_lookahead_adder(8);
  const VariationModel none = VariationModel::none();
  const FlatSstaEngine ssta(c, lib_, none);
  const StaEngine sta(c, lib_);
  const Canonical d = ssta.circuit_delay();
  EXPECT_NEAR(d.mean, sta.critical_delay_ps(), 1e-6);
  EXPECT_NEAR(d.sigma(), 0.0, 1e-9);
}

TEST_F(SstaTest, ChainMeanMatchesNominalDelay) {
  // On a chain there is no MAX: the mean equals the deterministic delay.
  const Circuit c = chain_circuit(10);
  const FlatSstaEngine ssta(c, lib_, var_);
  const StaEngine sta(c, lib_);
  EXPECT_NEAR(ssta.circuit_delay().mean, sta.critical_delay_ps(), 1e-9);
}

TEST_F(SstaTest, ChainSigmaClosedForm) {
  // On a chain: globals add linearly, locals RSS. With identical gates of
  // delay d: gl_total = n*d*sL*sigLg, loc_total = sqrt(n)*d*local.
  const Circuit c = chain_circuit(16);
  const FlatSstaEngine ssta(c, lib_, var_);
  // All gates identical except the last (PO load differs); compare against
  // the engine's own per-gate canonicals composed manually.
  Canonical manual;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    manual = Canonical::sum(manual, ssta.gate_delay(id));
  }
  const Canonical engine = ssta.circuit_delay();
  EXPECT_NEAR(engine.mean, manual.mean, 1e-9);
  EXPECT_NEAR(engine.sigma(), manual.sigma(), 1e-9);
}

TEST_F(SstaTest, GateDelayCanonicalFields) {
  const Circuit c = chain_circuit(2);
  const FlatSstaEngine ssta(c, lib_, var_);
  const GateId g = c.find("g0");
  const Canonical d = ssta.gate_delay(g);
  EXPECT_GT(d.mean, 0.0);
  EXPECT_GT(d.gl, 0.0);
  EXPECT_GT(d.gv, 0.0);
  EXPECT_GT(d.loc, 0.0);
  // Inputs have zero canonical delay.
  EXPECT_EQ(ssta.gate_delay(c.find("in")).mean, 0.0);
}

TEST_F(SstaTest, MatchesMonteCarloOnAdder) {
  const Circuit c = make_carry_lookahead_adder(12);
  const FlatSstaEngine ssta(c, lib_, var_);
  const Canonical d = ssta.circuit_delay();

  McConfig mc;
  mc.num_samples = 8000;
  mc.seed = 3;
  const McResult res = run_monte_carlo(c, lib_, var_, mc);
  const SampleSummary s = res.delay_summary();

  EXPECT_NEAR(d.mean, s.mean, 0.02 * s.mean);
  EXPECT_NEAR(d.sigma(), s.stddev, 0.15 * s.stddev);
  // Yield agreement at a few targets.
  for (double factor : {1.0, 1.05, 1.1}) {
    const double t = factor * s.mean;
    EXPECT_NEAR(d.cdf(t), res.timing_yield(t), 0.03) << "factor " << factor;
  }
}

TEST_F(SstaTest, MatchesMonteCarloOnRandomDag) {
  RandomDagSpec spec;
  spec.num_gates = 600;
  spec.seed = 77;
  const Circuit c = make_random_dag(spec);
  const FlatSstaEngine ssta(c, lib_, var_);
  const Canonical d = ssta.circuit_delay();

  McConfig mc;
  mc.num_samples = 6000;
  mc.seed = 5;
  const McResult res = run_monte_carlo(c, lib_, var_, mc);
  const SampleSummary s = res.delay_summary();
  EXPECT_NEAR(d.mean, s.mean, 0.03 * s.mean);
  EXPECT_NEAR(d.sigma(), s.stddev, 0.2 * s.stddev);
}

TEST_F(SstaTest, YieldMonotoneInTarget) {
  const Circuit c = make_carry_lookahead_adder(8);
  const FlatSstaEngine ssta(c, lib_, var_);
  const SstaResult r = ssta.analyze();
  const double mean = r.circuit_delay.mean;
  double prev = 0.0;
  for (double f : {0.8, 0.9, 1.0, 1.1, 1.2}) {
    const double y = r.yield(f * mean);
    EXPECT_GE(y, prev);
    prev = y;
  }
  EXPECT_NEAR(r.yield(mean), 0.5, 0.01);
  EXPECT_NEAR(r.delay_at_yield_ps(0.5), mean, 1e-6);
}

TEST_F(SstaTest, AnalyzeAndForwardOnlyAgree) {
  const Circuit c = make_carry_lookahead_adder(10);
  const FlatSstaEngine ssta(c, lib_, var_);
  const SstaResult full = ssta.analyze();
  const Canonical fwd = ssta.circuit_delay();
  EXPECT_NEAR(full.circuit_delay.mean, fwd.mean, 1e-9);
  EXPECT_NEAR(full.circuit_delay.sigma(), fwd.sigma(), 1e-9);
}

TEST_F(SstaTest, CriticalityOnChainIsOne) {
  const Circuit c = chain_circuit(8);
  const FlatSstaEngine ssta(c, lib_, var_);
  const SstaResult r = ssta.analyze();
  for (GateId id = 0; id < c.num_gates(); ++id) {
    EXPECT_NEAR(r.criticality[id], 1.0, 1e-9) << c.gate(id).name;
  }
}

TEST_F(SstaTest, CriticalityOnBalancedForkIsHalf) {
  // in -> two identical parallel inverter chains -> NAND2 join.
  Circuit c("fork");
  const GateId in = c.add_input("in");
  GateId a = in;
  GateId b = in;
  for (int i = 0; i < 4; ++i) {
    a = c.add_gate("a" + std::to_string(i), CellKind::kInv, {a});
    b = c.add_gate("b" + std::to_string(i), CellKind::kInv, {b});
  }
  const GateId join = c.add_gate("join", CellKind::kNand2, {a, b});
  c.mark_output(join);
  c.finalize();

  const FlatSstaEngine ssta(c, lib_, var_);
  const SstaResult r = ssta.analyze();
  EXPECT_NEAR(r.criticality[join], 1.0, 1e-9);
  EXPECT_NEAR(r.criticality[c.find("a1")], 0.5, 0.05);
  EXPECT_NEAR(r.criticality[c.find("b1")], 0.5, 0.05);
  EXPECT_NEAR(r.criticality[in], 1.0, 1e-6);
}

TEST_F(SstaTest, CriticalityInUnitInterval) {
  RandomDagSpec spec;
  spec.num_gates = 500;
  spec.seed = 21;
  const Circuit c = make_random_dag(spec);
  const FlatSstaEngine ssta(c, lib_, var_);
  const SstaResult r = ssta.analyze();
  for (double crit : r.criticality) {
    EXPECT_GE(crit, -1e-9);
    EXPECT_LE(crit, 1.0 + 1e-6);
  }
}

TEST_F(SstaTest, MoreVariationMeansWiderDistribution) {
  const Circuit c = make_carry_lookahead_adder(8);
  // Named: the engine keeps a reference, so a temporary would dangle.
  const VariationModel tight_var = var_.scaled(0.5);
  const VariationModel wide_var = var_.scaled(2.0);
  const FlatSstaEngine tight(c, lib_, tight_var);
  const FlatSstaEngine wide(c, lib_, wide_var);
  EXPECT_LT(tight.circuit_delay().sigma(), wide.circuit_delay().sigma());
}

}  // namespace
}  // namespace statleak
