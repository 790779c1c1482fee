// Cross-module integration tests: complete flows wired the way a user would
// wire them, checking the invariants that hold across module boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gen/prefix.hpp"
#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "graph_oracle.hpp"
#include "leakage/leakage.hpp"
#include "mc/estimator.hpp"
#include "mc/monte_carlo.hpp"
#include "mlv/mlv.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/impl_io.hpp"
#include "opt/deterministic.hpp"
#include "opt/statistical.hpp"
#include "power/activity.hpp"
#include "power/power.hpp"
#include "report/flow.hpp"
#include "spatial/spatial_analysis.hpp"
#include "spatial/spatial_ssta.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_F(IntegrationTest, BenchFileRoundTripThroughOptimization) {
  // gen -> serialize -> reparse -> optimize -> serialize impl -> reapply:
  // the full external-tool pipeline, with logic equivalence throughout.
  const Circuit original = iscas85_proxy("c499p");
  const Circuit reparsed =
      read_bench_string(write_bench_string(original), "rt");

  Circuit optimized = reparsed;
  OptConfig cfg;
  cfg.t_max_ps = 1.3 * StaEngine(optimized, lib_).critical_delay_ps();
  const OptResult r = StatisticalOptimizer(lib_, var_, cfg).run(optimized);
  EXPECT_TRUE(r.feasible);

  std::ostringstream impl;
  write_impl(impl, optimized);
  Circuit reapplied = read_bench_string(write_bench_string(original), "rt2");
  std::istringstream impl_in(impl.str());
  read_impl(impl_in, reapplied);

  // Identical implementation metrics after the file round trip.
  const CircuitMetrics a = measure_metrics(optimized, lib_, var_, cfg.t_max_ps);
  const CircuitMetrics b = measure_metrics(reapplied, lib_, var_, cfg.t_max_ps);
  EXPECT_NEAR(a.leakage_p99_na, b.leakage_p99_na, 1e-9 * a.leakage_p99_na);
  EXPECT_NEAR(a.timing_yield, b.timing_yield, 1e-12);

  // And logic equivalence against the original (random vectors).
  Rng rng(33);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<char> in(original.inputs().size());
    for (auto& bit : in) bit = rng.uniform_index(2) ? 1 : 0;
    const auto va = simulate(original, in);
    const auto vb = simulate(reapplied, in);
    for (GateId out : original.outputs()) {
      const GateId out_b = reapplied.find(original.gate(out).name);
      ASSERT_NE(out_b, kInvalidGate);
      EXPECT_EQ(va[out], vb[out_b]);
    }
  }
}

TEST_F(IntegrationTest, MetricsAgreeWithUnderlyingEngines) {
  Circuit c = iscas85_proxy("c432p");
  const double t_max = 900.0;
  const CircuitMetrics m = measure_metrics(c, lib_, var_, t_max);
  EXPECT_NEAR(m.nominal_delay_ps, StaEngine(c, lib_).critical_delay_ps(),
              1e-9);
  const Canonical d = FlatSstaEngine(c, lib_, var_).circuit_delay();
  EXPECT_NEAR(m.ssta_delay_mean_ps, d.mean, 1e-9);
  EXPECT_NEAR(m.timing_yield, d.cdf(t_max), 1e-12);
  const LeakageAnalyzer leak(c, lib_, var_);
  EXPECT_NEAR(m.leakage_p99_na, leak.quantile_na(0.99), 1e-9);
}

TEST_F(IntegrationTest, MetricsRejectNonFiniteTarget) {
  // A NaN or -inf target would turn the yield into NaN or 0 silently.
  const Circuit c = iscas85_proxy("c432p");
  for (double t : {std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)measure_metrics(c, lib_, var_, t), NumericalError);
  }
}

TEST_F(IntegrationTest, OptimizedCircuitSurvivesSpatialScrutiny) {
  // A solution optimized under the flat model, measured under spatial
  // correlation: the yield estimate moves, but only by a few points — the
  // design is not brittle to the correlation structure.
  Circuit c = iscas85_proxy("c880p");
  OptConfig cfg;
  cfg.t_max_ps = 1.3 * StaEngine(c, lib_).critical_delay_ps();
  cfg.yield_target = 0.99;
  ASSERT_TRUE(StatisticalOptimizer(lib_, var_, cfg).run(c).feasible);

  SpatialVariationModel spatial;
  spatial.base = var_;
  const auto placement = make_topological_placement(c, 5);
  const double spatial_yield =
      SpatialSstaEngine(c, lib_, spatial, placement)
          .circuit_delay()
          .cdf(cfg.t_max_ps);
  EXPECT_GT(spatial_yield, 0.95);
}

TEST_F(IntegrationTest, OptimizationImprovesEveryDownstreamMetric) {
  // One implementation change, observed through every analysis lens.
  Circuit before = iscas85_proxy("c432p");
  Circuit after = before;
  OptConfig cfg;
  cfg.t_max_ps = 1.35 * StaEngine(before, lib_).critical_delay_ps();
  ASSERT_TRUE(StatisticalOptimizer(lib_, var_, cfg).run(after).feasible);

  // Analytic leakage.
  EXPECT_LT(LeakageAnalyzer(after, lib_, var_).quantile_na(0.99),
            LeakageAnalyzer(before, lib_, var_).quantile_na(0.99));
  // Monte-Carlo leakage.
  McConfig mc;
  mc.num_samples = 800;
  EXPECT_LT(run_monte_carlo(after, lib_, var_, mc).leakage_summary().mean,
            run_monte_carlo(before, lib_, var_, mc).leakage_summary().mean);
  // Standby MLV leakage.
  MlvConfig mlv;
  mlv.random_trials = 32;
  EXPECT_LT(find_min_leakage_vector(after, lib_, mlv).best_leakage_na,
            find_min_leakage_vector(before, lib_, mlv).best_leakage_na);
  // Total-power breakdown.
  const auto activity = estimate_activity(after, 200, 3);
  EXPECT_LT(
      power_breakdown(after, lib_, var_, activity, 500.0).leakage_mean_nw,
      power_breakdown(before, lib_, var_, activity, 500.0).leakage_mean_nw);
}

TEST_F(IntegrationTest, KoggeStoneOptimizesLikeOtherAdders) {
  // The newest generator plugs into the full flow unchanged.
  Circuit c = make_kogge_stone_adder(16);
  FlowConfig flow;
  flow.t_max_factor = 1.2;
  flow.det_corner_k = 3.0;
  const FlowOutcome out = run_flow(c, lib_, var_, flow);
  EXPECT_GE(out.stat_metrics.timing_yield, flow.yield_target - 1e-9);
  EXPECT_GT(out.p99_saving(), 0.0);
}

TEST_F(IntegrationTest, DetAndStatAgreeInZeroVariationLimit) {
  // With no variation, the statistical problem degenerates to the
  // deterministic one: both optimizers must find solutions of comparable
  // leakage at the same (now deterministic) constraint.
  const VariationModel none = VariationModel::none();
  Circuit det = iscas85_proxy("c432p");
  Circuit stat = det;
  OptConfig cfg;
  cfg.t_max_ps = 1.25 * StaEngine(det, lib_).critical_delay_ps();
  cfg.yield_target = 0.99;
  (void)DeterministicOptimizer(lib_, none, cfg).run(det);
  const OptResult sr = StatisticalOptimizer(lib_, none, cfg).run(stat);
  EXPECT_TRUE(sr.feasible);

  const double det_leak = LeakageAnalyzer(det, lib_, none).mean_na();
  const double stat_leak = LeakageAnalyzer(stat, lib_, none).mean_na();
  EXPECT_NEAR(stat_leak, det_leak, 0.15 * det_leak);
  EXPECT_LE(StaEngine(det, lib_).critical_delay_ps(), cfg.t_max_ps + 1e-6);
  EXPECT_LE(StaEngine(stat, lib_).critical_delay_ps(), cfg.t_max_ps + 1e-6);
}

// ------------------------------------------- metrics vs the full-pass oracle

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// compute_timing_is_shift's closed form, applied to the oracle's circuit
/// delay: the conditional-mean shift (t - mean) * ||g|| / sigma^2 along the
/// global gradient g = (gl, gv), capped at 6 sigma.
IsShift is_shift_of(const Canonical& d, double t_max_ps) {
  const double g = std::sqrt(d.gl * d.gl + d.gv * d.gv);
  if (g <= 0.0 || d.variance() <= 0.0) return {};
  const double dist = (t_max_ps - d.mean) * g / d.variance();
  if (dist <= 0.0) return {};
  const double mag = std::min(dist, 6.0);
  return {mag * d.gl / g, mag * d.gv / g};
}

/// Every ISCAS85 proxy plus "rdag23", a generated 300-gate random DAG.
std::vector<std::string> metrics_circuits() {
  std::vector<std::string> names = iscas85_proxy_names();
  names.push_back("rdag23");
  return names;
}

class MetricsOracleTest : public ::testing::TestWithParam<std::string> {};

// Every timing field of measure_metrics, and the timing importance-sampling
// shift, equal the full-pass oracle bit for bit. The circuit is first moved
// to a seeded random implementation point (a size step and a Vth class per
// cell), so loads, delays and the Clark MAX tightness are all non-uniform.
TEST_P(MetricsOracleTest, TimingFieldsMatchOracleBitwise) {
  const CellLibrary lib(generic_100nm());
  const VariationModel var = VariationModel::typical_100nm();
  Circuit c = GetParam() == "rdag23" ? [] {
    RandomDagSpec spec;
    spec.num_inputs = 24;
    spec.num_gates = 300;
    spec.num_outputs = 12;
    spec.seed = 23;
    return make_random_dag(spec);
  }() : iscas85_proxy(GetParam());
  Rng rng(41);
  const auto steps = lib.size_steps();
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.gate(id).kind == CellKind::kInput) continue;
    c.set_size(id, steps[rng.uniform_index(steps.size())]);
    c.set_vth(id, rng.uniform_index(2) == 0 ? Vth::kLow : Vth::kHigh);
  }

  const Canonical d = oracle::ssta(c, lib, var).circuit_delay;
  // In the upper tail, so the IS shift is active and the yield is not 1.
  const double t_max = d.quantile(0.9);
  const CircuitMetrics m = measure_metrics(c, lib, var, t_max);
  EXPECT_EQ(bits(m.nominal_delay_ps),
            bits(oracle::sta(c, lib, t_max).critical_delay_ps));
  EXPECT_EQ(bits(m.corner3_delay_ps),
            bits(oracle::sta(c, lib, t_max, &var, 3.0).critical_delay_ps));
  EXPECT_EQ(bits(m.ssta_delay_mean_ps), bits(d.mean));
  EXPECT_EQ(bits(m.ssta_delay_sigma_ps), bits(d.sigma()));
  EXPECT_EQ(bits(m.timing_yield), bits(d.cdf(t_max)));

  const IsShift want = is_shift_of(d, t_max);
  const IsShift got = compute_timing_is_shift(c, lib, var, t_max);
  EXPECT_TRUE(want.active());
  EXPECT_EQ(bits(got.l_sigma), bits(want.l_sigma));
  EXPECT_EQ(bits(got.v_sigma), bits(want.v_sigma));
}

INSTANTIATE_TEST_SUITE_P(ProxiesAndRandomDag, MetricsOracleTest,
                         ::testing::ValuesIn(metrics_circuits()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace statleak
