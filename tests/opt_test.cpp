// Unit tests for the optimizers: constraint satisfaction, objective
// improvement, guard rails, and the deterministic-vs-statistical contrast
// that is the paper's subject.

#include <gtest/gtest.h>

#include "gen/arithmetic.hpp"
#include "gen/proxy.hpp"
#include "leakage/leakage.hpp"
#include "mc/monte_carlo.hpp"
#include "opt/deterministic.hpp"
#include "opt/metrics.hpp"
#include "opt/statistical.hpp"
#include "report/flow.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"

namespace statleak {
namespace {

class OptTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();

  double loose_target(const Circuit& c) const {
    // A target comfortably above the min-size all-LVT delay.
    return 1.4 * StaEngine(c, lib_).critical_delay_ps();
  }
};

TEST_F(OptTest, ResetImplementation) {
  Circuit c = make_ripple_carry_adder(4);
  c.set_vth(c.outputs()[0], Vth::kHigh);
  c.set_size(c.outputs()[0], 8.0);
  reset_implementation(c, lib_);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind == CellKind::kInput) continue;
    EXPECT_EQ(g.vth, Vth::kLow);
    EXPECT_DOUBLE_EQ(g.size, lib_.size_steps().front());
  }
}

TEST_F(OptTest, MetricsFieldsConsistent) {
  Circuit c = make_ripple_carry_adder(6);
  const CircuitMetrics m = measure_metrics(c, lib_, var_, 1000.0);
  EXPECT_GT(m.nominal_delay_ps, 0.0);
  EXPECT_GT(m.corner3_delay_ps, m.nominal_delay_ps);
  EXPECT_GT(m.leakage_mean_na, m.leakage_nominal_na);
  EXPECT_GE(m.leakage_p99_na, m.leakage_p95_na);
  EXPECT_GE(m.leakage_p95_na, m.leakage_mean_na);
  EXPECT_EQ(m.cell_count, c.num_cells());
  EXPECT_EQ(m.hvt_count, 0u);
  EXPECT_GT(m.area_um, 0.0);
  EXPECT_GE(m.timing_yield, 0.0);
  EXPECT_LE(m.timing_yield, 1.0);
}

// --------------------------------------------------------- deterministic ----

TEST_F(OptTest, DetMeetsNominalTarget) {
  Circuit c = make_carry_lookahead_adder(12);
  OptConfig cfg;
  cfg.t_max_ps = loose_target(c);
  const OptResult r = DeterministicOptimizer(lib_, var_, cfg).run(c);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(StaEngine(c, lib_).critical_delay_ps(), cfg.t_max_ps + 1e-6);
}

TEST_F(OptTest, DetMeetsCornerTarget) {
  Circuit c = make_carry_lookahead_adder(12);
  OptConfig cfg;
  cfg.t_max_ps = 1.35 * StaEngine(c, lib_).corner_delay_ps(var_, 3.0);
  cfg.corner_k_sigma = 3.0;
  const OptResult r = DeterministicOptimizer(lib_, var_, cfg).run(c);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(StaEngine(c, lib_).corner_delay_ps(var_, 3.0),
            cfg.t_max_ps + 1e-6);
}

TEST_F(OptTest, DetReducesLeakageVersusStartingPoint) {
  Circuit c = make_carry_lookahead_adder(10);
  reset_implementation(c, lib_);
  double initial_leak = 0.0;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind != CellKind::kInput) {
      initial_leak += lib_.leakage_na(g.kind, g.vth, g.size);
    }
  }
  OptConfig cfg;
  cfg.t_max_ps = loose_target(c);
  const OptResult r = DeterministicOptimizer(lib_, var_, cfg).run(c);
  EXPECT_LT(r.final_objective, initial_leak);
  EXPECT_GT(r.hvt_commits, 0);
}

TEST_F(OptTest, DetLooseTargetGoesNearlyAllHvt) {
  Circuit c = make_ripple_carry_adder(8);
  OptConfig cfg;
  cfg.t_max_ps = 10.0 * StaEngine(c, lib_).critical_delay_ps();
  (void)DeterministicOptimizer(lib_, var_, cfg).run(c);
  const auto hvt = static_cast<double>(c.count_hvt());
  EXPECT_GT(hvt / static_cast<double>(c.num_cells()), 0.95);
}

TEST_F(OptTest, DetInfeasibleTargetReportsBestEffort) {
  Circuit c = make_ripple_carry_adder(12);
  OptConfig cfg;
  cfg.t_max_ps = 1.0;  // impossible
  const OptResult r = DeterministicOptimizer(lib_, var_, cfg).run(c);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.note.find("unreachable"), std::string::npos);
}

TEST_F(OptTest, DetSizesStayOnGrid) {
  Circuit c = make_carry_lookahead_adder(8);
  OptConfig cfg;
  cfg.t_max_ps = 1.1 * loose_target(c) / 1.4;
  (void)DeterministicOptimizer(lib_, var_, cfg).run(c);
  const auto steps = lib_.size_steps();
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind == CellKind::kInput) continue;
    bool on_grid = false;
    for (double s : steps) {
      if (std::abs(g.size - s) < 1e-12) on_grid = true;
    }
    EXPECT_TRUE(on_grid) << g.name << " size " << g.size;
  }
}

TEST_F(OptTest, DetRejectsBadConfig) {
  OptConfig cfg;
  cfg.t_max_ps = -5.0;
  EXPECT_THROW(DeterministicOptimizer(lib_, var_, cfg), Error);
  cfg.t_max_ps = 100.0;
  cfg.corner_k_sigma = -1.0;
  EXPECT_THROW(DeterministicOptimizer(lib_, var_, cfg), Error);
}

// ----------------------------------------------------------- statistical ----

TEST_F(OptTest, StatMeetsYieldTarget) {
  Circuit c = make_carry_lookahead_adder(12);
  OptConfig cfg;
  cfg.t_max_ps = loose_target(c);
  cfg.yield_target = 0.99;
  const OptResult r = StatisticalOptimizer(lib_, var_, cfg).run(c);
  EXPECT_TRUE(r.feasible);
  const double yield =
      FlatSstaEngine(c, lib_, var_).circuit_delay().cdf(cfg.t_max_ps);
  EXPECT_GE(yield, 0.99 - 1e-9);
}

TEST_F(OptTest, StatYieldConfirmedByMonteCarlo) {
  Circuit c = make_carry_lookahead_adder(12);
  OptConfig cfg;
  cfg.t_max_ps = loose_target(c);
  cfg.yield_target = 0.95;
  (void)StatisticalOptimizer(lib_, var_, cfg).run(c);
  McConfig mc;
  mc.num_samples = 4000;
  const McResult res = run_monte_carlo(c, lib_, var_, mc);
  // MC yield within a few points of the SSTA-enforced target.
  EXPECT_GT(res.timing_yield(cfg.t_max_ps), 0.92);
}

TEST_F(OptTest, StatBeatsWorstCaseCornerBaseline) {
  // The paper's headline claim at module scale: at equal (met) yield, the
  // statistical flow leaks less than the 3-sigma guard-banded deterministic
  // flow.
  Circuit det = iscas85_proxy("c880p");
  Circuit stat = det;
  OptConfig cfg;
  cfg.t_max_ps = 1.15 * min_achievable_delay_ps(det, lib_);
  cfg.yield_target = 0.99;

  OptConfig det_cfg = cfg;
  det_cfg.corner_k_sigma = 3.0;
  (void)DeterministicOptimizer(lib_, var_, det_cfg).run(det);
  (void)StatisticalOptimizer(lib_, var_, cfg).run(stat);

  const CircuitMetrics md = measure_metrics(det, lib_, var_, cfg.t_max_ps);
  const CircuitMetrics ms = measure_metrics(stat, lib_, var_, cfg.t_max_ps);
  ASSERT_GE(md.timing_yield, 0.99);  // guard-band met the yield...
  ASSERT_GE(ms.timing_yield, 0.99 - 1e-9);
  EXPECT_LT(ms.leakage_p99_na, md.leakage_p99_na);  // ...at higher leakage
}

TEST_F(OptTest, StatTighterYieldCostsMoreLeakage) {
  Circuit loose = make_carry_lookahead_adder(10);
  Circuit tight = loose;
  OptConfig cfg;
  cfg.t_max_ps = 1.12 * min_achievable_delay_ps(loose, lib_);
  cfg.yield_target = 0.90;
  (void)StatisticalOptimizer(lib_, var_, cfg).run(loose);
  cfg.yield_target = 0.999;
  (void)StatisticalOptimizer(lib_, var_, cfg).run(tight);
  const LeakageAnalyzer al(loose, lib_, var_);
  const LeakageAnalyzer at(tight, lib_, var_);
  EXPECT_LE(al.quantile_na(0.99), at.quantile_na(0.99) * 1.02);
}

TEST_F(OptTest, StatInfeasibleTargetBestEffort) {
  Circuit c = make_ripple_carry_adder(10);
  OptConfig cfg;
  cfg.t_max_ps = 1.0;
  const OptResult r = StatisticalOptimizer(lib_, var_, cfg).run(c);
  EXPECT_FALSE(r.feasible);
}

TEST_F(OptTest, StatRejectsBadConfig) {
  OptConfig cfg;
  cfg.t_max_ps = 100.0;
  cfg.yield_target = 1.5;
  EXPECT_THROW(StatisticalOptimizer(lib_, var_, cfg), Error);
  cfg.yield_target = 0.99;
  cfg.leakage_percentile = 0.0;
  EXPECT_THROW(StatisticalOptimizer(lib_, var_, cfg), Error);
}

TEST_F(OptTest, StatThreadCountInvariance) {
  // Candidate scoring is sharded by gate index and reduced in order, so the
  // greedy trajectory — every commit, and thus the whole OptResult and the
  // final implementation — must be identical single- vs multi-threaded.
  const Circuit base = make_carry_lookahead_adder(10);
  OptConfig cfg;
  cfg.t_max_ps = 1.25 * StaEngine(base, lib_).critical_delay_ps();
  cfg.num_threads = 1;
  Circuit serial = base;
  const OptResult r1 = StatisticalOptimizer(lib_, var_, cfg).run(serial);
  for (int threads : {2, 8}) {
    cfg.num_threads = threads;
    Circuit parallel = base;
    const OptResult rn = StatisticalOptimizer(lib_, var_, cfg).run(parallel);
    EXPECT_EQ(r1.feasible, rn.feasible) << threads;
    EXPECT_EQ(r1.sizing_commits, rn.sizing_commits) << threads;
    EXPECT_EQ(r1.hvt_commits, rn.hvt_commits) << threads;
    EXPECT_EQ(r1.downsize_commits, rn.downsize_commits) << threads;
    EXPECT_EQ(r1.rejected_moves, rn.rejected_moves) << threads;
    EXPECT_EQ(r1.iterations, rn.iterations) << threads;
    EXPECT_DOUBLE_EQ(r1.final_objective, rn.final_objective) << threads;
    for (GateId id = 0; id < base.num_gates(); ++id) {
      ASSERT_EQ(serial.gate(id).vth, parallel.gate(id).vth)
          << "threads " << threads << ", gate " << id;
      ASSERT_DOUBLE_EQ(serial.gate(id).size, parallel.gate(id).size)
          << "threads " << threads << ", gate " << id;
    }
  }
}

TEST_F(OptTest, StatSizesStayOnGridAndVthBinary) {
  Circuit c = make_carry_lookahead_adder(8);
  OptConfig cfg;
  cfg.t_max_ps = loose_target(c);
  (void)StatisticalOptimizer(lib_, var_, cfg).run(c);
  const auto steps = lib_.size_steps();
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind == CellKind::kInput) continue;
    bool on_grid = false;
    for (double s : steps) {
      if (std::abs(g.size - s) < 1e-12) on_grid = true;
    }
    EXPECT_TRUE(on_grid) << g.name;
    EXPECT_TRUE(g.vth == Vth::kLow || g.vth == Vth::kHigh);
  }
}

}  // namespace
}  // namespace statleak
