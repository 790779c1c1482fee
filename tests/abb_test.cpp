// Tests for the adaptive-body-bias extension and the .impl sidecar I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "abb/abb.hpp"
#include "gen/arithmetic.hpp"
#include "gen/proxy.hpp"
#include "netlist/impl_io.hpp"
#include "report/flow.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace statleak {
namespace {

// ------------------------------------------------------------- ladder ----

TEST(BodyBias, LadderContainsZeroAndIsAscending) {
  BodyBiasConfig abb;
  const auto ladder = abb.ladder();
  ASSERT_FALSE(ladder.empty());
  bool has_zero = false;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] == 0.0) has_zero = true;
    if (i > 0) {
      EXPECT_GT(ladder[i], ladder[i - 1]);
    }
  }
  EXPECT_TRUE(has_zero);
  EXPECT_NEAR(ladder.front(), abb.vbb_min_v, 1e-12);
  EXPECT_NEAR(ladder.back(), abb.vbb_max_v, 1e-9);
}

TEST(BodyBias, ValidateRejectsBadConfig) {
  BodyBiasConfig abb;
  abb.k_body_v_per_v = 0.0;
  EXPECT_THROW(abb.validate(), Error);
  abb = BodyBiasConfig{};
  abb.vbb_min_v = 0.1;  // ladder must include zero
  EXPECT_THROW(abb.validate(), Error);
  abb = BodyBiasConfig{};
  abb.vbb_step_v = -0.1;
  EXPECT_THROW(abb.validate(), Error);
}

// ----------------------------------------------------------- experiment ----

class AbbTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_F(AbbTest, CompensationTightensBothDistributions) {
  const Circuit c = iscas85_proxy("c432p");
  // The implementation under test stays min-size all-LVT, so the target is
  // set against ITS nominal delay: typical dies just meet it, slow dies
  // fail, fast dies have slack — the regime ABB targets.
  const double t_max = 1.02 * StaEngine(c, lib_).critical_delay_ps();
  BodyBiasConfig abb;
  McConfig mc;
  mc.num_samples = 1500;
  mc.seed = 3;
  const AbbResult res = run_abb_experiment(c, lib_, var_, abb, mc, t_max);

  ASSERT_EQ(res.baseline.delay_ps.size(), res.compensated.delay_ps.size());
  // Timing yield improves: slow dies take forward bias.
  EXPECT_GT(res.compensated.timing_yield(t_max),
            res.baseline.timing_yield(t_max) + 0.05);
  // Pointwise invariant: every die that met T without bias leaks no more
  // with ABB (zero bias is in the ladder; the policy minimizes leakage
  // among timing-feasible settings).
  for (std::size_t i = 0; i < res.baseline.delay_ps.size(); ++i) {
    if (res.baseline.delay_ps[i] <= t_max) {
      EXPECT_LE(res.compensated.leakage_na[i],
                res.baseline.leakage_na[i] * (1.0 + 1e-9));
    }
  }
  // The headline metric of the ABB literature: combined (frequency AND
  // power) yield. Cap = 3x the typical-die leakage.
  const double cap = 3.0 * res.baseline.leakage_summary().p50;
  EXPECT_GT(res.compensated.combined_yield(t_max, cap),
            res.baseline.combined_yield(t_max, cap) + 0.05);
}

TEST_F(AbbTest, UsesBothBiasDirections) {
  const Circuit c = iscas85_proxy("c432p");
  const double t_max = 1.02 * StaEngine(c, lib_).critical_delay_ps();
  BodyBiasConfig abb;
  McConfig mc;
  mc.num_samples = 1000;
  mc.seed = 5;
  const AbbResult res = run_abb_experiment(c, lib_, var_, abb, mc, t_max);
  EXPECT_GT(res.reverse_fraction(), 0.05);  // fast dies choked
  EXPECT_GT(res.forward_fraction(), 0.0);   // some slow dies rescued
  for (double v : res.bias_v) {
    EXPECT_GE(v, abb.vbb_min_v - 1e-12);
    EXPECT_LE(v, abb.vbb_max_v + 1e-9);
  }
}

TEST_F(AbbTest, ZeroLadderIsNoOpOnFeasibleDies) {
  const Circuit c = make_ripple_carry_adder(8);
  BodyBiasConfig abb;
  abb.vbb_min_v = 0.0;
  abb.vbb_max_v = 0.0;
  abb.vbb_step_v = 0.1;
  McConfig mc;
  mc.num_samples = 200;
  const double t_max = 1e9;  // everything feasible
  const AbbResult res = run_abb_experiment(c, lib_, var_, abb, mc, t_max);
  for (std::size_t i = 0; i < res.bias_v.size(); ++i) {
    EXPECT_EQ(res.bias_v[i], 0.0);
    EXPECT_NEAR(res.compensated.leakage_na[i], res.baseline.leakage_na[i],
                1e-9 * res.baseline.leakage_na[i]);
  }
}

TEST_F(AbbTest, PairedSamplesShareDraws) {
  // The baseline population must be identical to a plain MC run with the
  // same seed (the experiment is paired).
  const Circuit c = make_ripple_carry_adder(6);
  BodyBiasConfig abb;
  McConfig mc;
  mc.num_samples = 100;
  mc.seed = 11;
  const AbbResult res =
      run_abb_experiment(c, lib_, var_, abb, mc, 1e9);
  const McResult plain = run_monte_carlo(c, lib_, var_, mc);
  for (std::size_t i = 0; i < plain.delay_ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(res.baseline.delay_ps[i], plain.delay_ps[i]);
  }
}

TEST_F(AbbTest, RejectsConfigItIgnores) {
  // The baseline is only paired with run_monte_carlo for pseudo-random
  // draws, and the sweep writes no checkpoint: a Sobol, importance-shifted,
  // control-variate or checkpointing request must fail, not be ignored.
  const Circuit c = make_ripple_carry_adder(4);
  const BodyBiasConfig abb;
  McConfig plain;
  plain.num_samples = 8;
  EXPECT_NO_THROW((void)run_abb_experiment(c, lib_, var_, abb, plain, 1e9));

  McConfig sobol = plain;
  sobol.sampler = McSampler::kSobol;
  McConfig shifted = plain;
  shifted.is_shift = {0.0, -1.0};
  McConfig cv = plain;
  cv.control_variate = true;
  McConfig ckpt = plain;
  ckpt.checkpoint_path = "abb.ckpt";
  for (const McConfig& cfg : {sobol, shifted, cv, ckpt}) {
    EXPECT_THROW((void)run_abb_experiment(c, lib_, var_, abb, cfg, 1e9),
                 Error);
  }
}

// -------------------------------------------------------------- impl IO ----

TEST(ImplIo, RoundTrip) {
  Circuit c = make_ripple_carry_adder(4);
  const GateId g0 = c.outputs()[0];
  c.set_vth(g0, Vth::kHigh);
  c.set_size(g0, 4.0);

  std::ostringstream os;
  write_impl(os, c);

  Circuit fresh = make_ripple_carry_adder(4);
  std::istringstream is(os.str());
  const std::size_t updated = read_impl(is, fresh);
  EXPECT_EQ(updated, fresh.num_cells());
  for (GateId id = 0; id < c.num_gates(); ++id) {
    EXPECT_EQ(fresh.gate(id).vth, c.gate(id).vth);
    EXPECT_DOUBLE_EQ(fresh.gate(id).size, c.gate(id).size);
  }
}

TEST(ImplIo, PartialUpdateKeepsOthers) {
  Circuit c = make_ripple_carry_adder(4);
  const std::string name(c.gate(c.outputs()[0]).name);
  std::istringstream is(name + " HVT 2.3\n");
  EXPECT_EQ(read_impl(is, c), 1u);
  EXPECT_EQ(c.gate(c.outputs()[0]).vth, Vth::kHigh);
  EXPECT_DOUBLE_EQ(c.gate(c.outputs()[0]).size, 2.3);
}

TEST(ImplIo, CommentsAndBlanksIgnored) {
  Circuit c = make_ripple_carry_adder(4);
  std::istringstream is("# header\n\n   \n");
  EXPECT_EQ(read_impl(is, c), 0u);
}

TEST(ImplIo, Errors) {
  Circuit c = make_ripple_carry_adder(4);
  {
    std::istringstream is("no_such_gate HVT 1.0\n");
    EXPECT_THROW(read_impl(is, c), Error);
  }
  const std::string out(c.gate(c.outputs()[0]).name);
  {
    std::istringstream is(out + " MVT 1.0\n");
    EXPECT_THROW(read_impl(is, c), Error);
  }
  {
    std::istringstream is(out + " HVT -1.0\n");
    EXPECT_THROW(read_impl(is, c), Error);
  }
  {
    std::istringstream is(out + " HVT\n");
    EXPECT_THROW(read_impl(is, c), Error);
  }
  {
    // Primary inputs cannot carry an implementation.
    const std::string in(c.gate(c.inputs()[0]).name);
    std::istringstream is(in + " HVT 1.0\n");
    EXPECT_THROW(read_impl(is, c), Error);
  }
  EXPECT_THROW(read_impl_file("/nonexistent.impl", c), Error);
}

}  // namespace
}  // namespace statleak
