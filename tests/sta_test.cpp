// Unit tests for deterministic STA: load model, the critical-delay queries,
// and — through the full-pass oracle (graph_oracle.hpp) —
// arrival/required/slack algebra, critical-path extraction and per-sample
// modes.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gen/arithmetic.hpp"
#include "gen/random_dag.hpp"
#include "graph_oracle.hpp"
#include "mc_scalar_oracle.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/health.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

class StaTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

/// in -> inv1 -> inv2 -> inv3 -> out (a pure chain).
Circuit make_chain(int length) {
  Circuit c("chain" + std::to_string(length));
  GateId prev = c.add_input("in");
  for (int i = 0; i < length; ++i) {
    prev = c.add_gate("inv" + std::to_string(i), CellKind::kInv, {prev});
  }
  c.mark_output(prev);
  c.finalize();
  return c;
}

TEST_F(StaTest, ChainDelayIsSumOfGateDelays) {
  const Circuit c = make_chain(4);
  const StaEngine sta(c, lib_);
  double sum = 0.0;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    sum += oracle::gate_delay_ps(c, lib_, sta.loads(), id);
  }
  EXPECT_NEAR(sta.critical_delay_ps(), sum, 1e-9);
}

TEST_F(StaTest, LoadsIncludeReceiversWireAndPoLoad) {
  const Circuit c = make_chain(2);
  const StaEngine sta(c, lib_);
  const GateId inv0 = c.find("inv0");
  const GateId inv1 = c.find("inv1");
  // inv0 drives inv1: wire(1) + pin cap of inv1.
  EXPECT_NEAR(sta.loads().load_ff(inv0),
              lib_.wire_cap_ff(1) + lib_.pin_cap_ff(CellKind::kInv, 1.0),
              1e-12);
  // inv1 is a PO with no receivers: wire(0) + PO load.
  EXPECT_NEAR(sta.loads().load_ff(inv1),
              kPrimaryOutputLoadFactor * lib_.pin_cap_ff(CellKind::kInv, 1.0),
              1e-12);
}

TEST_F(StaTest, SlackIsRequiredMinusArrival) {
  Circuit c = make_chain(5);
  const double t_max = 500.0;
  const StaResult r = oracle::sta(c, lib_, t_max);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    EXPECT_NEAR(r.slack_ps[id], r.required_ps[id] - r.arrival_ps[id], 1e-9);
  }
  // On a pure chain every gate has the same slack = T - D.
  const double expected_slack = t_max - r.critical_delay_ps;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    EXPECT_NEAR(r.slack_ps[id], expected_slack, 1e-9);
  }
  EXPECT_NEAR(oracle::worst_slack_ps(r), expected_slack, 1e-9);
}

TEST_F(StaTest, ArrivalsMonotoneAlongEdges) {
  RandomDagSpec spec;
  spec.num_gates = 400;
  spec.seed = 8;
  const Circuit c = make_random_dag(spec);
  const StaResult r = oracle::sta(c, lib_, 1000.0);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    for (GateId f : c.gate(id).fanins) {
      EXPECT_GE(r.arrival_ps[id], r.arrival_ps[f]);
    }
  }
}

TEST_F(StaTest, CriticalPathIsConnectedAndCritical) {
  RandomDagSpec spec;
  spec.num_gates = 300;
  spec.seed = 12;
  const Circuit c = make_random_dag(spec);
  const StaEngine sta(c, lib_);
  const auto path = oracle::critical_path(c, lib_);
  ASSERT_GE(path.size(), 2u);
  // Path is connected input -> output.
  EXPECT_EQ(c.gate(path.front()).kind, CellKind::kInput);
  EXPECT_TRUE(c.is_output(path.back()));
  for (std::size_t i = 1; i < path.size(); ++i) {
    const auto& fanins = c.gate(path[i]).fanins;
    EXPECT_NE(std::find(fanins.begin(), fanins.end(), path[i - 1]),
              fanins.end());
  }
  // Path delay equals the critical delay.
  double sum = 0.0;
  for (GateId id : path) {
    sum += oracle::gate_delay_ps(c, lib_, sta.loads(), id);
  }
  EXPECT_NEAR(sum, sta.critical_delay_ps(), 1e-9);
}

TEST_F(StaTest, CornerSlowerThanNominalAndMonotoneInK) {
  const Circuit c = make_chain(6);
  const StaEngine sta(c, lib_);
  const double d0 = sta.critical_delay_ps();
  const double d1 = sta.corner_delay_ps(var_, 1.0);
  const double d3 = sta.corner_delay_ps(var_, 3.0);
  EXPECT_GT(d1, d0);
  EXPECT_GT(d3, d1);
}

TEST_F(StaTest, ZeroCornerEqualsNominal) {
  const Circuit c = make_chain(3);
  const StaEngine sta(c, lib_);
  EXPECT_NEAR(sta.corner_delay_ps(var_, 0.0), sta.critical_delay_ps(), 1e-9);
}

// The per-sample modes live in the Monte-Carlo test oracle
// (mc_scalar_oracle.hpp), the scalar reference of the batched MC kernels.

TEST_F(StaTest, SampleModeZeroEqualsNominal) {
  const Circuit c = make_chain(5);
  const StaEngine sta(c, lib_);
  std::vector<ParamSample> samples(c.num_gates());
  std::vector<double> scratch;
  EXPECT_NEAR(oracle::critical_delay_sample_ps(c, lib_, sta.loads(), samples,
                                               false, scratch),
              sta.critical_delay_ps(), 1e-9);
  EXPECT_NEAR(oracle::critical_delay_sample_ps(c, lib_, sta.loads(), samples,
                                               true, scratch),
              sta.critical_delay_ps(), 1e-9);
}

TEST_F(StaTest, LinearAndExactSampleModesAgreeForSmallSigma) {
  const Circuit c = make_chain(8);
  const LoadCache loads(c, lib_);
  std::vector<ParamSample> samples(c.num_gates(), ParamSample{0.8, 0.004});
  std::vector<double> scratch;
  const double lin =
      oracle::critical_delay_sample_ps(c, lib_, loads, samples, false, scratch);
  const double exact =
      oracle::critical_delay_sample_ps(c, lib_, loads, samples, true, scratch);
  EXPECT_NEAR(lin, exact, 0.02 * exact);
}

TEST_F(StaTest, SampleSizeMismatchThrows) {
  const Circuit c = make_chain(3);
  const LoadCache loads(c, lib_);
  std::vector<ParamSample> samples(2);
  std::vector<double> scratch;
  EXPECT_THROW(oracle::critical_delay_sample_ps(c, lib_, loads, samples, false,
                                                scratch),
               Error);
}

TEST_F(StaTest, IncrementalLoadsMatchRebuild) {
  Circuit c = make_carry_lookahead_adder(8);
  LoadCache loads(c, lib_);
  Rng rng(31);
  const auto steps = lib_.size_steps();
  for (int trial = 0; trial < 50; ++trial) {
    GateId id = static_cast<GateId>(rng.uniform_index(c.num_gates()));
    while (c.gate(id).kind == CellKind::kInput) {
      id = static_cast<GateId>(rng.uniform_index(c.num_gates()));
    }
    c.set_size(id, steps[rng.uniform_index(steps.size())]);
    loads.on_resize(id);
  }
  const LoadCache fresh(c, lib_);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    EXPECT_NEAR(loads.load_ff(id), fresh.load_ff(id), 1e-9)
        << "gate " << c.gate(id).name;
  }
}

TEST_F(StaTest, UpsizingHighFanoutDriverReducesDelay) {
  // in -> driver -> 12 parallel sinks -> OR-join. Upsizing the heavily
  // loaded driver is a clear win; upsizing a lightly loaded FO1 gate would
  // not be (its fanin load penalty dominates) — which is exactly the
  // trade-off the optimizer's net-gain test prices.
  Circuit c("fanout");
  const GateId in = c.add_input("in");
  const GateId driver = c.add_gate("driver", CellKind::kInv, {in});
  std::vector<GateId> sinks;
  for (int i = 0; i < 12; ++i) {
    sinks.push_back(
        c.add_gate("sink" + std::to_string(i), CellKind::kInv, {driver}));
  }
  GateId join = sinks[0];
  for (int i = 1; i < 12; ++i) {
    join = c.add_gate("or" + std::to_string(i), CellKind::kOr2,
                      {join, sinks[static_cast<std::size_t>(i)]});
  }
  c.mark_output(join);
  c.finalize();

  const double before = StaEngine(c, lib_).critical_delay_ps();
  c.set_size(driver, 4.0);
  EXPECT_LT(StaEngine(c, lib_).critical_delay_ps(), before);
}

TEST_F(StaTest, HvtSwapSlowsCircuit) {
  Circuit c = make_chain(6);
  StaEngine sta(c, lib_);
  const double before = sta.critical_delay_ps();
  c.set_vth(c.find("inv2"), Vth::kHigh);
  EXPECT_GT(sta.critical_delay_ps(), before);
}

// -------------------------------------------------------- numerical health ---

TEST_F(StaTest, NonFiniteTargetIsAStructuredErrorNotASilentClamp) {
  // A NaN or -inf delay target poisons every required time in the backward
  // pass. The old code silently clamped it into a plausible slack; now it
  // raises NumericalError naming the first affected gate.
  Circuit c = make_chain(3);
  EXPECT_THROW(
      (void)oracle::sta(c, lib_, std::numeric_limits<double>::quiet_NaN()),
      NumericalError);
  EXPECT_THROW(
      (void)oracle::sta(c, lib_, -std::numeric_limits<double>::infinity()),
      NumericalError);
}

TEST_F(StaTest, FloatingGateInfinityClampIsPreserved) {
  // A gate with no fanout and no output mark legitimately keeps +inf
  // required time; the clamp to t_max (the only sanctioned non-finite
  // value) must survive the health hardening.
  Circuit c("floating");
  const GateId in = c.add_input("in");
  const GateId used = c.add_gate("used", CellKind::kInv, {in});
  (void)c.add_gate("dangling", CellKind::kInv, {in});  // no fanout, no PO
  c.mark_output(used);
  c.finalize();
  const double t_max = 250.0;
  const StaResult r = oracle::sta(c, lib_, t_max);
  const GateId dangling = c.find("dangling");
  EXPECT_DOUBLE_EQ(r.required_ps[dangling], t_max);
  EXPECT_TRUE(std::isfinite(r.slack_ps[dangling]));
}

}  // namespace
}  // namespace statleak
