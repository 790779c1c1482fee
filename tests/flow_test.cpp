// Integration tests: the full experiment flow (report/flow) wiring both
// optimizers, metrics, and the Monte-Carlo cross-check together — exactly
// what every bench binary runs.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "flow_outcome_eq.hpp"
#include "gen/arithmetic.hpp"
#include "gen/proxy.hpp"
#include "report/flow.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"

namespace statleak {
namespace {

class FlowTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_F(FlowTest, MinAchievableDelayBelowMinSizeDelay) {
  const Circuit c = make_carry_lookahead_adder(16);
  const double d_min = min_achievable_delay_ps(c, lib_);
  Circuit minsize = c;
  // All-minimum-size delay is an upper bound on the sized optimum.
  const double d_minsize = StaEngine(minsize, lib_).critical_delay_ps();
  EXPECT_LT(d_min, d_minsize);
  EXPECT_GT(d_min, 0.0);
}

TEST_F(FlowTest, MinAchievableDelayDoesNotMutate) {
  const Circuit c = make_carry_lookahead_adder(8);
  Circuit copy = c;
  (void)min_achievable_delay_ps(copy, lib_);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    EXPECT_DOUBLE_EQ(copy.gate(id).size, c.gate(id).size);
    EXPECT_EQ(copy.gate(id).vth, c.gate(id).vth);
  }
}

TEST_F(FlowTest, OutcomeFieldsPopulated) {
  Circuit c = iscas85_proxy("c432p");
  FlowConfig cfg;
  cfg.t_max_factor = 1.2;
  cfg.det_corner_k = 3.0;
  cfg.mc_samples = 800;
  const FlowOutcome out = run_flow(c, lib_, var_, cfg);

  EXPECT_EQ(out.circuit_name, "c432p");
  EXPECT_GT(out.d_min_ps, 0.0);
  EXPECT_NEAR(out.t_max_ps, 1.2 * out.d_min_ps, 1e-9);
  EXPECT_EQ(out.det_corner_k, 3.0);
  EXPECT_GT(out.det_runtime_s, 0.0);
  EXPECT_GT(out.stat_runtime_s, 0.0);
  EXPECT_TRUE(out.has_mc);
  EXPECT_GT(out.det_mc.leakage_mean_na, 0.0);
  EXPECT_GT(out.stat_mc.leakage_p99_na, 0.0);
  EXPECT_GE(out.det_mc.timing_yield, 0.0);
  EXPECT_LE(out.det_mc.timing_yield, 1.0);
}

TEST_F(FlowTest, StatBeatsFixedWorstCaseCorner) {
  Circuit c = iscas85_proxy("c499p");
  FlowConfig cfg;
  cfg.t_max_factor = 1.15;
  cfg.det_corner_k = 3.0;
  const FlowOutcome out = run_flow(c, lib_, var_, cfg);
  EXPECT_GE(out.stat_metrics.timing_yield, cfg.yield_target - 1e-9);
  EXPECT_GT(out.p99_saving(), 0.0);
  EXPECT_GT(out.mean_saving(), 0.0);
}

TEST_F(FlowTest, AutoCornerFindsYieldMeetingBaseline) {
  Circuit c = iscas85_proxy("c432p");
  FlowConfig cfg;
  cfg.t_max_factor = 1.2;
  cfg.det_auto_corner = true;
  const FlowOutcome out = run_flow(c, lib_, var_, cfg);
  EXPECT_GE(out.det_metrics.timing_yield, cfg.yield_target - 0.02);
  // The chosen corner should be interior, not the 3-sigma fallback.
  EXPECT_LT(out.det_corner_k, 3.0);
}

TEST_F(FlowTest, CircuitHoldsStatisticalSolutionOnReturn) {
  Circuit c = make_carry_lookahead_adder(8);
  FlowConfig cfg;
  const FlowOutcome out = run_flow(c, lib_, var_, cfg);
  const CircuitMetrics m = measure_metrics(c, lib_, var_, out.t_max_ps);
  EXPECT_NEAR(m.leakage_p99_na, out.stat_metrics.leakage_p99_na,
              1e-6 * out.stat_metrics.leakage_p99_na);
}

TEST_F(FlowTest, RejectsBadFactor) {
  Circuit c = make_ripple_carry_adder(4);
  FlowConfig cfg;
  cfg.t_max_factor = 0.9;
  EXPECT_THROW(run_flow(c, lib_, var_, cfg), Error);
}

class TempJournal {
 public:
  explicit TempJournal(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  std::string bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

 private:
  std::string path_;
};

TEST_F(FlowTest, OutcomeAndJournalAreThreadCountInvariant) {
  // The deterministic and statistical branches run side by side when the
  // budget allows; the thread count must not move a bit of the outcome,
  // the statistical solution left on the circuit, or the journal.
  FlowConfig cfg;
  cfg.t_max_factor = 1.2;
  cfg.det_auto_corner = true;
  cfg.opt_checkpoint_every = 16;

  cfg.num_threads = 1;
  TempJournal ref_journal("flow_threads_1.journal");
  cfg.opt_checkpoint_path = ref_journal.path();
  Circuit ref_c = iscas85_proxy("c432p");
  const FlowOutcome ref = run_flow(ref_c, lib_, var_, cfg);
  const std::string ref_bytes = ref_journal.bytes();
  ASSERT_FALSE(ref_bytes.empty());
  ASSERT_TRUE(ref.completed);

  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    cfg.num_threads = threads;
    TempJournal journal("flow_threads_" + std::to_string(threads) +
                        ".journal");
    cfg.opt_checkpoint_path = journal.path();
    Circuit c = iscas85_proxy("c432p");
    const FlowOutcome out = run_flow(c, lib_, var_, cfg);
    expect_same_flow_outcome(ref, out);
    EXPECT_EQ(out.det_result.note, ref.det_result.note);
    EXPECT_EQ(out.stat_result.note, ref.stat_result.note);
    EXPECT_EQ(out.stat_result.replayed_moves, ref.stat_result.replayed_moves);
    expect_same_implementation(ref_c, c);
    EXPECT_TRUE(journal.bytes() == ref_bytes);
  }
}

TEST_F(FlowTest, ConcurrentBranchesReportDeterministically) {
  // Each branch writes its own registry and the flow merges them after the
  // join, deterministic first: two runs agree on everything but the time.
  FlowConfig cfg;
  cfg.t_max_factor = 1.2;
  cfg.det_auto_corner = true;
  cfg.num_threads = 2;
  obs::Registry regs[2];
  for (obs::Registry& reg : regs) {
    Circuit c = iscas85_proxy("c432p");
    (void)run_flow(c, lib_, var_, cfg, &reg);
  }
  const auto phase_calls = [](const obs::Registry& reg) {
    std::vector<std::pair<std::string, std::int64_t>> out;
    for (const obs::PhaseTime& p : reg.phases()) {
      out.emplace_back(p.name, p.calls);
    }
    return out;
  };
  const auto timeless_gauges = [](const obs::Registry& reg) {
    auto gauges = reg.gauges();
    std::erase_if(gauges, [](const auto& g) {
      return g.first == "flow.det_runtime_s" ||
             g.first == "flow.stat_runtime_s";
    });
    return gauges;
  };
  const auto names = phase_calls(regs[0]);
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names, phase_calls(regs[1]));
  // The deterministic branch's phases come before the statistical one's.
  const auto index_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i].first == name) return i;
    }
    ADD_FAILURE() << "missing phase " << name;
    return names.size();
  };
  EXPECT_LT(index_of("flow.d_min"), index_of("flow.det"));
  EXPECT_LT(index_of("flow.det"), index_of("flow.stat"));
  EXPECT_EQ(regs[0].counters(), regs[1].counters());
  EXPECT_GT(regs[0].counter_value("det.iterations"), 0.0);
  EXPECT_GT(regs[0].counter_value("stat.iterations"), 0.0);
  EXPECT_EQ(timeless_gauges(regs[0]), timeless_gauges(regs[1]));
  const auto streams = regs[0].trace_streams();
  ASSERT_FALSE(streams.empty());
  EXPECT_EQ(streams, regs[1].trace_streams());
  for (const std::string& stream : streams) {
    SCOPED_TRACE(stream);
    const auto a = regs[0].trace_events(stream);
    const auto b = regs[1].trace_events(stream);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].step, b[i].step);
      EXPECT_EQ(a[i].phase, b[i].phase);
      EXPECT_EQ(bits_of(a[i].objective), bits_of(b[i].objective));
      EXPECT_EQ(bits_of(a[i].yield), bits_of(b[i].yield));
      EXPECT_EQ(bits_of(a[i].delay_ps), bits_of(b[i].delay_ps));
      EXPECT_EQ(a[i].commits, b[i].commits);
      EXPECT_EQ(a[i].rejected, b[i].rejected);
    }
  }
  EXPECT_EQ(regs[0].config(), regs[1].config());
  EXPECT_EQ(regs[0].completed(), regs[1].completed());
}

TEST_F(FlowTest, SavingsHelpers) {
  FlowOutcome out;
  out.det_metrics.leakage_p99_na = 200.0;
  out.stat_metrics.leakage_p99_na = 150.0;
  out.det_metrics.leakage_mean_na = 100.0;
  out.stat_metrics.leakage_mean_na = 90.0;
  EXPECT_NEAR(out.p99_saving(), 0.25, 1e-12);
  EXPECT_NEAR(out.mean_saving(), 0.10, 1e-12);
  FlowOutcome zero;
  EXPECT_EQ(zero.p99_saving(), 0.0);
}

}  // namespace
}  // namespace statleak
