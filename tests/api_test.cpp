// Command-facade tests (api/driver.hpp): study loading from paths vs
// inline text, default resolution (delay targets, importance shifts), and
// the facade commands producing exactly what the underlying engines produce
// — the CLI and the distributed worker both ride this layer, so its
// equivalence to the engines is what keeps every front end in agreement.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/driver.hpp"
#include "gen/arithmetic.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/impl_io.hpp"
#include "obs/registry.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"

namespace statleak {
namespace {

class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string bench_text(const Circuit& c) {
  std::ostringstream out;
  write_bench(out, c);
  return out.str();
}

class ApiTest : public ::testing::Test {
 protected:
  Circuit circuit_ = make_ripple_carry_adder(12);
};

TEST_F(ApiTest, LoadStudyFromTextMatchesFile) {
  TempFile file("api_test_circuit.bench");
  {
    std::ofstream out(file.path());
    write_bench(out, circuit_);
  }
  api::StudyInput from_file;
  from_file.bench_path = file.path();
  api::StudyInput from_text;
  from_text.bench_text = bench_text(circuit_);
  from_text.circuit_name = circuit_.name();

  const api::LoadedStudy a = api::load_study(from_file);
  const api::LoadedStudy b = api::load_study(from_text);
  EXPECT_EQ(a.circuit.num_cells(), b.circuit.num_cells());
  EXPECT_EQ(a.impl_entries, 0u);
  // Same bytes parsed -> same nominal timing, the cheap full-equality probe.
  const double da = StaEngine(a.circuit, a.lib).critical_delay_ps();
  const double db = StaEngine(b.circuit, b.lib).critical_delay_ps();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(da), std::bit_cast<std::uint64_t>(db));
}

TEST_F(ApiTest, LoadStudyRejectsBadInputs) {
  api::StudyInput neither;
  EXPECT_THROW(api::load_study(neither), Error);

  api::StudyInput both;
  both.bench_path = "x.bench";
  both.bench_text = "INPUT(a)\n";
  EXPECT_THROW(api::load_study(both), Error);

  api::StudyInput bad_node;
  bad_node.bench_text = bench_text(circuit_);
  bad_node.node_nm = 65;
  EXPECT_THROW(api::load_study(bad_node), Error);

  api::StudyInput missing;
  missing.bench_path = "definitely_not_here.bench";
  EXPECT_THROW(api::load_study(missing), Error);
}

TEST_F(ApiTest, LoadStudyAppliesInlineImpl) {
  api::StudyInput input;
  input.bench_text = bench_text(circuit_);
  const api::LoadedStudy plain = api::load_study(input);

  // Re-emit the circuit's own implementation and apply it inline: every
  // cell gets an entry, and the result is unchanged.
  std::ostringstream impl;
  write_impl(impl, plain.circuit);
  input.impl_text = impl.str();
  const api::LoadedStudy with_impl = api::load_study(input);
  EXPECT_EQ(with_impl.impl_entries, plain.circuit.num_cells());
}

TEST_F(ApiTest, PrepareMcStudyResolvesDelayTarget) {
  api::McCommandConfig cfg;
  cfg.input.bench_text = bench_text(circuit_);
  cfg.mc.num_samples = 10;
  cfg.t_max_ps = 0.0;

  const api::McStudy study = api::prepare_mc_study(cfg);
  const double nominal =
      StaEngine(study.study.circuit, study.study.lib).critical_delay_ps();
  EXPECT_DOUBLE_EQ(study.t_max_ps, 1.1 * nominal);

  cfg.t_max_ps = 777.25;
  EXPECT_EQ(api::prepare_mc_study(cfg).t_max_ps, 777.25);
}

TEST_F(ApiTest, ImportanceAutoResolvesShiftOnce) {
  api::McCommandConfig cfg;
  cfg.input.bench_text = bench_text(circuit_);
  cfg.mc.num_samples = 10;
  cfg.importance_auto = true;

  const api::McStudy study = api::prepare_mc_study(cfg);
  EXPECT_TRUE(study.mc.is_shift.active());
  // The resolved config is what ships to workers: re-preparing from it with
  // importance_auto off must be a no-op (resolution happens exactly once).
  api::McCommandConfig resolved = cfg;
  resolved.importance_auto = false;
  resolved.mc = study.mc;
  resolved.t_max_ps = study.t_max_ps;
  const api::McStudy again = api::prepare_mc_study(resolved);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.mc.is_shift.l_sigma),
            std::bit_cast<std::uint64_t>(study.mc.is_shift.l_sigma));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.mc.is_shift.v_sigma),
            std::bit_cast<std::uint64_t>(study.mc.is_shift.v_sigma));
}

TEST_F(ApiTest, RunMcCommandMatchesEngineBitwise) {
  api::McCommandConfig cfg;
  cfg.input.bench_text = bench_text(circuit_);
  cfg.mc.num_samples = 300;
  cfg.mc.seed = 17;
  cfg.t_max_ps = 500.0;

  const api::McCommandResult r = api::run_mc_command(cfg);
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_EQ(r.t_max_ps, 500.0);

  const api::LoadedStudy study = api::load_study(cfg.input);
  const McResult direct =
      run_monte_carlo(study.circuit, study.lib, study.var, cfg.mc);
  ASSERT_EQ(r.result.delay_ps.size(), direct.delay_ps.size());
  for (std::size_t i = 0; i < direct.delay_ps.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.result.delay_ps[i]),
              std::bit_cast<std::uint64_t>(direct.delay_ps[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.result.leakage_na[i]),
              std::bit_cast<std::uint64_t>(direct.leakage_na[i]));
  }
}

TEST_F(ApiTest, RunMcCommandRecordsGauges) {
  api::McCommandConfig cfg;
  cfg.input.bench_text = bench_text(circuit_);
  cfg.mc.num_samples = 100;
  obs::Registry obs;
  const api::McCommandResult r = api::run_mc_command(cfg, &obs);
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_GT(obs.gauge_value("mc.delay_mean_ps"), 0.0);
  EXPECT_GT(obs.gauge_value("mc.leakage_mean_na"), 0.0);
}

TEST_F(ApiTest, McSummaryTextCarriesTheReportLines) {
  api::McCommandConfig cfg;
  cfg.input.bench_text = bench_text(circuit_);
  cfg.mc.num_samples = 100;
  const std::string text = api::mc_summary_text(api::run_mc_command(cfg));
  EXPECT_NE(text.find("delay"), std::string::npos);
  EXPECT_NE(text.find("leakage"), std::string::npos);
  EXPECT_NE(text.find("timing yield"), std::string::npos);
}

TEST_F(ApiTest, DeadlineExpiryReportsExitCode4) {
  api::McCommandConfig cfg;
  cfg.input.bench_text = bench_text(make_ripple_carry_adder(32));
  cfg.mc.num_samples = 2000000;  // cannot finish inside 1 ms
  cfg.mc.deadline_ms = 1;
  const api::McCommandResult r = api::run_mc_command(cfg);
  EXPECT_FALSE(r.result.completed);
  EXPECT_EQ(r.exit_code(), 4);
  // Under heavy load zero samples may finish, which swaps the deadline
  // note for the empty-budget one — both are the clean-stop report.
  const std::string text = api::mc_summary_text(r);
  EXPECT_TRUE(text.find("deadline") != std::string::npos ||
              text.find("no samples completed") != std::string::npos)
      << text;
}

TEST_F(ApiTest, RunOptimizeCommandIsDeterministic) {
  api::OptimizeCommandConfig cfg;
  cfg.input.bench_text = bench_text(circuit_);
  cfg.flow = api::OptimizeFlow::kStat;
  cfg.opt.seed = 3;

  const api::OptimizeCommandResult a = api::run_optimize_command(cfg);
  const api::OptimizeCommandResult b = api::run_optimize_command(cfg);
  EXPECT_EQ(a.exit_code(), 0);
  EXPECT_EQ(a.t_max_ps, b.t_max_ps);
  EXPECT_EQ(a.result.sizing_commits, b.result.sizing_commits);
  EXPECT_EQ(a.result.hvt_commits, b.result.hvt_commits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.metrics.leakage_mean_na),
            std::bit_cast<std::uint64_t>(b.metrics.leakage_mean_na));
  EXPECT_GT(a.metrics.timing_yield, 0.0);
}

TEST_F(ApiTest, RunFlowCommandCompletes) {
  api::FlowCommandConfig cfg;
  cfg.input.bench_text = bench_text(circuit_);
  cfg.flow.seed = 7;
  const api::FlowCommandResult r = api::run_flow_command(cfg);
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_TRUE(r.outcome.completed);
  EXPECT_GT(r.outcome.t_max_ps, 0.0);
  EXPECT_GT(r.outcome.stat_metrics.timing_yield, 0.0);
}

TEST_F(ApiTest, EveryCommandTimesTheNetlistLoadOnce) {
  const std::string text = bench_text(circuit_);
  const auto expect_one_load = [&](const obs::Registry& reg,
                                   const char* command) {
    std::int64_t calls = 0;
    for (const obs::PhaseTime& p : reg.phases()) {
      if (p.name == "netlist.load") calls += p.calls;
    }
    EXPECT_EQ(calls, 1) << command;
    EXPECT_EQ(reg.gauge_value("netlist.gates"),
              static_cast<double>(circuit_.num_gates()))
        << command;
  };
  {
    api::McCommandConfig cfg;
    cfg.input.bench_text = text;
    cfg.mc.num_samples = 16;
    obs::Registry reg;
    (void)api::run_mc_command(cfg, &reg);
    expect_one_load(reg, "mc");
  }
  {
    api::SweepCommandConfig cfg;
    cfg.input.bench_text = text;
    cfg.mc.num_samples = 16;
    obs::Registry reg;
    (void)api::run_sweep_command(cfg, &reg);
    expect_one_load(reg, "sweep");
  }
  {
    api::OptimizeCommandConfig cfg;
    cfg.input.bench_text = text;
    cfg.flow = api::OptimizeFlow::kDet;
    obs::Registry reg;
    (void)api::run_optimize_command(cfg, &reg);
    expect_one_load(reg, "optimize");
  }
  {
    api::FlowCommandConfig cfg;
    cfg.input.bench_text = text;
    obs::Registry reg;
    (void)api::run_flow_command(cfg, &reg);
    expect_one_load(reg, "flow");
  }
}

}  // namespace
}  // namespace statleak
