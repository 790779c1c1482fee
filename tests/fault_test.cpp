// Fault-injection harness tests (compiled only with
// -DSTATLEAK_FAULT_INJECTION=ON): every injection point is armed and its
// degradation path proven end to end — NaN quarantine / fail-fast, short
// checkpoint writes surviving as dropped tails, shard stalls tripping the
// deadline, and the optimizer dying mid-assignment-phase then resuming its
// journal bit-identically. Injections are addressed and deterministic, so
// each scenario reproduces exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "abb/abb.hpp"
#include "flow_outcome_eq.hpp"
#include "gen/arithmetic.hpp"
#include "gen/proxy.hpp"
#include "mc/checkpoint.hpp"
#include "mc/monte_carlo.hpp"
#include "opt/statistical.hpp"
#include "report/flow.hpp"
#include "spatial/placement.hpp"
#include "spatial/spatial_analysis.hpp"
#include "tech/process.hpp"
#include "util/fault.hpp"
#include "util/health.hpp"

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

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }

  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
  Circuit circuit_ = make_ripple_carry_adder(8);

  McConfig base_config() const {
    McConfig cfg;
    cfg.num_samples = 300;
    cfg.seed = 5;
    return cfg;
  }

  /// The median die delay: about half the dies meet it without bias.
  double abb_target() const {
    return run_monte_carlo(circuit_, lib_, var_, base_config())
        .delay_quantile_ps(0.5);
  }
};

TEST_F(FaultTest, BuildModeIsOn) {
  // This binary only exists in fault-injection builds.
  EXPECT_STREQ(fault::build_mode(), "on");
}

TEST_F(FaultTest, ArmCountAndResetSemantics) {
  fault::arm(fault::Point::kNanDeviate, 5, 2);
  EXPECT_FALSE(fault::fires(fault::Point::kNanDeviate, 4));  // wrong address
  EXPECT_TRUE(fault::fires(fault::Point::kNanDeviate, 5));
  EXPECT_TRUE(fault::fires(fault::Point::kNanDeviate, 5));
  EXPECT_FALSE(fault::fires(fault::Point::kNanDeviate, 5));  // count spent
  EXPECT_EQ(fault::fired_count(fault::Point::kNanDeviate), 2);
  EXPECT_EQ(fault::fired_count(fault::Point::kShortWrite), 0);

  fault::reset();
  EXPECT_FALSE(fault::fires(fault::Point::kNanDeviate, 5));
  EXPECT_EQ(fault::fired_count(fault::Point::kNanDeviate), 0);
}

TEST_F(FaultTest, NanDeviateFailsFastByDefault) {
  fault::arm(fault::Point::kNanDeviate, 17);
  const McConfig cfg = base_config();
  EXPECT_THROW((void)run_monte_carlo(circuit_, lib_, var_, cfg),
               NumericalError);
  EXPECT_EQ(fault::fired_count(fault::Point::kNanDeviate), 1);
}

TEST_F(FaultTest, NanDeviateQuarantinedAndExcised) {
  const McConfig clean_cfg = base_config();
  const McResult ref = run_monte_carlo(circuit_, lib_, var_, clean_cfg);

  fault::arm(fault::Point::kNanDeviate, 17);
  McConfig cfg = base_config();
  cfg.health_policy = HealthPolicy::kQuarantine;
  const McResult res = run_monte_carlo(circuit_, lib_, var_, cfg);

  ASSERT_EQ(res.quarantined.size(), 1u);
  EXPECT_EQ(res.quarantined[0].slot, 17u);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.samples_done, ref.delay_ps.size());
  ASSERT_EQ(res.delay_ps.size(), ref.delay_ps.size() - 1);
  // Only the poisoned slot is missing; every survivor is bitwise what the
  // clean run produced.
  for (std::size_t i = 0, out = 0; i < ref.delay_ps.size(); ++i) {
    if (i == 17) continue;
    ASSERT_EQ(ref.delay_ps[i], res.delay_ps[out]) << "slot " << i;
    ASSERT_EQ(ref.leakage_na[i], res.leakage_na[out]) << "slot " << i;
    ++out;
  }
}

TEST_F(FaultTest, QuarantineIdenticalAcrossEngines) {
  // The same injected fault quarantines the same slot and leaves the same
  // survivors whether the population is evaluated in auto-sized blocks or
  // one sample at a time.
  McConfig cfg = base_config();
  cfg.health_policy = HealthPolicy::kQuarantine;

  fault::arm(fault::Point::kNanDeviate, 42, /*count=*/-1);
  cfg.batch_size = 0;
  const McResult batched = run_monte_carlo(circuit_, lib_, var_, cfg);
  cfg.batch_size = 1;
  const McResult scalar = run_monte_carlo(circuit_, lib_, var_, cfg);

  ASSERT_EQ(batched.quarantined.size(), 1u);
  ASSERT_EQ(scalar.quarantined.size(), 1u);
  EXPECT_EQ(batched.quarantined[0].slot, scalar.quarantined[0].slot);
  EXPECT_EQ(batched.quarantined[0].cause, scalar.quarantined[0].cause);
  ASSERT_EQ(batched.delay_ps.size(), scalar.delay_ps.size());
  for (std::size_t i = 0; i < batched.delay_ps.size(); ++i) {
    ASSERT_EQ(batched.delay_ps[i], scalar.delay_ps[i]) << "sample " << i;
    ASSERT_EQ(batched.leakage_na[i], scalar.leakage_na[i]) << "sample " << i;
  }
}

TEST_F(FaultTest, AbbNanDeviateQuarantinesThePairedDie) {
  // The ABB experiment draws its dies through the engine's die draw, so the
  // same injected NaN reaches it. Under quarantine the poisoned die leaves
  // baseline, compensated and bias together; every survivor is bitwise what
  // the clean run produced.
  const BodyBiasConfig abb;
  const double t_max = abb_target();
  const McConfig clean_cfg = base_config();
  const AbbResult ref =
      run_abb_experiment(circuit_, lib_, var_, abb, clean_cfg, t_max);

  fault::arm(fault::Point::kNanDeviate, 17);
  McConfig cfg = base_config();
  cfg.health_policy = HealthPolicy::kQuarantine;
  const AbbResult res =
      run_abb_experiment(circuit_, lib_, var_, abb, cfg, t_max);
  EXPECT_EQ(fault::fired_count(fault::Point::kNanDeviate), 1);

  for (const McResult* pop : {&res.baseline, &res.compensated}) {
    ASSERT_EQ(pop->quarantined.size(), 1u);
    EXPECT_EQ(pop->quarantined[0].slot, 17u);
    EXPECT_EQ(pop->samples_done, ref.bias_v.size());
  }
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.dies_done, ref.bias_v.size());
  const std::size_t survivors = ref.bias_v.size() - 1;
  ASSERT_EQ(res.baseline.delay_ps.size(), survivors);
  ASSERT_EQ(res.baseline.leakage_na.size(), survivors);
  ASSERT_EQ(res.compensated.delay_ps.size(), survivors);
  ASSERT_EQ(res.compensated.leakage_na.size(), survivors);
  ASSERT_EQ(res.bias_v.size(), survivors);
  for (std::size_t i = 0, out = 0; i < ref.bias_v.size(); ++i) {
    if (i == 17) continue;
    ASSERT_EQ(ref.baseline.delay_ps[i], res.baseline.delay_ps[out]) << i;
    ASSERT_EQ(ref.baseline.leakage_na[i], res.baseline.leakage_na[out]) << i;
    ASSERT_EQ(ref.compensated.delay_ps[i], res.compensated.delay_ps[out])
        << i;
    ASSERT_EQ(ref.compensated.leakage_na[i], res.compensated.leakage_na[out])
        << i;
    ASSERT_EQ(ref.bias_v[i], res.bias_v[out]) << i;
    ++out;
  }
}

TEST_F(FaultTest, AbbNanDeviateFailsFastByDefault) {
  const BodyBiasConfig abb;
  const double t_max = abb_target();
  fault::arm(fault::Point::kNanDeviate, 17);
  const McConfig cfg = base_config();
  EXPECT_THROW(
      (void)run_abb_experiment(circuit_, lib_, var_, abb, cfg, t_max),
      NumericalError);
  EXPECT_EQ(fault::fired_count(fault::Point::kNanDeviate), 1);
}

TEST_F(FaultTest, ShortWriteLeavesDroppedTailAndResumesCleanly) {
  // Kill the writer mid-flush on its third record: the torn bytes land past
  // committed_bytes, the header never advances, and the writer plays dead —
  // exactly a process that died mid-checkpoint. The file still loads (tail
  // dropped), and a resume completes to the bit-identical population.
  const McConfig clean_cfg = base_config();
  const McResult ref = run_monte_carlo(circuit_, lib_, var_, clean_cfg);

  TempFile f("fault_shortwrite.bin");
  fault::arm(fault::Point::kShortWrite, 2);
  McConfig cfg = base_config();
  cfg.checkpoint_path = f.path();
  cfg.checkpoint_every = 32;
  cfg.num_threads = 1;  // deterministic append order
  const McResult first = run_monte_carlo(circuit_, lib_, var_, cfg);
  EXPECT_TRUE(first.completed);  // the run survives; only the file is short
  EXPECT_EQ(fault::fired_count(fault::Point::kShortWrite), 1);

  fault::reset();
  McConfig resume_cfg = base_config();
  resume_cfg.checkpoint_path = f.path();
  const McResult res = run_monte_carlo(circuit_, lib_, var_, resume_cfg);
  EXPECT_TRUE(res.completed);
  // Exactly the two committed records were restored — at least the cadence
  // worth of samples each, and nothing from the torn third record onward.
  EXPECT_GE(res.samples_restored, 64u);
  EXPECT_LT(res.samples_restored,
            static_cast<std::uint64_t>(clean_cfg.num_samples));
  ASSERT_EQ(res.delay_ps.size(), ref.delay_ps.size());
  for (std::size_t i = 0; i < ref.delay_ps.size(); ++i) {
    ASSERT_EQ(ref.delay_ps[i], res.delay_ps[i]) << "sample " << i;
    ASSERT_EQ(ref.leakage_na[i], res.leakage_na[i]) << "sample " << i;
  }
}

TEST_F(FaultTest, ShortWriteKillsWriterNotRun) {
  TempFile f("fault_writer_dead.bin");
  fault::arm(fault::Point::kShortWrite, 0);  // die on the very first record
  auto w = CheckpointWriter::create(f.path(), 1234, 10);
  const std::vector<double> vals = {1.0, 2.0};
  w->append(0, vals, vals);
  EXPECT_FALSE(w->healthy());
  EXPECT_EQ(w->records_appended(), 0u);
  w->append(2, vals, vals);  // silently dropped, like a dead process
  EXPECT_EQ(w->records_appended(), 0u);

  // Nothing was committed; the file is a valid, empty checkpoint with a
  // torn tail.
  const CheckpointData data = load_checkpoint(f.path(), 1234, 10);
  EXPECT_EQ(data.done_count, 0u);
  EXPECT_GT(data.dropped_tail_bytes, 0u);
}

struct Implementation {
  std::vector<double> sizes;
  std::vector<Vth> vths;
};

Implementation snapshot(const Circuit& c) {
  Implementation impl;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    impl.sizes.push_back(c.gate(id).size);
    impl.vths.push_back(c.gate(id).vth);
  }
  return impl;
}

class OptFaultTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    Circuit probe = make_ripple_carry_adder(16);
    base_.t_max_ps = 1.15 * min_achievable_delay_ps(probe, lib_);
    base_.checkpoint_every = 20;
  }

  Circuit fresh_circuit() const { return make_ripple_carry_adder(16); }

  OptResult run(const OptConfig& cfg, Circuit& c) {
    return StatisticalOptimizer(lib_, var_, cfg).run(c);
  }

  void expect_matches_reference(const OptResult& ref,
                                const Implementation& ref_impl,
                                const OptResult& res, const Circuit& c) {
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.sizing_commits, ref.sizing_commits);
    EXPECT_EQ(res.hvt_commits, ref.hvt_commits);
    EXPECT_EQ(res.downsize_commits, ref.downsize_commits);
    EXPECT_EQ(res.rejected_moves, ref.rejected_moves);
    EXPECT_EQ(res.final_objective, ref.final_objective);  // bitwise
    const Implementation impl = snapshot(c);
    EXPECT_EQ(impl.sizes, ref_impl.sizes);
    EXPECT_TRUE(impl.vths == ref_impl.vths);
  }

  OptConfig base_;
};

TEST_F(OptFaultTest, AssignPhaseKillThenResumeBitIdentical) {
  // The headline crash drill: the process "dies" (InjectedCrash) right
  // after the journal committed the 4th accepted assignment-phase move —
  // mid-phase, state strewn across lock masks and round counters. The
  // journal is exactly the committed prefix; the resume replays it and
  // finishes bit-identically to a run that never crashed.
  Circuit ref_c = fresh_circuit();
  const OptResult ref = run(base_, ref_c);
  const Implementation ref_impl = snapshot(ref_c);
  ASSERT_GT(ref.hvt_commits + ref.downsize_commits, 4);

  TempFile f("fault_opt_kill.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();
  fault::arm(fault::Point::kOptAssignKill, 4);
  {
    Circuit c = fresh_circuit();
    EXPECT_THROW((void)run(cfg, c), fault::InjectedCrash);
  }
  EXPECT_EQ(fault::fired_count(fault::Point::kOptAssignKill), 1);

  fault::reset();
  Circuit c = fresh_circuit();
  const OptResult res = run(cfg, c);
  EXPECT_GT(res.replayed_moves, 0);
  expect_matches_reference(ref, ref_impl, res, c);
}

TEST_F(OptFaultTest, JournalShortWriteDropsTailAndResumes) {
  // A short write tears the Nth journal record mid-flush: the writer plays
  // dead (the rest of the run journals nothing, like a dead disk), the run
  // itself still completes, and the torn bytes sit past committed_bytes.
  // Resuming from that prefix re-scans the un-journaled remainder and lands
  // on the bit-identical result.
  Circuit ref_c = fresh_circuit();
  const OptResult ref = run(base_, ref_c);
  const Implementation ref_impl = snapshot(ref_c);

  TempFile f("fault_opt_shortwrite.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();
  fault::arm(fault::Point::kShortWrite, 9);
  {
    Circuit c = fresh_circuit();
    const OptResult first = run(cfg, c);
    EXPECT_TRUE(first.completed);  // only the journal died, not the run
  }
  EXPECT_EQ(fault::fired_count(fault::Point::kShortWrite), 1);

  fault::reset();
  Circuit c = fresh_circuit();
  const OptResult res = run(cfg, c);
  EXPECT_EQ(res.replayed_moves, 9);  // exactly the committed prefix
  expect_matches_reference(ref, ref_impl, res, c);
}

TEST_F(FaultTest, FlowStatBranchKillThenResumeBitIdentical) {
  // The same crash inside run_flow, whose deterministic and statistical
  // branches run side by side: the crash escapes only after the join (the
  // deterministic branch's report is merged in full), and a rerun over the
  // journal reproduces the uninterrupted outcome bit for bit.
  FlowConfig cfg;
  cfg.t_max_factor = 1.2;
  cfg.det_auto_corner = true;
  cfg.num_threads = 2;
  cfg.opt_checkpoint_every = 16;
  obs::Registry ref_reg;
  Circuit ref_c = iscas85_proxy("c432p");
  const FlowOutcome ref = run_flow(ref_c, lib_, var_, cfg, &ref_reg);
  ASSERT_GT(ref.stat_result.hvt_commits + ref.stat_result.downsize_commits,
            4);

  TempFile f("fault_flow_kill.bin");
  cfg.opt_checkpoint_path = f.path();
  fault::arm(fault::Point::kOptAssignKill, 4);
  {
    obs::Registry reg;
    Circuit c = iscas85_proxy("c432p");
    EXPECT_THROW((void)run_flow(c, lib_, var_, cfg, &reg),
                 fault::InjectedCrash);
    EXPECT_EQ(reg.counter_value("det.iterations"),
              ref_reg.counter_value("det.iterations"));
    EXPECT_EQ(reg.trace_events("det").size(),
              ref_reg.trace_events("det").size());
    // The statistical branch's partial trace is merged too.
    EXPECT_GT(reg.trace_events("stat").size(), 0u);
    EXPECT_LT(reg.trace_events("stat").size(),
              ref_reg.trace_events("stat").size());
  }
  EXPECT_EQ(fault::fired_count(fault::Point::kOptAssignKill), 1);

  fault::reset();
  Circuit c = iscas85_proxy("c432p");
  const FlowOutcome res = run_flow(c, lib_, var_, cfg);
  EXPECT_GT(res.stat_result.replayed_moves, 0);
  expect_same_flow_outcome(ref, res);
  expect_same_implementation(ref_c, c);
}

TEST_F(FaultTest, ShardStallTripsTheDeadline) {
  // A stalled shard (address 0 stalls 200 ms) against a 40 ms budget: the
  // loop notices at the next block boundary, stops cleanly, and flags the
  // partial result — no exception, no hang.
  fault::arm(fault::Point::kShardStall, 0);
  fault::set_stall_ms(200);
  McConfig cfg = base_config();
  cfg.num_samples = 50000;
  cfg.deadline_ms = 40;
  cfg.num_threads = 1;
  const McResult res = run_monte_carlo(circuit_, lib_, var_, cfg);
  EXPECT_EQ(fault::fired_count(fault::Point::kShardStall), 1);
  EXPECT_FALSE(res.completed);
  EXPECT_LT(res.samples_done, res.samples_requested);
  EXPECT_EQ(res.delay_ps.size(), res.samples_done);

  // The ABB experiment and spatial MC run the same block loop, so the same
  // stall trips their deadlines; ABB's partial populations stay paired.
  fault::reset();
  fault::arm(fault::Point::kShardStall, 0);
  fault::set_stall_ms(200);
  const AbbResult abb = run_abb_experiment(circuit_, lib_, var_,
                                           BodyBiasConfig{}, cfg, 1000.0);
  EXPECT_EQ(fault::fired_count(fault::Point::kShardStall), 1);
  EXPECT_FALSE(abb.completed);
  EXPECT_FALSE(abb.baseline.completed);
  EXPECT_FALSE(abb.compensated.completed);
  EXPECT_LT(abb.dies_done, abb.dies_requested);
  EXPECT_EQ(abb.baseline.delay_ps.size(), abb.dies_done);
  EXPECT_EQ(abb.baseline.leakage_na.size(), abb.dies_done);
  EXPECT_EQ(abb.compensated.delay_ps.size(), abb.dies_done);
  EXPECT_EQ(abb.compensated.leakage_na.size(), abb.dies_done);
  EXPECT_EQ(abb.bias_v.size(), abb.dies_done);

  fault::reset();
  fault::arm(fault::Point::kShardStall, 0);
  fault::set_stall_ms(200);
  SpatialVariationModel model;
  model.base = var_;
  const McResult spatial = run_monte_carlo_spatial(
      circuit_, lib_, model, make_topological_placement(circuit_, 2), cfg);
  EXPECT_EQ(fault::fired_count(fault::Point::kShardStall), 1);
  EXPECT_FALSE(spatial.completed);
  EXPECT_LT(spatial.samples_done, spatial.samples_requested);
  EXPECT_EQ(spatial.delay_ps.size(), spatial.samples_done);
  EXPECT_EQ(spatial.leakage_na.size(), spatial.samples_done);
}

}  // namespace
}  // namespace statleak
