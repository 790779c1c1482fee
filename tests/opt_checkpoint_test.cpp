// Durable optimization: the statistical optimizer's CRC journal. Pins the
// headline guarantee — an interrupted run (deadline expiry, or any crash
// point simulated by truncating the journal at a committed-record boundary)
// resumes to the bit-identical trajectory and final implementation, across
// thread counts — plus the structured rejection of
// mismatched and corrupt journals, and the no-op verification replay of a
// completed journal.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gen/arithmetic.hpp"
#include "mc/checkpoint.hpp"
#include "mc/monte_carlo.hpp"
#include "obs/registry.hpp"
#include "opt/checkpoint.hpp"
#include "opt/statistical.hpp"
#include "report/flow.hpp"
#include "tech/process.hpp"
#include "util/journal.hpp"

namespace statleak {
namespace {

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void store_u32(std::vector<std::uint8_t>& bytes, std::size_t offset,
               std::uint32_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof v);
}

void store_u64(std::vector<std::uint8_t>& bytes, std::size_t offset,
               std::uint64_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof v);
}

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

/// A crash at any instant leaves a committed prefix of the journal; cutting
/// the file back to a record boundary (and re-stamping the header) is the
/// deterministic equivalent of every possible kill point.
std::vector<std::uint8_t> cut_at(const std::vector<std::uint8_t>& good,
                                 std::uint64_t boundary) {
  std::vector<std::uint8_t> cut(good.begin(), good.begin() + boundary);
  store_u64(cut, 24, boundary);  // committed_bytes
  store_u32(cut, 32, crc32(cut.data(), 32));
  return cut;
}

class OptCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Circuit probe = fresh_circuit();
    base_.t_max_ps = 1.15 * min_achievable_delay_ps(probe, lib_);
    base_.checkpoint_every = 20;  // several snapshots per run
  }

  Circuit fresh_circuit() const { return make_ripple_carry_adder(16); }

  OptResult run(OptConfig cfg, Circuit& c, obs::Registry* reg = nullptr) {
    return StatisticalOptimizer(lib_, var_, cfg).run(c, reg);
  }

  void expect_same_outcome(const OptResult& a, const OptResult& b) {
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.sizing_commits, b.sizing_commits);
    EXPECT_EQ(a.hvt_commits, b.hvt_commits);
    EXPECT_EQ(a.downsize_commits, b.downsize_commits);
    EXPECT_EQ(a.rejected_moves, b.rejected_moves);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.final_objective, b.final_objective);  // bitwise
  }

  CellLibrary lib_{generic_100nm()};
  VariationModel var_ = VariationModel::typical_100nm();
  OptConfig base_;
};

TEST_F(OptCheckpointTest, HashCoversTrajectoryInputsAndExcludesEngineKnobs) {
  const Circuit c = fresh_circuit();
  const std::uint64_t ref = opt_checkpoint_hash(c, lib_, var_, base_);

  // Everything that changes the trajectory changes the fingerprint...
  OptConfig seed = base_;
  seed.seed += 1;
  EXPECT_NE(opt_checkpoint_hash(c, lib_, var_, seed), ref);
  OptConfig tmax = base_;
  tmax.t_max_ps *= 1.01;
  EXPECT_NE(opt_checkpoint_hash(c, lib_, var_, tmax), ref);
  OptConfig eta = base_;
  eta.yield_target = 0.95;
  EXPECT_NE(opt_checkpoint_hash(c, lib_, var_, eta), ref);
  OptConfig pct = base_;
  pct.leakage_percentile = 0.9;
  EXPECT_NE(opt_checkpoint_hash(c, lib_, var_, pct), ref);
  const Circuit other = make_ripple_carry_adder(17);
  EXPECT_NE(opt_checkpoint_hash(other, lib_, var_, base_), ref);

  // ...while the trajectory-invariant performance/stop knobs are excluded,
  // so a journal hops freely between thread counts and deadlines.
  OptConfig knobs = base_;
  knobs.num_threads = 8;
  knobs.deadline_ms = 1234;
  knobs.checkpoint_every = 7;
  EXPECT_EQ(opt_checkpoint_hash(c, lib_, var_, knobs), ref);
}

// Both fingerprints mix the node's physical constants and the variation
// model's sigmas through one helper each (tech/process.hpp,
// tech/variation.hpp). Their values are pinned for a fixed circuit and
// config, with Pelgrom scaling off and on: a journal or checkpoint written
// by an earlier build must keep validating.
TEST(CheckpointFingerprintTest, ValuesArePinned) {
  const Circuit c = make_ripple_carry_adder(8);
  const CellLibrary lib(generic_100nm());
  VariationModel var = VariationModel::typical_100nm();
  OptConfig opt;
  opt.t_max_ps = 400.0;
  McConfig mc;
  mc.seed = 11;
  mc.num_samples = 1000;
  const std::vector<double> widths = mc_device_widths(c, lib);
  EXPECT_EQ(opt_checkpoint_hash(c, lib, var, opt), 0x51ea0dca89d37e1bu);
  EXPECT_EQ(mc_checkpoint_hash(c, var, mc, widths, lib.node()),
            0x5807b2b997559b68u);
  var.pelgrom_vth_scaling = true;
  EXPECT_EQ(opt_checkpoint_hash(c, lib, var, opt), 0x1d6aeb44cef0ee30u);
  EXPECT_EQ(mc_checkpoint_hash(c, var, mc, widths, lib.node()),
            0xb5a89bdbaaa27accu);
}

TEST_F(OptCheckpointTest, JournalingLeavesTheTrajectoryUntouched) {
  Circuit plain_c = fresh_circuit();
  const OptResult plain = run(base_, plain_c);
  ASSERT_TRUE(plain.completed);

  TempFile f("opt_ckpt_untouched.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();
  Circuit journaled_c = fresh_circuit();
  obs::Registry reg;
  const OptResult journaled = run(cfg, journaled_c, &reg);

  expect_same_outcome(plain, journaled);
  EXPECT_EQ(journaled.replayed_moves, 0);
  const Implementation a = snapshot(plain_c);
  const Implementation b = snapshot(journaled_c);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_TRUE(a.vths == b.vths);
  EXPECT_TRUE(journal_exists(f.path()));
  EXPECT_GT(reg.counter_value("opt.journal_records"), 0.0);
  EXPECT_GT(reg.counter_value("opt.journal_snapshots"), 0.0);
  EXPECT_EQ(reg.gauge_value("opt.resumed"), 0.0);
  EXPECT_EQ(reg.gauge_value("opt.journal_healthy"), 1.0);
}

TEST_F(OptCheckpointTest, CompletedJournalReplaysAsNoOpVerification) {
  TempFile f("opt_ckpt_complete.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();
  Circuit first_c = fresh_circuit();
  const OptResult first = run(cfg, first_c);
  ASSERT_TRUE(first.completed);
  const std::vector<std::uint8_t> bytes_before = read_bytes(f.path());

  Circuit again_c = fresh_circuit();
  obs::Registry reg;
  const OptResult again = run(cfg, again_c, &reg);
  expect_same_outcome(first, again);
  EXPECT_GT(again.replayed_moves, 0);
  EXPECT_EQ(reg.gauge_value("opt.resumed"), 1.0);
  const Implementation a = snapshot(first_c);
  const Implementation b = snapshot(again_c);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_TRUE(a.vths == b.vths);

  // A fully-replayed journal appends nothing: byte-identical file.
  EXPECT_EQ(read_bytes(f.path()), bytes_before);
}

TEST_F(OptCheckpointTest, TruncatedJournalResumesBitIdentically) {
  // Reference: one uninterrupted journaled run.
  TempFile f("opt_ckpt_resume.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();
  Circuit ref_c = fresh_circuit();
  const OptResult ref = run(cfg, ref_c);
  ASSERT_TRUE(ref.completed);
  const Implementation ref_impl = snapshot(ref_c);
  const std::vector<std::uint8_t> good = read_bytes(f.path());

  const std::uint64_t hash =
      opt_checkpoint_hash(fresh_circuit(), lib_, var_, base_);
  const JournalContents contents =
      load_journal(f.path(), opt_checkpoint_format(),
                   hash, fresh_circuit().num_gates());
  ASSERT_GT(contents.records.size(), 8u);

  // Crash points: almost nothing committed, mid-run, and all-but-complete.
  const std::vector<std::uint64_t> cuts = {
      contents.records[1].offset,
      contents.records[contents.records.size() / 2].offset,
      contents.records[contents.records.size() - 1].offset,
  };
  const int threads[] = {1, 2, 8};
  for (const std::uint64_t cut : cuts) {
    for (const int t : threads) {
      SCOPED_TRACE("cut " + std::to_string(cut) + " threads " +
                   std::to_string(t));
      write_bytes(f.path(), cut_at(good, cut));
      OptConfig resume_cfg = cfg;
      resume_cfg.num_threads = t;
      resume_cfg.checkpoint_every = 13;  // cadence may differ on resume
      Circuit c = fresh_circuit();
      const OptResult res = run(resume_cfg, c);
      EXPECT_TRUE(res.completed);
      EXPECT_GT(res.replayed_moves, 0);
      expect_same_outcome(ref, res);
      const Implementation impl = snapshot(c);
      EXPECT_EQ(impl.sizes, ref_impl.sizes);
      EXPECT_TRUE(impl.vths == ref_impl.vths);
    }
  }
}

TEST_F(OptCheckpointTest, DeadlineInterruptChainResumesToTheStraightRun) {
  Circuit ref_c = fresh_circuit();
  const OptResult ref = run(base_, ref_c);
  const Implementation ref_impl = snapshot(ref_c);

  TempFile f("opt_ckpt_deadline.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();

  // Two deadline-cut attempts (each may stop anywhere, including "nowhere"
  // and "done" — all are valid journal prefixes), then an unlimited one.
  for (const std::int64_t deadline : {std::int64_t{1}, std::int64_t{60}}) {
    OptConfig partial = cfg;
    partial.deadline_ms = deadline;
    Circuit c = fresh_circuit();
    (void)run(partial, c);
  }
  Circuit final_c = fresh_circuit();
  const OptResult res = run(cfg, final_c);
  EXPECT_TRUE(res.completed);
  expect_same_outcome(ref, res);
  const Implementation impl = snapshot(final_c);
  EXPECT_EQ(impl.sizes, ref_impl.sizes);
  EXPECT_TRUE(impl.vths == ref_impl.vths);
}

TEST_F(OptCheckpointTest, MismatchedConfigurationIsRejected) {
  TempFile f("opt_ckpt_mismatch.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();
  {
    Circuit c = fresh_circuit();
    (void)run(cfg, c);
  }
  // A different objective would walk a different trajectory: refuse to
  // resume rather than silently blend two runs.
  OptConfig other = cfg;
  other.yield_target = 0.95;
  Circuit c = fresh_circuit();
  EXPECT_THROW((void)run(other, c), CheckpointError);
}

TEST_F(OptCheckpointTest, CorruptJournalsAreStructuredErrors) {
  TempFile f("opt_ckpt_corrupt.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();
  {
    Circuit c = fresh_circuit();
    (void)run(cfg, c);
  }
  const std::vector<std::uint8_t> good = read_bytes(f.path());

  const auto expect_reject = [&](std::vector<std::uint8_t> bytes,
                                 const char* label) {
    write_bytes(f.path(), bytes);
    Circuit c = fresh_circuit();
    EXPECT_THROW((void)run(cfg, c), CheckpointError) << label;
  };

  {  // bad magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;
    expect_reject(bad, "bad magic");
  }
  {  // header CRC mismatch
    std::vector<std::uint8_t> bad = good;
    bad[32] ^= 0xFF;
    expect_reject(bad, "bad header crc");
  }
  {  // record CRC mismatch: flip a committed payload byte
    std::vector<std::uint8_t> bad = good;
    bad[kJournalHeaderBytes + kJournalRecordBytes + 5] ^= 0xFF;
    expect_reject(bad, "bad record crc");
  }
  {  // file shorter than committed_bytes
    std::vector<std::uint8_t> bad = good;
    bad.resize(bad.size() - 4);
    expect_reject(bad, "truncated committed region");
  }
  {  // plain garbage
    expect_reject(std::vector<std::uint8_t>(80, 0x5A), "garbage");
  }
}

TEST_F(OptCheckpointTest, TamperedVerdictIsReplayDivergence) {
  TempFile f("opt_ckpt_diverge.bin");
  OptConfig cfg = base_;
  cfg.checkpoint_path = f.path();
  {
    Circuit c = fresh_circuit();
    (void)run(cfg, c);
  }
  // Flip the accept verdict of the first move record and re-stamp its CRC:
  // the file is structurally pristine, but replay re-derives the verdict
  // from the rebuilt state and must refuse the contradiction.
  std::vector<std::uint8_t> bad = read_bytes(f.path());
  const std::size_t env = kJournalHeaderBytes;
  const std::size_t payload = env + kJournalRecordBytes;
  bad[payload + 2] ^= 1;  // accepted byte of the 24-byte move payload
  store_u32(bad, env + 12,
            crc32(bad.data() + payload, 24, crc32(bad.data() + env, 12)));
  write_bytes(f.path(), bad);
  Circuit c = fresh_circuit();
  EXPECT_THROW((void)run(cfg, c), CheckpointError);
}

TEST_F(OptCheckpointTest, FlowStatisticalPhaseResumesThroughItsJournal) {
  // End-to-end through run_flow: the statistical phase of a flow resumes a
  // cut journal and lands on the uninterrupted flow's implementation.
  TempFile f("opt_ckpt_flow.bin");
  FlowConfig flow;
  flow.opt_checkpoint_path = f.path();
  flow.opt_checkpoint_every = 20;

  Circuit ref_c = make_ripple_carry_adder(16);
  const FlowOutcome ref = run_flow(ref_c, lib_, var_, flow);
  ASSERT_TRUE(ref.completed);
  const Implementation ref_impl = snapshot(ref_c);
  const std::vector<std::uint8_t> good = read_bytes(f.path());

  // Cut the stat journal mid-way; the flow's config hash must line up with
  // what run_flow rebuilds internally, or this resume would be rejected.
  OptConfig stat_cfg;
  stat_cfg.t_max_ps = ref.t_max_ps;
  stat_cfg.yield_target = flow.yield_target;
  stat_cfg.leakage_percentile = flow.leakage_percentile;
  const JournalContents contents = load_journal(
      f.path(), opt_checkpoint_format(),
      opt_checkpoint_hash(make_ripple_carry_adder(16), lib_, var_, stat_cfg),
      make_ripple_carry_adder(16).num_gates());
  ASSERT_GT(contents.records.size(), 4u);
  write_bytes(f.path(),
              cut_at(good, contents.records[contents.records.size() / 2].offset));

  Circuit resumed_c = make_ripple_carry_adder(16);
  const FlowOutcome resumed = run_flow(resumed_c, lib_, var_, flow);
  EXPECT_TRUE(resumed.completed);
  EXPECT_GT(resumed.stat_result.replayed_moves, 0);
  expect_same_outcome(ref.stat_result, resumed.stat_result);
  const Implementation impl = snapshot(resumed_c);
  EXPECT_EQ(impl.sizes, ref_impl.sizes);
  EXPECT_TRUE(impl.vths == ref_impl.vths);
}

}  // namespace
}  // namespace statleak
