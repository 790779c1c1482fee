// Checkpoint/resume for long Monte-Carlo runs: the wire format (CRC-32,
// two-phase commit, structured rejection of every corruption class) and the
// headline guarantee — a killed-and-resumed run is bit-identical to an
// uninterrupted one for any cut point, engine, and thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gen/arithmetic.hpp"
#include "mc/checkpoint.hpp"
#include "mc/monte_carlo.hpp"
#include "tech/process.hpp"
#include "util/health.hpp"

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

std::uint64_t load_u64(const std::vector<std::uint8_t>& bytes,
                       std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

void store_u32(std::vector<std::uint8_t>& bytes, std::size_t offset,
               std::uint32_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof v);
}

void store_u64(std::vector<std::uint8_t>& bytes, std::size_t offset,
               std::uint64_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof v);
}

/// Scoped temp file in the test working directory.
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

class CheckpointTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
  Circuit circuit_ = make_ripple_carry_adder(8);

  McConfig base_config() const {
    McConfig cfg;
    cfg.num_samples = 400;
    cfg.seed = 5;
    return cfg;
  }

  /// Per-gate device widths as run_monte_carlo derives them (-1 = input).
  std::vector<double> device_widths() const {
    std::vector<double> widths(circuit_.num_gates(), -1.0);
    for (GateId id = 0; id < circuit_.num_gates(); ++id) {
      const Gate& g = circuit_.gate(id);
      if (g.kind != CellKind::kInput) {
        widths[id] = lib_.area_um(g.kind, g.size);
      }
    }
    return widths;
  }

  /// The config hash run_monte_carlo would compute for base_config(),
  /// recovered from a checkpoint file it wrote (header offset 8).
  std::uint64_t reference_hash(const std::string& scratch_path) {
    McConfig cfg = base_config();
    cfg.checkpoint_path = scratch_path;
    (void)run_monte_carlo(circuit_, lib_, var_, cfg);
    const std::vector<std::uint8_t> bytes = read_bytes(scratch_path);
    return load_u64(bytes, 8);
  }
};

// ---------------------------------------------------------------- format ---

TEST(Crc32Test, MatchesIeeeCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsIncrementally) {
  const char data[] = "chained-crc-data";
  const std::uint32_t whole = crc32(data, sizeof data - 1);
  const std::uint32_t first = crc32(data, 7);
  const std::uint32_t rest = crc32(data + 7, sizeof data - 1 - 7, first);
  EXPECT_EQ(whole, rest);
}

TEST_F(CheckpointTest, WriterRoundTrip) {
  TempFile f("ckpt_roundtrip.bin");
  const std::uint64_t hash = 0xABCDEF12u;
  const std::uint64_t n = 10;
  {
    auto w = CheckpointWriter::create(f.path(), hash, n);
    const std::vector<double> d1 = {1.0, 2.0, 3.0};
    const std::vector<double> l1 = {10.0, 20.0, 30.0};
    w->append(0, d1, l1);
    const std::vector<double> d2 = {7.5, 8.5};
    const std::vector<double> l2 = {70.5, 80.5};
    w->append(7, d2, l2);
    EXPECT_TRUE(w->healthy());
    EXPECT_EQ(w->records_appended(), 2u);
  }
  const CheckpointData data = load_checkpoint(f.path(), hash, n);
  EXPECT_EQ(data.num_samples, n);
  EXPECT_EQ(data.done_count, 5u);
  EXPECT_EQ(data.dropped_tail_bytes, 0u);
  const std::vector<std::uint8_t> want_done = {1, 1, 1, 0, 0, 0, 0, 1, 1, 0};
  EXPECT_EQ(data.done, want_done);
  EXPECT_EQ(data.delay_ps[1], 2.0);
  EXPECT_EQ(data.leakage_na[2], 30.0);
  EXPECT_EQ(data.delay_ps[8], 8.5);
  EXPECT_EQ(data.leakage_na[7], 70.5);
  EXPECT_EQ(data.delay_ps[5], 0.0);  // undone slot
}

TEST_F(CheckpointTest, ExistsOnlyForNonEmptyFiles) {
  TempFile f("ckpt_exists.bin");
  EXPECT_FALSE(checkpoint_exists(f.path()));
  write_bytes(f.path(), {});
  EXPECT_FALSE(checkpoint_exists(f.path()));
  write_bytes(f.path(), {1, 2, 3});
  EXPECT_TRUE(checkpoint_exists(f.path()));
}

// ------------------------------------------------------------- rejection ---
// Every corruption class is a structured CheckpointError naming the file,
// never UB and never a silently wrong restore.

TEST_F(CheckpointTest, RejectsTruncatedHeader) {
  TempFile f("ckpt_trunc_header.bin");
  write_bytes(f.path(), std::vector<std::uint8_t>(12, 0x5A));
  EXPECT_THROW((void)load_checkpoint(f.path(), 1, 10), CheckpointError);
}

TEST_F(CheckpointTest, RejectsGarbage) {
  TempFile f("ckpt_garbage.bin");
  write_bytes(f.path(), std::vector<std::uint8_t>(64, 0x5A));
  try {
    (void)load_checkpoint(f.path(), 1, 10);
    FAIL() << "garbage accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos);
  }
}

TEST_F(CheckpointTest, RejectsEachCorruptionClass) {
  TempFile f("ckpt_corrupt.bin");
  const std::uint64_t hash = 77;
  const std::uint64_t n = 10;
  {
    auto w = CheckpointWriter::create(f.path(), hash, n);
    const std::vector<double> vals = {1.0, 2.0, 3.0, 4.0};
    w->append(2, vals, vals);
  }
  const std::vector<std::uint8_t> good = read_bytes(f.path());
  ASSERT_GE(good.size(), kCheckpointHeaderBytes);

  const auto expect_reject = [&](std::vector<std::uint8_t> bytes,
                                 const char* label,
                                 bool fix_header_crc = false) {
    if (fix_header_crc) store_u32(bytes, 32, crc32(bytes.data(), 32));
    write_bytes(f.path(), bytes);
    EXPECT_THROW((void)load_checkpoint(f.path(), hash, n), CheckpointError)
        << label;
  };

  {  // bad magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;
    expect_reject(bad, "bad magic");
  }
  {  // unknown version (header CRC re-stamped so only the version trips)
    std::vector<std::uint8_t> bad = good;
    store_u32(bad, 4, kCheckpointVersion + 9);
    expect_reject(bad, "bad version", /*fix_header_crc=*/true);
  }
  {  // header CRC mismatch
    std::vector<std::uint8_t> bad = good;
    bad[32] ^= 0xFF;
    expect_reject(bad, "bad header crc");
  }
  // The v2 record envelope: payload_len u64 @ +0, kind u32 @ +8, crc u32
  // @ +12 (CRC of those 12 bytes chained over the payload), payload after.
  const std::size_t env = kCheckpointHeaderBytes;        // first record
  const std::size_t payload = env + kJournalRecordBytes; // its payload
  const std::size_t payload_len = 16 + 2 * 4 * sizeof(double);
  const auto restamp_record_crc = [&](std::vector<std::uint8_t>& bytes) {
    store_u32(bytes, env + 12,
              crc32(bytes.data() + payload, payload_len,
                    crc32(bytes.data() + env, 12)));
  };

  {  // record CRC mismatch: flip one payload byte inside the committed region
    std::vector<std::uint8_t> bad = good;
    bad[payload + 16 + 3] ^= 0xFF;  // third delay byte, past begin/count
    expect_reject(bad, "bad record crc");
  }
  {  // unknown record kind (record CRC re-stamped so only the kind trips)
    std::vector<std::uint8_t> bad = good;
    store_u32(bad, env + 8, 7);
    restamp_record_crc(bad);
    expect_reject(bad, "bad record kind");
  }
  {  // record overruns the population: begin pushed past num_samples - count
    std::vector<std::uint8_t> bad = good;
    store_u64(bad, payload, 8);  // begin 2 -> 8, count 4
    restamp_record_crc(bad);
    expect_reject(bad, "record overrun");
  }
  {  // malformed payload: count claims more doubles than the record holds
    std::vector<std::uint8_t> bad = good;
    store_u64(bad, payload + 8, 6);  // count 4 -> 6, begin still in range
    restamp_record_crc(bad);
    expect_reject(bad, "malformed payload length");
  }
  {  // file shorter than committed_bytes
    std::vector<std::uint8_t> bad = good;
    bad.resize(bad.size() - 8);
    expect_reject(bad, "truncated committed region");
  }
  {  // config-hash mismatch
    write_bytes(f.path(), good);
    EXPECT_THROW((void)load_checkpoint(f.path(), hash + 1, n),
                 CheckpointError);
  }
  {  // population-size mismatch
    write_bytes(f.path(), good);
    EXPECT_THROW((void)load_checkpoint(f.path(), hash, n + 1),
                 CheckpointError);
  }
  // The untouched file still loads — the harness corrupts, not the writer.
  write_bytes(f.path(), good);
  EXPECT_EQ(load_checkpoint(f.path(), hash, n).done_count, 4u);
}

TEST_F(CheckpointTest, UncommittedTailIsDroppedNotFatal) {
  // A crash mid-append leaves flushed bytes past committed_bytes; the
  // two-phase commit makes them ignorable, not fatal.
  TempFile f("ckpt_tail.bin");
  const std::uint64_t hash = 9;
  const std::uint64_t n = 6;
  {
    auto w = CheckpointWriter::create(f.path(), hash, n);
    const std::vector<double> vals = {1.0, 2.0};
    w->append(0, vals, vals);
  }
  std::vector<std::uint8_t> bytes = read_bytes(f.path());
  for (int i = 0; i < 13; ++i) bytes.push_back(0xEE);  // torn partial record
  write_bytes(f.path(), bytes);

  const CheckpointData data = load_checkpoint(f.path(), hash, n);
  EXPECT_EQ(data.done_count, 2u);
  EXPECT_EQ(data.dropped_tail_bytes, 13u);

  // Resuming the writer truncates the torn tail and appends cleanly after.
  {
    auto w = CheckpointWriter::resume(f.path(), hash, n);
    const std::vector<double> vals = {5.0};
    w->append(4, vals, vals);
  }
  const CheckpointData after = load_checkpoint(f.path(), hash, n);
  EXPECT_EQ(after.done_count, 3u);
  EXPECT_EQ(after.dropped_tail_bytes, 0u);
  EXPECT_EQ(after.delay_ps[4], 5.0);
}

// ------------------------------------------------- resume bit-identity ----

TEST_F(CheckpointTest, ConfigHashCoversSamplerAndImportanceShift) {
  // The sampler kind and importance shift change every sampled value, so
  // they must be part of the config fingerprint: a Sobol or shifted run
  // must not resume a pseudo checkpoint. The control-variate flag leaves
  // samples untouched and is deliberately NOT fingerprinted.
  const std::vector<double> widths = device_widths();
  const McConfig cfg = base_config();
  const std::uint64_t base = mc_checkpoint_hash(circuit_, var_, cfg, widths, lib_.node());

  McConfig sobol = cfg;
  sobol.sampler = McSampler::kSobol;
  const std::uint64_t sobol_hash =
      mc_checkpoint_hash(circuit_, var_, sobol, widths, lib_.node());
  EXPECT_NE(sobol_hash, base);

  McConfig shifted = cfg;
  shifted.is_shift = {0.5, 0.0};
  const std::uint64_t shift_l =
      mc_checkpoint_hash(circuit_, var_, shifted, widths, lib_.node());
  shifted.is_shift = {0.0, 0.5};
  const std::uint64_t shift_v =
      mc_checkpoint_hash(circuit_, var_, shifted, widths, lib_.node());
  EXPECT_NE(shift_l, base);
  EXPECT_NE(shift_v, base);
  EXPECT_NE(shift_l, shift_v);
  EXPECT_NE(shift_l, sobol_hash);

  McConfig cv = cfg;
  cv.control_variate = true;
  EXPECT_EQ(mc_checkpoint_hash(circuit_, var_, cv, widths, lib_.node()), base);

  // An environment corner (temperature, Vdd, node flavor) changes every
  // sampled value through the device constants, so it is fingerprinted too:
  // a 125 C or derated-Vdd run must not resume a nominal checkpoint.
  const std::uint64_t hot = mc_checkpoint_hash(
      circuit_, var_, cfg, widths, at_temperature(lib_.node(), 398.15));
  const std::uint64_t derated =
      mc_checkpoint_hash(circuit_, var_, cfg, widths, at_vdd(lib_.node(), 1.1));
  EXPECT_NE(hot, base);
  EXPECT_NE(derated, base);
  EXPECT_NE(hot, derated);
}

TEST_F(CheckpointTest, ConfigHashPinnedWithArithmeticRevision) {
  // The fingerprint of one fixed small config. It mixes
  // kMcArithmeticRevision, so it differs from the hash the same config had
  // before the leakage kernel moved to the in-repo exp, and before
  // normal_cdf (and with it every Sobol draw) moved to the in-repo erfc: a
  // checkpoint written by such a build is rejected, never resumed into a
  // mixed population. A change here orphans every checkpoint on disk; bump
  // the revision only when sample bits move on purpose.
  EXPECT_EQ(kMcArithmeticRevision, 2u);
  const std::uint64_t hash = mc_checkpoint_hash(
      circuit_, var_, base_config(), device_widths(), lib_.node());
  EXPECT_EQ(hash, 0x94a8923097d33f99ull);
  EXPECT_NE(hash, 0x186783ea985c5187ull);  // revision 1: libm erfc
  EXPECT_NE(hash, 0x6ff14bd00012c886ull);  // the same config, libm exp
}

TEST_F(CheckpointTest, KillResumeBitIdenticalAcrossEnginesAndThreads) {
  // The tentpole guarantee. Reference: one uninterrupted run. Then, for
  // three cut points, rebuild a partial checkpoint holding only the slots
  // "finished before the kill" and resume it under every block size x
  // thread combination — one-sample blocks honour restored slots one at a
  // time, auto-sized blocks recompute partially restored ones whole.
  // Counter-based sample streams make the merged population bitwise equal
  // to the reference, whatever the cut.
  TempFile scratch("ckpt_hash_probe.bin");
  const std::uint64_t hash = reference_hash(scratch.path());

  const McConfig cfg = base_config();
  const auto n = static_cast<std::uint64_t>(cfg.num_samples);
  const McResult ref = run_monte_carlo(circuit_, lib_, var_, cfg);
  ASSERT_EQ(ref.delay_ps.size(), n);

  TempFile partial("ckpt_partial.bin");
  for (const std::size_t cut : {std::size_t{1}, std::size_t{150},
                                std::size_t{399}}) {
    for (const int batch : {0, 1}) {
      for (const int threads : {1, 2, 8}) {
        {
          // The "killed" producer: committed [0, cut) plus a detached run
          // in the middle of the remainder (shard kills leave holes).
          auto w = CheckpointWriter::create(partial.path(), hash, n);
          w->append(0,
                    std::span<const double>(ref.delay_ps).subspan(0, cut),
                    std::span<const double>(ref.leakage_na).subspan(0, cut));
          if (cut + 40 < n) {
            w->append(cut + 20,
                      std::span<const double>(ref.delay_ps)
                          .subspan(cut + 20, 10),
                      std::span<const double>(ref.leakage_na)
                          .subspan(cut + 20, 10));
          }
        }
        McConfig resume_cfg = cfg;
        resume_cfg.checkpoint_path = partial.path();
        resume_cfg.batch_size = batch;
        resume_cfg.num_threads = threads;
        resume_cfg.checkpoint_every = 64;
        const McResult res =
            run_monte_carlo(circuit_, lib_, var_, resume_cfg);

        EXPECT_TRUE(res.completed);
        EXPECT_GE(res.samples_restored, cut);
        ASSERT_EQ(res.delay_ps.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(ref.delay_ps[i], res.delay_ps[i])
              << "cut " << cut << " batch " << batch << " threads "
              << threads << " sample " << i;
          ASSERT_EQ(ref.leakage_na[i], res.leakage_na[i])
              << "cut " << cut << " batch " << batch << " threads "
              << threads << " sample " << i;
        }

        // The resumed file is now complete and restores everything.
        const CheckpointData final_state =
            load_checkpoint(partial.path(), hash, n);
        EXPECT_EQ(final_state.done_count, n)
            << "cut " << cut << " batch " << batch << " threads "
            << threads;
      }
    }
  }
}

TEST_F(CheckpointTest, DeadlineInterruptThenResumeEqualsStraightRun) {
  // End-to-end: a deadline-stopped checkpointing run, resumed without a
  // deadline, lands on exactly the uninterrupted population.
  const McConfig cfg = base_config();
  const McResult ref = run_monte_carlo(circuit_, lib_, var_, cfg);

  TempFile f("ckpt_deadline.bin");
  McConfig interrupted = cfg;
  interrupted.checkpoint_path = f.path();
  interrupted.checkpoint_every = 16;
  interrupted.deadline_ms = 1;  // may or may not expire; both are valid
  const McResult part = run_monte_carlo(circuit_, lib_, var_, interrupted);
  EXPECT_EQ(part.samples_done, part.delay_ps.size());

  McConfig resumed = cfg;
  resumed.checkpoint_path = f.path();
  const McResult res = run_monte_carlo(circuit_, lib_, var_, resumed);
  EXPECT_TRUE(res.completed);
  ASSERT_EQ(res.delay_ps.size(), ref.delay_ps.size());
  for (std::size_t i = 0; i < ref.delay_ps.size(); ++i) {
    ASSERT_EQ(ref.delay_ps[i], res.delay_ps[i]) << "sample " << i;
    ASSERT_EQ(ref.leakage_na[i], res.leakage_na[i]) << "sample " << i;
  }
}

// ------------------------------------------------------ health policies ---

TEST_F(CheckpointTest, PoisonedCheckpointQuarantinesOrFails) {
  // A checkpoint carrying a non-finite restored value (e.g. written by a
  // quarantining producer) must re-surface on resume: quarantined under
  // kQuarantine, NumericalError under the default kFail.
  TempFile scratch("ckpt_poison_probe.bin");
  const std::uint64_t hash = reference_hash(scratch.path());

  const McConfig cfg = base_config();
  const auto n = static_cast<std::uint64_t>(cfg.num_samples);
  const McResult ref = run_monte_carlo(circuit_, lib_, var_, cfg);

  TempFile f("ckpt_poison.bin");
  const auto write_poisoned = [&]() {
    auto w = CheckpointWriter::create(f.path(), hash, n);
    std::vector<double> delay(ref.delay_ps.begin(), ref.delay_ps.begin() + 8);
    std::vector<double> leak(ref.leakage_na.begin(),
                             ref.leakage_na.begin() + 8);
    delay[2] = std::numeric_limits<double>::quiet_NaN();
    w->append(0, delay, leak);
  };

  // One-sample blocks: restored slots are honoured individually, so the
  // poisoned value survives to the finalize health scan. (Larger blocks
  // recompute partially restored blocks whole, which would *heal* this
  // artificial NaN — a genuinely non-finite sample reproduces either way,
  // since recomputation is bit-identical.)
  write_poisoned();
  McConfig quarantine_cfg = cfg;
  quarantine_cfg.batch_size = 1;
  quarantine_cfg.checkpoint_path = f.path();
  quarantine_cfg.health_policy = HealthPolicy::kQuarantine;
  const McResult res = run_monte_carlo(circuit_, lib_, var_, quarantine_cfg);
  ASSERT_EQ(res.quarantined.size(), 1u);
  EXPECT_EQ(res.quarantined[0].slot, 2u);
  EXPECT_EQ(res.quarantined[0].cause, HealthCause::kNonFiniteDelay);
  ASSERT_EQ(res.delay_ps.size(), n - 1);
  // Survivors in slot order: slot 2 excised, everything else untouched.
  for (std::size_t i = 0, out = 0; i < n; ++i) {
    if (i == 2) continue;
    ASSERT_EQ(ref.delay_ps[i], res.delay_ps[out]) << "slot " << i;
    ++out;
  }

  write_poisoned();
  McConfig fail_cfg = cfg;
  fail_cfg.batch_size = 1;
  fail_cfg.checkpoint_path = f.path();
  EXPECT_THROW((void)run_monte_carlo(circuit_, lib_, var_, fail_cfg),
               NumericalError);
}

// ----------------------------------------------------- deadline contract ---

TEST_F(CheckpointTest, DeadlineStopsCleanlyWithPartialFields) {
  // An already-expired budget stops at the first block boundary: zero (or
  // nearly zero) samples, consistent partial-result bookkeeping, no throw.
  McConfig cfg = base_config();
  cfg.num_samples = 50000;
  cfg.deadline_ms = 1;
  const McResult res = run_monte_carlo(circuit_, lib_, var_, cfg);
  EXPECT_EQ(res.samples_requested, 50000u);
  EXPECT_EQ(res.delay_ps.size(), res.leakage_na.size());
  EXPECT_EQ(res.samples_done, res.delay_ps.size());
  if (!res.completed) {
    EXPECT_LT(res.samples_done, res.samples_requested);
  }
}

TEST_F(CheckpointTest, UnarmedDeadlineChangesNothing) {
  McConfig cfg = base_config();
  const McResult ref = run_monte_carlo(circuit_, lib_, var_, cfg);
  cfg.deadline_ms = 0;  // explicit "none"
  const McResult res = run_monte_carlo(circuit_, lib_, var_, cfg);
  EXPECT_TRUE(res.completed);
  ASSERT_EQ(ref.delay_ps.size(), res.delay_ps.size());
  for (std::size_t i = 0; i < ref.delay_ps.size(); ++i) {
    ASSERT_EQ(ref.delay_ps[i], res.delay_ps[i]);
  }
}

}  // namespace
}  // namespace statleak
