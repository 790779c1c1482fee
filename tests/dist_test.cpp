// Distributed campaign runner tests: slot partitioning, the wire
// protocol's exact double round-trip, the first-committed-wins shard merge
// (heterogeneous sizes, out-of-order arrival, duplicated re-dispatch) being
// bit-identical to a single-host run, and a full in-process TCP campaign.
// The fault-injection build adds the worker-kill recovery scenario: a
// worker lost mid-campaign is re-dispatched with zero recomputation of
// committed slots and the merged result still matches single-host exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/driver.hpp"
#include "dist/coordinator.hpp"
#include "dist/net.hpp"
#include "dist/partition.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "gen/arithmetic.hpp"
#include "mc/checkpoint.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/bench_io.hpp"
#include "tech/process.hpp"
#include "util/fault.hpp"

namespace statleak {
namespace {

using dist::SlotRange;

// --- partitioning ------------------------------------------------------------

std::uint64_t covered(const std::vector<SlotRange>& shards) {
  std::uint64_t total = 0;
  std::uint64_t expect_begin = 0;
  for (const SlotRange& s : shards) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_LT(s.begin, s.end);
    expect_begin = s.end;
    total += s.size();
  }
  return total;
}

TEST(PartitionTest, CoversContiguouslyAndEvenly) {
  const auto shards = dist::partition_samples(1000, 7, 1);
  EXPECT_LE(shards.size(), 7u);
  EXPECT_EQ(covered(shards), 1000u);
  for (const SlotRange& s : shards) {
    EXPECT_GE(s.size(), 1000u / 7);  // even to within the floor
  }
}

TEST(PartitionTest, RespectsMinShardSize) {
  const auto shards = dist::partition_samples(100, 64, 40);
  EXPECT_EQ(covered(shards), 100u);
  for (std::size_t i = 0; i + 1 < shards.size(); ++i) {
    EXPECT_GE(shards[i].size(), 40u);
  }
}

TEST(PartitionTest, ClampsDegenerateArguments) {
  EXPECT_TRUE(dist::partition_samples(0, 4, 1).empty());
  const auto one = dist::partition_samples(5, 0, 0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (SlotRange{0, 5}));
}

TEST(PartitionTest, PartitionIsDeterministic) {
  EXPECT_EQ(dist::partition_samples(12345, 13, 7),
            dist::partition_samples(12345, 13, 7));
}

TEST(PartitionTest, UndoneRangesFindsGaps) {
  std::vector<std::uint8_t> done(10, 0);
  done[3] = done[4] = done[7] = 1;
  const auto gaps = dist::undone_ranges(done, SlotRange{2, 9});
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (SlotRange{2, 3}));
  EXPECT_EQ(gaps[1], (SlotRange{5, 7}));
  EXPECT_EQ(gaps[2], (SlotRange{8, 9}));
}

TEST(PartitionTest, UndoneRangesEdgeCases) {
  std::vector<std::uint8_t> done(6, 1);
  EXPECT_TRUE(dist::undone_ranges(done, SlotRange{0, 6}).empty());
  std::fill(done.begin(), done.end(), 0);
  const auto all = dist::undone_ranges(done, SlotRange{0, 6});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], (SlotRange{0, 6}));
}

// --- protocol ----------------------------------------------------------------

/// A pipe with both ends wrapped in one MessageStream (loopback).
class Loopback {
 public:
  Loopback() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read_fd_ = fds[0];
    write_fd_ = fds[1];
  }
  ~Loopback() {
    ::close(read_fd_);
    ::close(write_fd_);
  }
  dist::MessageStream stream() {
    return dist::MessageStream(read_fd_, write_fd_);
  }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

TEST(ProtocolTest, BlockRoundTripIsBitExact) {
  // Values chosen to break any %g-style formatting: shortest-round-trip
  // rendering (std::to_chars) must reproduce every bit pattern.
  // (-0.0 is the one finite double that does not round-trip — obs::Json
  // normalizes it to "0" — but delays/leakages are strictly positive.)
  const std::vector<double> delay = {0.1, 1.0 / 3.0, 1e-300,
                                     4503599627370497.0, 0.0};
  const std::vector<double> leak = {2.5e9, std::numeric_limits<double>::min(),
                                    1.7976931348623157e308, 42.0, 1e-320};
  Loopback pipe;
  auto stream = pipe.stream();
  ASSERT_TRUE(stream.send(dist::block_message(777, delay, leak)));
  const auto msg = stream.read_message(1000);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(dist::message_type(*msg), "block");
  const dist::Block b = dist::parse_block(*msg);
  EXPECT_EQ(b.begin, 777u);
  ASSERT_EQ(b.delay_ps.size(), delay.size());
  ASSERT_EQ(b.leakage_na.size(), leak.size());
  for (std::size_t i = 0; i < delay.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.delay_ps[i]),
              std::bit_cast<std::uint64_t>(delay[i]))
        << "delay slot " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.leakage_na[i]),
              std::bit_cast<std::uint64_t>(leak[i]))
        << "leak slot " << i;
  }
}

TEST(ProtocolTest, NonFiniteValuesDecodeAsNan) {
  // JSON has no Inf/NaN: they cross as null and decode to quiet NaN, which
  // the finalize pass excises (only reachable under --health quarantine).
  const std::vector<double> delay = {std::numeric_limits<double>::quiet_NaN(),
                                     std::numeric_limits<double>::infinity()};
  const std::vector<double> leak = {1.0, 2.0};
  Loopback pipe;
  auto stream = pipe.stream();
  ASSERT_TRUE(stream.send(dist::block_message(0, delay, leak)));
  const auto msg = stream.read_message(1000);
  ASSERT_TRUE(msg.has_value());
  const dist::Block b = dist::parse_block(*msg);
  EXPECT_TRUE(std::isnan(b.delay_ps[0]));
  EXPECT_TRUE(std::isnan(b.delay_ps[1]));
}

TEST(ProtocolTest, SetupRoundTripPreservesTheStudy) {
  dist::WorkerSetup setup;
  setup.input.bench_text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  setup.input.circuit_name = "tiny";
  setup.input.impl_text = "y 2 hvt\n";
  setup.input.node_nm = 70;
  setup.mc.num_samples = 1234;
  setup.mc.seed = 99;
  setup.mc.sampler = McSampler::kSobol;
  setup.mc.is_shift.l_sigma = 0.125;
  setup.mc.is_shift.v_sigma = 0.375;
  setup.mc.control_variate = true;
  setup.mc.batch_size = 64;
  setup.mc.checkpoint_every = 512;
  setup.mc.deadline_ms = 5000;       // campaign deadline: coordinator-owned
  setup.mc.checkpoint_path = "x.ck"; // checkpointing: coordinator-owned
  setup.t_max_ps = 321.5;
  setup.threads = 3;

  const dist::WorkerSetup out = dist::parse_setup(dist::setup_message(setup));
  EXPECT_EQ(out.input.bench_text, setup.input.bench_text);
  EXPECT_EQ(out.input.circuit_name, "tiny");
  EXPECT_EQ(out.input.impl_text, setup.input.impl_text);
  EXPECT_EQ(out.input.node_nm, 70);
  EXPECT_EQ(out.mc.num_samples, 1234);
  EXPECT_EQ(out.mc.seed, 99u);
  EXPECT_EQ(out.mc.sampler, McSampler::kSobol);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.mc.is_shift.l_sigma),
            std::bit_cast<std::uint64_t>(0.125));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.mc.is_shift.v_sigma),
            std::bit_cast<std::uint64_t>(0.375));
  EXPECT_TRUE(out.mc.control_variate);
  EXPECT_EQ(out.mc.batch_size, 64);
  EXPECT_EQ(out.mc.checkpoint_every, 512);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.t_max_ps),
            std::bit_cast<std::uint64_t>(321.5));
  EXPECT_EQ(out.threads, 3);
  EXPECT_EQ(out.mc.num_threads, 3);
  // Worker-side copies never own the deadline or the checkpoint file.
  EXPECT_EQ(out.mc.deadline_ms, 0);
  EXPECT_TRUE(out.mc.checkpoint_path.empty());
}

TEST(ProtocolTest, SetupFromAnotherProtocolVersionIsRejected) {
  // A v2 coordinator still sends use_batched; a v3 worker must refuse the
  // whole study instead of guessing at fields.
  dist::WorkerSetup setup;
  setup.mc.num_samples = 16;
  obs::Json msg = dist::setup_message(setup);
  EXPECT_NO_THROW((void)dist::parse_setup(msg));
  msg.set("protocol", 2);
  EXPECT_THROW((void)dist::parse_setup(msg), dist::DistError);
  // A v3 peer computes leakage with libm's exp: its bits differ.
  msg.set("protocol", 3);
  EXPECT_THROW((void)dist::parse_setup(msg), dist::DistError);
  // A v4 peer's normal_cdf runs libm's erfc: its Sobol draws differ.
  msg.set("protocol", 4);
  EXPECT_THROW((void)dist::parse_setup(msg), dist::DistError);
}

TEST(ProtocolTest, SetupCarriesNoEngineSwitch) {
  // v3 retired the scalar Monte-Carlo engine and its use_batched switch;
  // v4 moved the leakage kernel to the in-repo exp, v5 normal_cdf to the
  // in-repo erfc.
  EXPECT_EQ(dist::kProtocolVersion, 5);
  const obs::Json msg = dist::setup_message(dist::WorkerSetup{});
  EXPECT_FALSE(msg.at("mc").contains("use_batched"));
  EXPECT_TRUE(msg.at("mc").contains("batch"));
}

TEST(ProtocolTest, ControlMessageTypes) {
  EXPECT_EQ(dist::message_type(dist::hello_message()), "hello");
  EXPECT_EQ(dist::message_type(dist::stop_message()), "stop");
  EXPECT_EQ(dist::message_type(dist::error_message("boom")), "error");
  const obs::Json shard = dist::shard_message(10, 20);
  EXPECT_EQ(dist::message_type(shard), "shard");
  EXPECT_EQ(shard.at("begin").as_number(), 10.0);
  EXPECT_EQ(shard.at("end").as_number(), 20.0);
  const obs::Json done = dist::shard_done_message(10, 20, true, 10);
  EXPECT_EQ(dist::message_type(done), "shard_done");
}

TEST(ProtocolTest, MalformedLineThrowsDistError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  dist::MessageStream reader(fds[0], fds[1]);
  // Hand-write a non-JSON line into the reader's fd.
  ASSERT_EQ(::write(fds[1], "not json\n", 9), 9);
  EXPECT_THROW(reader.read_message(1000), dist::DistError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolTest, ReadMessageTimesOutCleanly) {
  Loopback pipe;
  auto stream = pipe.stream();
  EXPECT_FALSE(stream.read_message(10).has_value());
  EXPECT_FALSE(stream.eof());  // timeout, not EOF
}

// --- merge bit-identity ------------------------------------------------------

class MergeTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
  Circuit circuit_ = make_ripple_carry_adder(16);

  McConfig config() const {
    McConfig cfg;
    cfg.num_samples = 400;
    cfg.seed = 11;
    cfg.num_threads = 2;
    return cfg;
  }

  /// First-committed-wins, exactly the coordinator's commit rule.
  static void commit(McPopulation& pop, const McShardResult& shard) {
    for (std::uint64_t s = shard.begin; s < shard.end; ++s) {
      const std::uint64_t local = s - shard.begin;
      if (shard.done[local] == 0 || pop.done[s] != 0) continue;
      pop.delay_ps[s] = shard.delay_ps[local];
      pop.leakage_na[s] = shard.leakage_na[local];
      pop.done[s] = 1;
    }
  }

  static void expect_bit_identical(const McResult& a, const McResult& b) {
    ASSERT_EQ(a.delay_ps.size(), b.delay_ps.size());
    ASSERT_EQ(a.leakage_na.size(), b.leakage_na.size());
    for (std::size_t i = 0; i < a.delay_ps.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.delay_ps[i]),
                std::bit_cast<std::uint64_t>(b.delay_ps[i]))
          << "delay slot " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.leakage_na[i]),
                std::bit_cast<std::uint64_t>(b.leakage_na[i]))
          << "leakage slot " << i;
    }
  }
};

TEST_F(MergeTest, HeterogeneousOutOfOrderShardsMatchSingleHost) {
  const McConfig cfg = config();
  const McResult reference = run_monte_carlo(circuit_, lib_, var_, cfg);

  // Unequal shard sizes, committed out of slot order, plus one duplicated
  // (re-dispatched) shard overlapping two others: first-committed-wins
  // must yield the single-host population exactly.
  const std::uint64_t n = static_cast<std::uint64_t>(cfg.num_samples);
  McPopulation pop;
  pop.delay_ps.assign(n, 0.0);
  pop.leakage_na.assign(n, 0.0);
  pop.done.assign(n, 0);

  const std::vector<SlotRange> shards = {
      {140, 400},  // largest shard lands first
      {0, 137},
      {100, 200},  // straggler duplicate: only [137, 140) is new
  };
  std::uint64_t duplicates = 0;
  for (const SlotRange& r : shards) {
    const McShardResult shard =
        run_monte_carlo_shard(circuit_, lib_, var_, cfg, r.begin, r.end);
    for (std::uint64_t s = r.begin; s < r.end; ++s) {
      duplicates += pop.done[s] != 0 ? 1 : 0;
    }
    commit(pop, shard);
  }
  EXPECT_EQ(duplicates, 97u);  // slots 100..137 and 140..200 recomputed
  const McResult merged =
      finalize_mc_population(circuit_, lib_, var_, cfg, std::move(pop));
  expect_bit_identical(reference, merged);
}

TEST_F(MergeTest, ApiCampaignFinalizeMatchesRunMcCommand) {
  std::ostringstream bench;
  write_bench(bench, circuit_);

  api::McCommandConfig cmd;
  cmd.input.bench_text = bench.str();
  cmd.input.circuit_name = circuit_.name();
  cmd.mc = config();
  cmd.t_max_ps = 0.0;  // resolved by the facade, once, for both paths
  const api::McCommandResult reference = api::run_mc_command(cmd);

  const api::McStudy study = api::prepare_mc_study(cmd);
  const std::uint64_t n = static_cast<std::uint64_t>(study.mc.num_samples);
  McPopulation pop;
  pop.delay_ps.assign(n, 0.0);
  pop.leakage_na.assign(n, 0.0);
  pop.done.assign(n, 0);
  for (const SlotRange& r : dist::partition_samples(n, 5, 1)) {
    commit(pop, run_monte_carlo_shard(study.study.circuit, study.study.lib,
                                      study.study.var, study.mc, r.begin,
                                      r.end));
  }
  const api::McCommandResult merged =
      api::finalize_mc_campaign(study, std::move(pop));
  expect_bit_identical(reference.result, merged.result);
  // The human-readable stats block is shared too — byte-compare it.
  EXPECT_EQ(api::mc_summary_text(reference), api::mc_summary_text(merged));
}

TEST(RangeValidationTest, RejectsOutOfBoundsShards) {
  EXPECT_NO_THROW(validate_checkpoint_range(0, 10, 10));
  EXPECT_THROW(validate_checkpoint_range(5, 6, 10), CheckpointError);
  EXPECT_THROW(validate_checkpoint_range(10, 1, 10), CheckpointError);
  EXPECT_THROW(validate_checkpoint_range(0, 0, 10), CheckpointError);
}

// --- in-process campaigns ----------------------------------------------------

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

/// Runs a TCP-mode campaign entirely in this process: the coordinator on
/// this thread's stack would deadlock waiting for connections, so it runs
/// in a thread and `worker_count` dist::run_worker loops connect to it.
dist::CampaignResult run_tcp_campaign(const api::McCommandConfig& cmd,
                                      dist::DistConfig dc, int worker_count) {
  // ctest runs each test in its own process but a shared working
  // directory — the port file must be per-process to allow -j runs.
  TempFile port_file("dist_test_port." + std::to_string(::getpid()) +
                     ".txt");
  dc.listen = "127.0.0.1:0";
  dc.port_file = port_file.path();

  dist::CampaignResult result;
  std::exception_ptr coordinator_error;
  std::thread coordinator([&] {
    try {
      result = dist::run_campaign(cmd, dc);
    } catch (...) {
      coordinator_error = std::current_exception();
    }
  });

  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::ifstream pf(port_file.path());
    std::getline(pf, port);
    if (port.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_FALSE(port.empty()) << "coordinator never wrote the port file";

  std::vector<std::thread> workers;
  for (int i = 0; i < worker_count; ++i) {
    workers.emplace_back([&port] {
      dist::WorkerOptions wo;
      wo.connect = "127.0.0.1:" + port;
      dist::run_worker(wo);
    });
  }
  coordinator.join();
  for (std::thread& w : workers) w.join();
  if (coordinator_error) std::rethrow_exception(coordinator_error);
  return result;
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef STATLEAK_FAULT_INJECTION
    fault::reset();
#endif
    std::ostringstream bench;
    write_bench(bench, make_carry_lookahead_adder(16));
    cmd_.input.bench_text = bench.str();
    cmd_.input.circuit_name = "cla16";
    cmd_.mc.num_samples = 600;
    cmd_.mc.seed = 21;
    cmd_.mc.checkpoint_every = 64;  // several blocks per shard
  }
  void TearDown() override {
#ifdef STATLEAK_FAULT_INJECTION
    fault::reset();
#endif
  }

  api::McCommandConfig cmd_;
};

TEST_F(CampaignTest, TcpCampaignIsByteIdenticalToSingleHost) {
  const api::McCommandResult reference = api::run_mc_command(cmd_);

  dist::DistConfig dc;
  dc.workers = 2;
  dc.worker_threads = 1;
  const dist::CampaignResult campaign = run_tcp_campaign(cmd_, dc, 2);

  EXPECT_EQ(campaign.workers_spawned, 2);
  EXPECT_EQ(campaign.workers_lost, 0);
  EXPECT_GE(campaign.shards_dispatched, 2u);
  EXPECT_EQ(campaign.slots_recomputed, 0u);
  ASSERT_EQ(campaign.command.result.delay_ps.size(),
            reference.result.delay_ps.size());
  for (std::size_t i = 0; i < reference.result.delay_ps.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(campaign.command.result.delay_ps[i]),
              std::bit_cast<std::uint64_t>(reference.result.delay_ps[i]));
    ASSERT_EQ(
        std::bit_cast<std::uint64_t>(campaign.command.result.leakage_na[i]),
        std::bit_cast<std::uint64_t>(reference.result.leakage_na[i]));
  }
  EXPECT_EQ(api::mc_summary_text(campaign.command),
            api::mc_summary_text(reference));
}

/// Reserves an ephemeral port and releases it so the test can hand the
/// same number to a worker (connecting) and a coordinator (binding later).
int reserve_port() {
  int port = 0;
  const int fd = dist::listen_tcp("127.0.0.1:0", &port);
  ::close(fd);
  return port;
}

TEST_F(CampaignTest, WorkersSurviveCoordinatorStartingLate) {
  const api::McCommandResult reference = api::run_mc_command(cmd_);

  // Deliberately lose the startup race: the workers connect first, so
  // their early attempts are refused, and only connect_tcp's bounded
  // backoff keeps them alive until the coordinator binds ~100 ms later.
  const int port = reserve_port();
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([port] {
      dist::WorkerOptions wo;
      wo.connect = "127.0.0.1:" + std::to_string(port);
      dist::run_worker(wo);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  dist::DistConfig dc;
  dc.workers = 2;
  dc.worker_threads = 1;
  dc.listen = "127.0.0.1:" + std::to_string(port);
  const dist::CampaignResult campaign = dist::run_campaign(cmd_, dc);
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(campaign.workers_spawned, 2);
  EXPECT_EQ(campaign.workers_lost, 0);
  ASSERT_EQ(campaign.command.result.delay_ps.size(),
            reference.result.delay_ps.size());
  for (std::size_t i = 0; i < reference.result.delay_ps.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(campaign.command.result.delay_ps[i]),
              std::bit_cast<std::uint64_t>(reference.result.delay_ps[i]));
    ASSERT_EQ(
        std::bit_cast<std::uint64_t>(campaign.command.result.leakage_na[i]),
        std::bit_cast<std::uint64_t>(reference.result.leakage_na[i]));
  }
  EXPECT_EQ(api::mc_summary_text(campaign.command),
            api::mc_summary_text(reference));
}

TEST(ConnectRetryTest, PersistentRefusalStillFailsAfterBackoff) {
  // No listener ever appears on the reserved port: the backoff ladder must
  // run dry (~1.3 s) and surface the original connect error, not hang.
  const int port = reserve_port();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(dist::connect_tcp("127.0.0.1:" + std::to_string(port)),
               dist::DistError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

#ifdef STATLEAK_FAULT_INJECTION

TEST_F(CampaignTest, WorkerKillRecoveryRecomputesNothingCommitted) {
  const api::McCommandResult reference = api::run_mc_command(cmd_);

  // The coordinator kills whichever worker sent committed block #2 and
  // drops that block (simulating death mid-send). Its shard's undone
  // sub-ranges are re-dispatched; committed slots must never be recomputed.
  fault::arm(fault::Point::kWorkerExit, 2, 1);

  dist::DistConfig dc;
  dc.workers = 2;
  dc.worker_threads = 1;
  const dist::CampaignResult campaign = run_tcp_campaign(cmd_, dc, 2);

  EXPECT_EQ(fault::fired_count(fault::Point::kWorkerExit), 1);
  EXPECT_EQ(campaign.workers_lost, 1);
  EXPECT_GE(campaign.shards_redispatched, 1u);
  EXPECT_EQ(campaign.slots_recomputed, 0u);
  ASSERT_EQ(campaign.command.result.delay_ps.size(),
            reference.result.delay_ps.size());
  for (std::size_t i = 0; i < reference.result.delay_ps.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(campaign.command.result.delay_ps[i]),
              std::bit_cast<std::uint64_t>(reference.result.delay_ps[i]));
    ASSERT_EQ(
        std::bit_cast<std::uint64_t>(campaign.command.result.leakage_na[i]),
        std::bit_cast<std::uint64_t>(reference.result.leakage_na[i]));
  }
  EXPECT_EQ(api::mc_summary_text(campaign.command),
            api::mc_summary_text(reference));
}

#endif  // STATLEAK_FAULT_INJECTION

}  // namespace
}  // namespace statleak
