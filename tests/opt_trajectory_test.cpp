// Golden-trajectory regression tests: the statistical optimizer's full move
// trajectory on the c432p/c880p proxies and on a generated random DAG is
// pinned — iteration count, every commit/reject counter, feasibility and the
// final objective. The greedy search is deterministic (thread count,
// candidate block size and observation provably do not change it), so any
// drift in these numbers means a real behavioral change, which must be
// reviewed and re-pinned deliberately.
//
// Every tested thread count x candidate block size combination must walk the
// identical trajectory, down to the exact final implementation (bitwise
// sizes and Vth classes).
//
// Counters are read back through the obs trace streams, which also pins the
// one-trace-event-per-iteration invariant end to end.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "obs/registry.hpp"
#include "opt/statistical.hpp"
#include "report/flow.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"

namespace statleak {
namespace {

struct Golden {
  // Held inline, not as a pointer: gtest prints the parameter's bytes into
  // the test names, and a pointer would print its address, which differs
  // from run to run.
  char circuit[8];  ///< ISCAS85 proxy name, or "rdag23"
  int iterations;
  int sizing_commits;
  int hvt_commits;
  int downsize_commits;
  int rejected_moves;
  double final_objective_na;
};

// Measured with the seed library/variation model at the targets of
// golden_t_max(). Re-pin deliberately when the optimizer or the models
// change.
constexpr Golden kGoldens[] = {
    {"c432p", 747, 80, 158, 46, 452, 1107.4484348948747},
    {"c880p", 1029, 105, 378, 43, 493, 2371.4626754129431},
    {"rdag23", 661, 74, 300, 30, 247, 1076.4973825426448},
};

bool is_random_dag(const Golden& golden) {
  return std::string(golden.circuit) == "rdag23";
}

/// The proxies come from gen/proxy; "rdag23" is a generated 300-gate random
/// DAG (seed 23), covering a shape the ISCAS proxies do not.
Circuit golden_circuit(const Golden& golden) {
  if (!is_random_dag(golden)) return iscas85_proxy(golden.circuit);
  RandomDagSpec spec;
  spec.num_inputs = 24;
  spec.num_gates = 300;
  spec.num_outputs = 12;
  spec.seed = 23;
  return make_random_dag(spec);
}

/// Proxies run at 1.15 * D_min; the random DAG at 1.18 * the STA delay of
/// its as-generated implementation.
double golden_t_max(const Golden& golden, const CellLibrary& lib) {
  Circuit c = golden_circuit(golden);
  return is_random_dag(golden) ? 1.18 * StaEngine(c, lib).critical_delay_ps()
                               : 1.15 * min_achievable_delay_ps(c, lib);
}

struct Implementation {
  std::vector<double> sizes;
  std::vector<Vth> vths;
};

Implementation snapshot(const Circuit& c) {
  Implementation impl;
  impl.sizes.reserve(c.num_gates());
  impl.vths.reserve(c.num_gates());
  for (GateId id = 0; id < c.num_gates(); ++id) {
    impl.sizes.push_back(c.gate(id).size);
    impl.vths.push_back(c.gate(id).vth);
  }
  return impl;
}

class TrajectoryTest : public ::testing::TestWithParam<Golden> {};

void check_against_golden(const Golden& golden, const OptResult& result,
                          const obs::Registry& reg) {
  EXPECT_EQ(result.iterations, golden.iterations);
  EXPECT_EQ(result.sizing_commits, golden.sizing_commits);
  EXPECT_EQ(result.hvt_commits, golden.hvt_commits);
  EXPECT_EQ(result.downsize_commits, golden.downsize_commits);
  EXPECT_EQ(result.rejected_moves, golden.rejected_moves);
  EXPECT_TRUE(result.feasible);
  EXPECT_NEAR(result.final_objective, golden.final_objective_na,
              1e-9 * golden.final_objective_na);

  // The registry mirrors the result...
  EXPECT_EQ(reg.counter_value("stat.iterations"), golden.iterations);
  EXPECT_EQ(reg.counter_value("stat.commits.sizing"), golden.sizing_commits);
  EXPECT_EQ(reg.counter_value("stat.commits.hvt"), golden.hvt_commits);
  EXPECT_EQ(reg.counter_value("stat.commits.downsize"),
            golden.downsize_commits);
  EXPECT_EQ(reg.counter_value("stat.rejected_moves"), golden.rejected_moves);
  EXPECT_EQ(reg.gauge_value("stat.feasible"), 1.0);

  // ...and the trace stream carries exactly one event per iteration, with
  // monotonic cumulative commit counts ending at the totals.
  const auto events = reg.trace_events("stat");
  ASSERT_EQ(static_cast<int>(events.size()), golden.iterations);
  std::int64_t last_commits = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.commits, last_commits);
    last_commits = e.commits;
  }
  EXPECT_EQ(events.back().commits + events.back().rejected,
            golden.sizing_commits + golden.hvt_commits +
                golden.downsize_commits + golden.rejected_moves);
}

TEST_P(TrajectoryTest, MatchesGoldenFlat) {
  const Golden& golden = GetParam();
  const CellLibrary lib(generic_100nm());
  const VariationModel var = VariationModel::typical_100nm();

  OptConfig cfg;
  cfg.t_max_ps = golden_t_max(golden, lib);

  Circuit c = golden_circuit(golden);
  obs::Registry reg;
  const OptResult result = StatisticalOptimizer(lib, var, cfg).run(c, &reg);
  check_against_golden(golden, result, reg);

  // The flat engine's dirty-cone fast path and the batched scorer must
  // actually be engaged: without them the run would take one full pass per
  // query.
  EXPECT_GT(reg.counter_value("ssta.flat_incremental_passes"), 0.0);
  EXPECT_LT(reg.counter_value("ssta.flat_full_passes"), 10.0);
  EXPECT_GT(reg.counter_value("ssta.flat_cone_gates_retimed"), 0.0);
  EXPECT_GT(reg.counter_value("opt.flat_passes"), 0.0);
  EXPECT_GT(reg.counter_value("opt.candidate_blocks"), 0.0);
}

// Every engine thread count x candidate block size combination must
// reproduce the single-thread, auto-block reference run exactly — same result
// counters, same final objective to the last bit, and the same final
// implementation point (bitwise sizes and Vth classes).
TEST_P(TrajectoryTest, EngineThreadsAndBlockSizeAreBitInvariant) {
  const Golden& golden = GetParam();
  const CellLibrary lib(generic_100nm());
  const VariationModel var = VariationModel::typical_100nm();

  OptConfig ref_cfg;
  ref_cfg.t_max_ps = golden_t_max(golden, lib);
  ref_cfg.num_threads = 1;
  ref_cfg.candidate_block = 0;  // auto

  Circuit ref_circuit = golden_circuit(golden);
  const OptResult ref =
      StatisticalOptimizer(lib, var, ref_cfg).run(ref_circuit);
  const Implementation ref_impl = snapshot(ref_circuit);

  const int thread_counts[] = {1, 2, 8};
  const int block_sizes[] = {1, 8, 0};  // 0 = auto
  for (int threads : thread_counts) {
    for (int block : block_sizes) {
      if (threads == 1 && block == 0) continue;  // the reference itself
      OptConfig cfg = ref_cfg;
      cfg.num_threads = threads;
      cfg.candidate_block = block;

      Circuit c = golden_circuit(golden);
      const OptResult result = StatisticalOptimizer(lib, var, cfg).run(c);
      SCOPED_TRACE(std::string(golden.circuit) + " threads=" +
                   std::to_string(threads) + " block=" +
                   std::to_string(block));
      EXPECT_EQ(result.iterations, ref.iterations);
      EXPECT_EQ(result.sizing_commits, ref.sizing_commits);
      EXPECT_EQ(result.hvt_commits, ref.hvt_commits);
      EXPECT_EQ(result.downsize_commits, ref.downsize_commits);
      EXPECT_EQ(result.rejected_moves, ref.rejected_moves);
      EXPECT_EQ(result.feasible, ref.feasible);
      EXPECT_EQ(result.final_objective, ref.final_objective);  // bitwise
      const Implementation impl = snapshot(c);
      EXPECT_EQ(impl.sizes, ref_impl.sizes);
      EXPECT_TRUE(impl.vths == ref_impl.vths);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Proxies, TrajectoryTest,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) {
                           return std::string(info.param.circuit);
                         });

}  // namespace
}  // namespace statleak
