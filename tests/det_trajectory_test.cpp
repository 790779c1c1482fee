// Golden-trajectory regression tests for the deterministic corner sizer, the
// baseline of the paper's det-vs-stat experiment. On the c432p, c880p and
// c3540p proxies, at the nominal corner and at 1.5 sigma, the whole greedy
// walk is pinned: iteration count, every commit/reject counter, the bits of
// the final objective and of the final corner delay, and the corner timer's
// work counters. The D_min sizing
// that sets every flow's target is pinned bitwise too.
//
// The sizer is deterministic, so any drift here is a behavioral change. A
// faster implementation of the same greedy must reproduce these numbers to
// the last bit; re-pin only for a deliberate change of the model or of the
// greedy rule.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "gen/proxy.hpp"
#include "obs/registry.hpp"
#include "opt/deterministic.hpp"
#include "report/flow.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"

namespace statleak {
namespace {

::testing::AssertionResult SameBits(double actual, double golden) {
  if (std::bit_cast<std::uint64_t>(actual) ==
      std::bit_cast<std::uint64_t>(golden)) {
    return ::testing::AssertionSuccess();
  }
  std::ostringstream os;
  os << std::hexfloat << actual << " differs from golden " << golden;
  return ::testing::AssertionFailure() << os.str();
}

struct DetGolden {
  char circuit[8];
  double corner_k_sigma;
  int iterations;
  int sizing_commits;
  int hvt_commits;
  int downsize_commits;
  int rejected_moves;
  double final_objective_na;
  double final_corner_delay_ps;
};

// Names the row in test names (gtest would print the struct's bytes).
void PrintTo(const DetGolden& golden, std::ostream* os) {
  *os << golden.circuit << " k=" << golden.corner_k_sigma;
}

// Measured with the seed library and the typical 100 nm variation model at
// t_max = 1.15 * D_min, the flow's operating point.
constexpr DetGolden kGoldens[] = {
    {"c432p", 0.0, 409, 49, 165, 41, 144, 0x1.e506c8a603c31p+8,
     0x1.8478addbdf15ep+9},
    {"c432p", 1.5, 373, 20, 145, 4, 194, 0x1.677d6b3985952p+10,
     0x1.8556710d1a956p+9},
    {"c880p", 0.0, 545, 23, 380, 10, 122, 0x1.695c242ecffaap+10,
     0x1.22d19239eb029p+10},
    {"c880p", 1.5, 597, 34, 364, 7, 182, 0x1.2717bf1cb45cap+11,
     0x1.22fe0976b0b34p+10},
    {"c3540p", 0.0, 2546, 58, 1649, 3, 826, 0x1.718a6471c4062p+12,
     0x1.67601d4bfaf8bp+11},
    {"c3540p", 1.5, 3052, 77, 1607, 6, 1352, 0x1.ffa6b353881d7p+12,
     0x1.677dc79b3524bp+11},
};

// The corner timer's work on the same runs, read from the attached
// registry: queries answered, library delay evaluations, and the arrivals
// and required times its dirty-cone walks recomputed. Any walk that visits
// the same dirty closure reproduces them. They sit in their own table
// because gtest prints a DetGolden's bytes into the test names: a larger
// DetGolden would rename the tests.
struct DetWork {
  char circuit[8];
  double corner_k_sigma;
  double sta_passes;
  double delay_evals;
  double arrival_updates;
  double required_updates;
};

constexpr DetWork kWork[] = {
    {"c432p", 0.0, 602, 3027, 15813, 6257},
    {"c432p", 1.5, 587, 3254, 14520, 4051},
    {"c880p", 0.0, 690, 3548, 20052, 8781},
    {"c880p", 1.5, 813, 5125, 24610, 9111},
    {"c3540p", 0.0, 3430, 23655, 355661, 54466},
    {"c3540p", 1.5, 4481, 38333, 507401, 62105},
};

const DetWork* work_of(const DetGolden& golden) {
  for (const DetWork& work : kWork) {
    if (std::string_view(work.circuit) == golden.circuit &&
        work.corner_k_sigma == golden.corner_k_sigma) {
      return &work;
    }
  }
  return nullptr;
}

struct DminGolden {
  char circuit[8];
  double d_min_ps;
};

constexpr DminGolden kDminGoldens[] = {
    {"c432p", 0x1.5339d38abd494p+9},
    {"c880p", 0x1.fb0d4a080eb3cp+9},
    {"c3540p", 0x1.38a59d29ab334p+11},
};

class DetTrajectoryTest : public ::testing::TestWithParam<DetGolden> {};

TEST_P(DetTrajectoryTest, MatchesGolden) {
  const DetGolden& golden = GetParam();
  const CellLibrary lib(generic_100nm());
  const VariationModel var = VariationModel::typical_100nm();

  Circuit c = iscas85_proxy(golden.circuit);
  OptConfig cfg;
  cfg.t_max_ps = 1.15 * min_achievable_delay_ps(c, lib);
  cfg.corner_k_sigma = golden.corner_k_sigma;

  obs::Registry reg;
  const OptResult r = DeterministicOptimizer(lib, var, cfg).run(c, &reg);

  EXPECT_EQ(r.iterations, golden.iterations);
  EXPECT_EQ(r.sizing_commits, golden.sizing_commits);
  EXPECT_EQ(r.hvt_commits, golden.hvt_commits);
  EXPECT_EQ(r.downsize_commits, golden.downsize_commits);
  EXPECT_EQ(r.rejected_moves, golden.rejected_moves);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(SameBits(r.final_objective, golden.final_objective_na));

  // The final corner delay, re-timed from scratch on the delivered circuit,
  // and the sizer's own report of it.
  const double corner_delay =
      StaEngine(c, lib).corner_delay_ps(var, cfg.corner_k_sigma);
  EXPECT_TRUE(SameBits(corner_delay, golden.final_corner_delay_ps));
  EXPECT_TRUE(SameBits(reg.gauge_value("det.final_corner_delay_ps"),
                       golden.final_corner_delay_ps));
  EXPECT_EQ(reg.trace_events("det").size(),
            static_cast<std::size_t>(r.iterations));

  const DetWork* work = work_of(golden);
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(reg.counter_value("det.sta_passes"), work->sta_passes);
  EXPECT_EQ(reg.counter_value("det.delay_evals"), work->delay_evals);
  EXPECT_EQ(reg.counter_value("det.arrival_updates"), work->arrival_updates);
  EXPECT_EQ(reg.counter_value("det.required_updates"),
            work->required_updates);
}

INSTANTIATE_TEST_SUITE_P(
    Proxies, DetTrajectoryTest, ::testing::ValuesIn(kGoldens),
    [](const auto& info) {
      return std::string(info.param.circuit) +
             (info.param.corner_k_sigma == 0.0 ? "_nominal" : "_k1p5");
    });

TEST(DetTrajectory, MinAchievableDelayMatchesGolden) {
  const CellLibrary lib(generic_100nm());
  for (const DminGolden& golden : kDminGoldens) {
    SCOPED_TRACE(golden.circuit);
    const Circuit c = iscas85_proxy(golden.circuit);
    EXPECT_TRUE(SameBits(min_achievable_delay_ps(c, lib), golden.d_min_ps));
  }
}

}  // namespace
}  // namespace statleak
