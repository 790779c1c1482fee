// Differential walk test for the deterministic sizer's cached corner timing
// (opt/corner_timer.hpp).
//
// CornerTimer caches per-gate corner delays (current, one step up, HVT, one
// step down) and upsizing penalties, invalidates them on every committed
// resize/Vth move, and runs its STA over the cache. The reference here is
// recomputation from scratch: the full-pass corner STA of graph_oracle.hpp
// for arrivals, required times and slacks, and direct
// CellLibrary::delay_ps() calls on fresh loads for every cached value.
// After every step of a random walk, every gate's cached values must match
// the reference bit for bit, so a missing invalidation shows up as a stale
// entry on the next check. The timer's STA is a dirty-cone walk, so the
// steps mix the query patterns of the sizer: forward-only queries between
// analyze() calls, alternating targets, try-query-undo rejects and a
// snapshot-restore burst. The timer walks in topo-rank space, so one input
// has its GateIds far from their ranks.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "graph_oracle.hpp"
#include "opt/corner_timer.hpp"
#include "opt/deterministic.hpp"
#include "permuted_circuit.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/health.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

constexpr double kCornerK = 1.5;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// "rdag<seed>" = 300-gate random DAG, "permuted" = a random DAG whose ids
/// sit far from their topo ranks, otherwise an ISCAS85 proxy.
Circuit walk_circuit(const std::string& name) {
  if (name == "permuted") return permuted_circuit();
  if (name.rfind("rdag", 0) != 0) return iscas85_proxy(name);
  RandomDagSpec spec;
  spec.num_inputs = 24;
  spec.num_gates = 300;
  spec.num_outputs = 12;
  spec.seed = std::stoull(name.substr(4));
  return make_random_dag(spec);
}

class CornerTimerWalk : public ::testing::TestWithParam<const char*> {
 protected:
  const CellLibrary lib_{generic_100nm()};
  const VariationModel var_ = VariationModel::typical_100nm();
  const double dl_ = kCornerK * var_.sigma_l_total_nm();
  const double dv_ = kCornerK * var_.sigma_vth_total_v();

  /// Compares everything the timer caches or computes against a from-scratch
  /// evaluation of the circuit's current implementation.
  void check(CornerTimer& timer, const Circuit& c, double t_max) {
    const LoadCache loads(c, lib_);
    const StaResult want = oracle::sta(c, lib_, t_max, &var_, kCornerK);
    const StaResult& got = timer.analyze(t_max);
    ASSERT_TRUE(same_bits(got.critical_delay_ps, want.critical_delay_ps));
    for (GateId id = 0; id < c.num_gates(); ++id) {
      ASSERT_TRUE(same_bits(got.arrival_ps[id], want.arrival_ps[id]))
          << "arrival of gate " << id;
      ASSERT_TRUE(same_bits(got.required_ps[id], want.required_ps[id]))
          << "required time of gate " << id;
      ASSERT_TRUE(same_bits(got.slack_ps[id], want.slack_ps[id]))
          << "slack of gate " << id;
    }

    const auto steps = lib_.size_steps();
    for (GateId id = 0; id < c.num_gates(); ++id) {
      const Gate& g = c.gate(id);
      ASSERT_TRUE(same_bits(timer.delay_ps(id),
                            oracle::gate_delay_ps(c, lib_, loads, id, &var_,
                                                  kCornerK)))
          << "delay of gate " << id;
      if (g.kind == CellKind::kInput) continue;

      const std::size_t step = lib_.nearest_step(g.size);
      ASSERT_EQ(timer.step(id), step) << "step of gate " << id;
      const double load = loads.load_ff(id);
      const auto delay = [&](Vth vth, double size) {
        return lib_.delay_ps(g.kind, vth, size, load, dl_, dv_);
      };
      ASSERT_TRUE(same_bits(timer.delay_hvt_ps(id), delay(Vth::kHigh, g.size)))
          << "HVT delay of gate " << id;
      if (step > 0) {
        ASSERT_TRUE(
            same_bits(timer.delay_down_ps(id), delay(g.vth, steps[step - 1])))
            << "downsized delay of gate " << id;
      }
      if (step + 1 < steps.size()) {
        ASSERT_TRUE(
            same_bits(timer.delay_up_ps(id), delay(g.vth, steps[step + 1])))
            << "upsized delay of gate " << id;
        const double dcap = lib_.pin_cap_ff(g.kind, steps[step + 1]) -
                            lib_.pin_cap_ff(g.kind, g.size);
        double penalty = 0.0;
        for (GateId f : g.fanins) {
          const Gate& drv = c.gate(f);
          if (drv.kind == CellKind::kInput) continue;
          const double fl = loads.load_ff(f);
          penalty +=
              lib_.delay_ps(drv.kind, drv.vth, drv.size, fl + dcap, dl_, dv_) -
              lib_.delay_ps(drv.kind, drv.vth, drv.size, fl, dl_, dv_);
        }
        ASSERT_TRUE(same_bits(timer.upsize_penalty_ps(id), penalty))
            << "upsizing penalty of gate " << id;
      }
    }
    ASSERT_TRUE(same_bits(timer.critical_delay_ps(), want.critical_delay_ps));
  }
};

TEST_P(CornerTimerWalk, CachedTimingMatchesFreshAnalysisAfterEveryMove) {
  Circuit c = walk_circuit(GetParam());
  CornerTimer timer(c, lib_, dl_, dv_);
  // A target near the initial corner delay keeps both slack signs present.
  const double t_max =
      0.98 * StaEngine(c, lib_).corner_delay_ps(var_, kCornerK);
  // The sizer alternates targets: boosted phase-1 rounds time against a
  // shrunken one, phase 2 against t_max. A repeated target takes the
  // incremental backward walk, a changed one reseeds it.
  const double targets[] = {t_max, 0.97 * t_max};
  ASSERT_NO_FATAL_FAILURE(check(timer, c, t_max));

  const auto steps = lib_.size_steps();
  Rng rng(0xC0FFEE);
  const auto random_cell = [&]() {
    GateId id = 0;
    do {
      id = static_cast<GateId>(rng.uniform_index(c.num_gates()));
    } while (c.gate(id).kind == CellKind::kInput);
    return id;
  };
  const auto random_move = [&](GateId id) {
    const std::size_t step = timer.step(id);
    switch (rng.uniform_index(4)) {
      case 0:  // one step up (or down at the top of the grid)
        timer.set_size_step(id, step + 1 < steps.size() ? step + 1 : step - 1);
        break;
      case 1:  // one step down (or up at the bottom)
        timer.set_size_step(id, step > 0 ? step - 1 : step + 1);
        break;
      case 2:  // any step
        timer.set_size_step(id, rng.uniform_index(steps.size()));
        break;
      default:
        timer.set_vth(id,
                      c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
        break;
    }
  };
  // Forward-only query, as the sizer makes after every tentative upsize.
  const auto check_forward = [&]() {
    const double want = StaEngine(c, lib_).corner_delay_ps(var_, kCornerK);
    ASSERT_TRUE(same_bits(timer.critical_delay_ps(), want));
  };

  for (int move = 0; move < 150; ++move) {
    const GateId id = random_cell();
    SCOPED_TRACE("move " + std::to_string(move) + " on gate " +
                 std::to_string(id));
    switch (rng.uniform_index(3)) {
      case 0:  // committed move
        random_move(id);
        break;
      case 1:  // move, forward-only query, then a second move
        random_move(id);
        ASSERT_NO_FATAL_FAILURE(check_forward());
        random_move(random_cell());
        break;
      default: {  // the sizer's reject path: try, query, undo
        const std::size_t step = timer.step(id);
        const Vth vth = c.gate(id).vth;
        random_move(id);
        ASSERT_NO_FATAL_FAILURE(check_forward());
        timer.set_size_step(id, step);
        timer.set_vth(id, vth);
        break;
      }
    }
    if (move % 50 == 49) {
      // Snapshot-restore burst: explore with forward-only queries, then
      // diff back gate by gate, as the sizer's boost loop does.
      std::vector<std::size_t> saved_steps;
      std::vector<Vth> saved_vths;
      for (GateId g = 0; g < c.num_gates(); ++g) {
        saved_steps.push_back(timer.step(g));
        saved_vths.push_back(c.gate(g).vth);
      }
      for (int k = 0; k < 12; ++k) {
        random_move(random_cell());
        ASSERT_NO_FATAL_FAILURE(check_forward());
      }
      ASSERT_NO_FATAL_FAILURE(check(timer, c, targets[1]));
      for (GateId g = 0; g < c.num_gates(); ++g) {
        if (timer.step(g) != saved_steps[g]) {
          timer.set_size_step(g, saved_steps[g]);
        }
        if (c.gate(g).vth != saved_vths[g]) timer.set_vth(g, saved_vths[g]);
      }
    }
    ASSERT_NO_FATAL_FAILURE(
        check(timer, c, targets[rng.uniform_index(2)]));
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, CornerTimerWalk,
                         ::testing::Values("rdag5", "rdag23", "rdag41",
                                           "c880p", "permuted"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(CornerTimer, NonFiniteTargetIsANumericalError) {
  // Same guard as the full-pass reference: a NaN target poisons the
  // required times of the primary outputs.
  const CellLibrary lib(generic_100nm());
  Circuit c = iscas85_proxy("c432p");
  CornerTimer timer(c, lib, 0.0, 0.0);
  EXPECT_THROW((void)timer.analyze(std::numeric_limits<double>::quiet_NaN()),
               NumericalError);
  EXPECT_THROW((void)timer.analyze(-std::numeric_limits<double>::infinity()),
               NumericalError);
}

TEST(CornerTimer, NanDelayIsANumericalError) {
  // A NaN wire capacitance makes every driven gate's delay NaN. The max/min
  // passes would drop it and report a plausible slack, so the timer rejects
  // a non-finite delay where it computes it — and the sizer surfaces it.
  ProcessNode node = generic_100nm();
  node.cw_fixed_ff = std::numeric_limits<double>::quiet_NaN();
  const CellLibrary lib(node);
  Circuit c = iscas85_proxy("c432p");
  {
    CornerTimer timer(c, lib, 0.0, 0.0);
    EXPECT_THROW((void)timer.analyze(1000.0), NumericalError);
    EXPECT_THROW((void)timer.critical_delay_ps(), NumericalError);
  }
  const VariationModel none = VariationModel::none();
  OptConfig cfg;
  cfg.t_max_ps = 1000.0;
  EXPECT_THROW((void)DeterministicOptimizer(lib, none, cfg).run(c),
               NumericalError);
}

}  // namespace
}  // namespace statleak
