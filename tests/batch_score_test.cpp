// Differential oracle for the statistical optimizer's candidate-batched move
// pricing (opt/batch_score.hpp).
//
// BatchScorer prices moves from SoA lanes over the FlatCircuit snapshot; its
// assign scan reads persistent per-slot lanes that are rebuilt lazily for
// the gates set_impl() dirtied, and skips most exact Wilkinson quantiles
// behind a Lipschitz upper bound. The reference below is the plain per-gate
// scan: every candidate priced from the live circuit through
// CellLibrary::delay_ps() and LeakageAnalyzer::quantile_if_na(), with no
// caching and no prune. After every step of a random walk of committed
// size/Vth moves — plus tentative moves inside an SSTA trial that are
// rejected and reverted, as the optimizer's are — under fresh random lock
// masks, both scans must return the same gate and move with the same score
// bits, for every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "leakage/leakage.hpp"
#include "opt/batch_score.hpp"
#include "ssta/flat_incremental.hpp"
#include "tech/process.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

// The optimizer's scoring constants (opt/statistical.cpp).
constexpr double kEps = 1e-9;
constexpr double kCritFloor = 1e-4;
constexpr double kPct = 0.99;

/// Shards the gates over `pool`; each shard keeps the serial rule "first
/// strictly-greater score wins, ids ascending" and shards reduce in index
/// order, which reproduces the single-threaded winner.
template <class ScoreGate>
MoveCandidate reference_scan(ThreadPool& pool, std::size_t num_gates,
                             const ScoreGate& score_gate) {
  std::vector<MoveCandidate> shard_best(static_cast<std::size_t>(pool.size()));
  pool.parallel_for(num_gates,
                    [&](std::size_t lo, std::size_t hi, int worker) {
                      MoveCandidate local;
                      for (std::size_t i = lo; i < hi; ++i) {
                        score_gate(static_cast<GateId>(i), local);
                      }
                      shard_best[static_cast<std::size_t>(worker)] = local;
                    });
  MoveCandidate best;
  for (const MoveCandidate& c : shard_best) {
    if (c.score > best.score) best = c;
  }
  return best;
}

/// The state both scans read: the live circuit, the flat engine's loads and
/// criticality, and the leakage analyzer's committed moments.
struct ScanInputs {
  const Circuit& circuit;
  const CellLibrary& lib;
  const LeakageAnalyzer& leak;
  const FlatSstaEngine& ssta;
  const SstaResult& timing;
  double q_now;

  /// Own mean delay of a gate under a hypothetical (vth, size).
  double own_delay(GateId id, Vth vth, double size) const {
    const Gate& g = circuit.gate(id);
    return lib.delay_ps(g.kind, vth, size, ssta.loads().load_ff(id));
  }
};

/// Phase-1 reference: best criticality-weighted upsizing move.
MoveCandidate reference_sizing(const ScanInputs& in, ThreadPool& pool,
                               std::span<const std::uint64_t> locked) {
  const auto steps = in.lib.size_steps();
  return reference_scan(
      pool, in.circuit.num_gates(), [&](GateId id, MoveCandidate& local) {
        const Gate& g = in.circuit.gate(id);
        if (g.kind == CellKind::kInput) return;
        if (in.timing.criticality[id] < kCritFloor) return;
        const std::size_t step = in.lib.nearest_step(g.size);
        if (step + 1 >= steps.size()) return;
        if ((locked[id] >> (step + 1)) & 1u) return;
        const double next_size = steps[step + 1];

        const double gain = in.own_delay(id, g.vth, g.size) -
                            in.own_delay(id, g.vth, next_size);
        if (gain <= kEps) return;
        const double dleak_pct =
            in.leak.quantile_if_na(id, g.vth, next_size, kPct) - in.q_now;
        const double score =
            in.timing.criticality[id] * gain / std::max(dleak_pct, 1e-6);
        if (score > local.score) {
          local = MoveCandidate{score, id, step + 1, false, 0.0};
        }
      });
}

/// Phase-2 reference: best HVT swap or one-step downsize.
MoveCandidate reference_assign(const ScanInputs& in, ThreadPool& pool,
                               std::span<const unsigned char> locked) {
  const auto steps = in.lib.size_steps();
  return reference_scan(
      pool, in.circuit.num_gates(), [&](GateId id, MoveCandidate& local) {
        const Gate& g = in.circuit.gate(id);
        if (g.kind == CellKind::kInput) return;
        const bool can_hvt = g.vth == Vth::kLow && (locked[id] & 1) == 0;
        const std::size_t step = in.lib.nearest_step(g.size);
        const bool can_down = step > 0 && (locked[id] & 2) == 0;
        if (!can_hvt && !can_down) return;
        const double crit = std::max(in.timing.criticality[id], kCritFloor);
        const double d_now = in.own_delay(id, g.vth, g.size);

        if (can_hvt) {
          const double dd = in.own_delay(id, Vth::kHigh, g.size) - d_now;
          const double benefit =
              in.q_now - in.leak.quantile_if_na(id, Vth::kHigh, g.size, kPct);
          if (benefit > 0.0) {
            const double score = benefit / (crit * std::max(dd, kEps) + kEps);
            if (score > local.score) {
              local = MoveCandidate{score, id, 0, true, 0.0};
            }
          }
        }
        if (can_down) {
          const double smaller = steps[step - 1];
          const double dd = in.own_delay(id, g.vth, smaller) - d_now;
          const double benefit =
              in.q_now - in.leak.quantile_if_na(id, g.vth, smaller, kPct);
          if (benefit > 0.0) {
            const double score = benefit / (crit * std::max(dd, kEps) + kEps);
            if (score > local.score) {
              local = MoveCandidate{score, id, 0, false, smaller};
            }
          }
        }
      });
}

testing::AssertionResult same_move(const MoveCandidate& got,
                                   const MoveCandidate& want) {
  if (got.gate == want.gate && got.step == want.step &&
      got.to_hvt == want.to_hvt && got.new_size == want.new_size &&
      got.score == want.score) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "batched (gate " << got.gate << ", step " << got.step << ", hvt "
         << got.to_hvt << ", size " << got.new_size << ", score "
         << testing::PrintToString(got.score) << ") vs reference (gate "
         << want.gate << ", step " << want.step << ", hvt " << want.to_hvt
         << ", size " << want.new_size << ", score "
         << testing::PrintToString(want.score) << ")";
}

/// One walk: a circuit ("rdag<seed>" = 300-gate random DAG, otherwise an
/// ISCAS85 proxy) scanned on `threads` workers with candidate block `block`.
struct WalkConfig {
  const char* circuit;
  int threads;
  std::size_t block;
};

class BatchScoreTest : public ::testing::TestWithParam<WalkConfig> {
 protected:
  Circuit make_circuit() const {
    const std::string name = GetParam().circuit;
    if (name.rfind("rdag", 0) != 0) return iscas85_proxy(name);
    RandomDagSpec spec;
    spec.num_inputs = 24;
    spec.num_gates = 300;
    spec.num_outputs = 12;
    spec.seed = std::stoull(name.substr(4));
    return make_random_dag(spec);
  }

  /// Runs the walk; returns the number of scans compared.
  int run_walk() {
    const WalkConfig& wc = GetParam();
    Circuit c = make_circuit();
    std::vector<GateId> cells;
    for (GateId id = 0; id < c.num_gates(); ++id) {
      if (c.gate(id).kind != CellKind::kInput) cells.push_back(id);
    }
    const auto steps = lib_.size_steps();
    FlatSstaEngine ssta(c, lib_, var_);
    LeakageAnalyzer leak(c, lib_, var_);
    ThreadPool pool(wc.threads);
    BatchScorer scorer(lib_, leak, ssta.flat(), ssta.loads(), pool, wc.block);
    Rng rng(0xB5C0u + static_cast<std::uint64_t>(wc.threads));

    std::vector<std::uint64_t> size_locks(c.num_gates(), 0);
    std::vector<unsigned char> assign_locks(c.num_gates(), 0);

    // Every implementation change goes to the engine and the scorer's
    // mirrors, exactly as the optimizer routes it.
    const auto apply = [&](GateId id, double size, Vth vth) {
      if (c.gate(id).size != size) {
        c.set_size(id, size);
        ssta.on_resize(id);
      }
      if (c.gate(id).vth != vth) {
        c.set_vth(id, vth);
        ssta.on_vth_change(id);
      }
      scorer.set_impl(id, c.gate(id).vth, c.gate(id).size);
    };
    const auto random_target = [&](GateId id, double& size, Vth& vth) {
      size = c.gate(id).size;
      vth = c.gate(id).vth;
      if (rng.uniform() < 0.5) {
        size = steps[rng.uniform_index(steps.size())];
      } else {
        vth = vth == Vth::kLow ? Vth::kHigh : Vth::kLow;
      }
    };

    int scans = 0;
    for (int step = 0; step < kSteps; ++step) {
      for (GateId id = 0; id < c.num_gates(); ++id) {
        size_locks[id] = rng.uniform() < 0.25 ? rng() : 0;
        assign_locks[id] = rng.uniform() < 0.25
                               ? static_cast<unsigned char>(
                                     1 + rng.uniform_index(3))
                               : 0;
      }
      const SstaResult& timing = ssta.analyze_ref();
      const ScanInputs in{c, lib_, leak, ssta, timing, leak.quantile_na(kPct)};

      const MoveCandidate want_size = reference_sizing(in, pool, size_locks);
      const MoveCandidate got_size = scorer.best_sizing(
          timing.criticality, size_locks, in.q_now, kPct, kCritFloor, kEps);
      EXPECT_TRUE(same_move(got_size, want_size)) << "sizing, step " << step;
      const MoveCandidate want_assign =
          reference_assign(in, pool, assign_locks);
      const MoveCandidate got_assign = scorer.best_assign(
          timing.criticality, assign_locks, in.q_now, kPct, kCritFloor, kEps);
      EXPECT_TRUE(same_move(got_assign, want_assign))
          << "assign, step " << step;
      if (::testing::Test::HasFailure()) return scans;
      scans += 2;

      const GateId id = cells[rng.uniform_index(cells.size())];
      const Gate saved = c.gate(id);
      double size = 0.0;
      Vth vth = Vth::kLow;
      random_target(id, size, vth);
      const double roll = rng.uniform();
      if (roll < 0.6) {
        // Committed move.
        apply(id, size, vth);
        leak.on_gate_changed(id);
      } else if (roll < 0.85) {
        // Tentative move, rejected: the engine rolls back its caches, the
        // gate fields are restored and re-reported to the scorer.
        ssta.begin_trial();
        apply(id, size, vth);
        (void)ssta.circuit_delay();
        ssta.rollback_trial();
        c.set_size(id, saved.size);
        c.set_vth(id, saved.vth);
        scorer.set_impl(id, saved.vth, saved.size);
      } else {
        // Tentative move, accepted.
        ssta.begin_trial();
        apply(id, size, vth);
        (void)ssta.circuit_delay();
        ssta.commit_trial();
        leak.on_gate_changed(id);
      }
    }
    // The walk must exercise the quantile-elision prune, not just the
    // exact path.
    EXPECT_GT(scorer.pruned(), 0);
    return scans;
  }

  static constexpr int kSteps = 120;

  CellLibrary lib_{generic_100nm()};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_P(BatchScoreTest, MatchesReferenceScanAlongRandomWalk) {
  const int scans = run_walk();
  if (!HasFailure()) {
    EXPECT_GE(scans, 200);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, BatchScoreTest,
    ::testing::Values(WalkConfig{"rdag5", 1, 64}, WalkConfig{"rdag5", 2, 3},
                      WalkConfig{"rdag23", 1, 64}, WalkConfig{"rdag23", 2, 3},
                      WalkConfig{"rdag41", 1, 64}, WalkConfig{"rdag41", 2, 3},
                      WalkConfig{"c880p", 1, 64}, WalkConfig{"c880p", 2, 3}),
    [](const auto& info) {
      return std::string(info.param.circuit) + "_threads" +
             std::to_string(info.param.threads);
    });

}  // namespace
}  // namespace statleak
