// Differential oracle for the statistical optimizer's move pricing
// (opt/batch_score.hpp).
//
// BatchScorer prices moves from the Circuit's kind array, the load cache and
// its own implementation mirrors: its sizing scan prices each legal move in
// place, and its assign scan reads persistent per-slot lanes that are
// rebuilt lazily for the gates set_impl() dirtied, and skips most exact
// Wilkinson quantiles behind a Lipschitz upper bound. The reference below is the plain per-gate
// scan: every candidate priced from the live circuit through
// CellLibrary::delay_ps() and LeakageAnalyzer::quantile_if_na(), with no
// caching and no prune. After every step of a random walk of committed
// size/Vth moves — plus tentative moves inside an SSTA trial that are
// rejected and reverted, as the optimizer's are — under fresh random lock
// masks, both scans must return the same gate and move with the same score
// bits, for every thread count and with Pelgrom width scaling on or off.
// After every assign scan the scorer's key
// bound itself is checked slot by slot, and further walks reach every path
// of the lazy scan: sparse key patches, drift re-keys, the unbounded scan,
// and scans driven by the SSTA engine's criticality change feed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
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
  double crit_floor = kCritFloor;

  /// Own mean delay of a gate under a hypothetical (vth, size).
  double own_delay(GateId id, Vth vth, double size) const {
    const Gate& g = circuit.gate(id);
    return lib.delay_ps(g.kind, vth, size, ssta.loads().load_ff(id));
  }
};

/// Phase-1 reference: best criticality-weighted upsizing move.
MoveCandidate reference_sizing(const ScanInputs& in, ThreadPool& pool,
                               std::span<const std::uint64_t> locked,
                               double pct = kPct) {
  const auto steps = in.lib.size_steps();
  return reference_scan(
      pool, in.circuit.num_gates(), [&](GateId id, MoveCandidate& local) {
        const Gate& g = in.circuit.gate(id);
        if (g.kind == CellKind::kInput) return;
        if (in.timing.criticality[id] < in.crit_floor) return;
        const std::size_t step = in.lib.nearest_step(g.size);
        if (step + 1 >= steps.size()) return;
        if ((locked[id] >> (step + 1)) & 1u) return;
        const double next_size = steps[step + 1];

        const double gain = in.own_delay(id, g.vth, g.size) -
                            in.own_delay(id, g.vth, next_size);
        if (gain <= kEps) return;
        const double dleak_pct =
            in.leak.quantile_if_na(id, g.vth, next_size, pct) - in.q_now;
        const double score =
            in.timing.criticality[id] * gain / std::max(dleak_pct, 1e-6);
        if (score > local.score) {
          local = MoveCandidate{score, id, step + 1, false, 0.0};
        }
      });
}

/// Phase-2 reference: best HVT swap or one-step downsize.
MoveCandidate reference_assign(const ScanInputs& in, ThreadPool& pool,
                               std::span<const unsigned char> locked,
                               double pct = kPct) {
  const auto steps = in.lib.size_steps();
  return reference_scan(
      pool, in.circuit.num_gates(), [&](GateId id, MoveCandidate& local) {
        const Gate& g = in.circuit.gate(id);
        if (g.kind == CellKind::kInput) return;
        const bool can_hvt = g.vth == Vth::kLow && (locked[id] & 1) == 0;
        const std::size_t step = in.lib.nearest_step(g.size);
        const bool can_down = step > 0 && (locked[id] & 2) == 0;
        if (!can_hvt && !can_down) return;
        const double crit =
            std::max(in.timing.criticality[id], in.crit_floor);
        const double d_now = in.own_delay(id, g.vth, g.size);

        if (can_hvt) {
          const double dd = in.own_delay(id, Vth::kHigh, g.size) - d_now;
          const double benefit =
              in.q_now - in.leak.quantile_if_na(id, Vth::kHigh, g.size, pct);
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
              in.q_now - in.leak.quantile_if_na(id, g.vth, smaller, pct);
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

/// The inequality the lazy assign scan rests on, slot by slot, after a
/// scan: a legal unlocked move has a live key (> -inf), any other slot a
/// dead one, and every live key with a finite value bounds the move's
/// exact score: score <= key_ratio * key * (1 + 1e-6). The keys must also
/// have been built from the scanned criticality, clamped to the floor, bit
/// for bit (a stale one may still bound the score by a margin).
void expect_keys_bound_scores(const ScanInputs& in, const BatchScorer& scorer,
                              std::span<const unsigned char> locked,
                              double pct, int step) {
  const auto steps = in.lib.size_steps();
  const double ratio = scorer.key_ratio();
  if (ratio == 0.0) return;  // unbounded scan: no keys were used
  const std::span<const double> keys = scorer.slot_keys();
  const std::span<const double> keyed = scorer.keyed_criticality();
  for (GateId id = 0; id < in.circuit.num_gates(); ++id) {
    const Gate& g = in.circuit.gate(id);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(keyed[id]),
              std::bit_cast<std::uint64_t>(
                  std::max(in.timing.criticality[id], in.crit_floor)))
        << "gate " << id << " keyed from stale criticality, step " << step;
    const std::size_t step_now = in.lib.nearest_step(g.size);
    const bool input = g.kind == CellKind::kInput;
    for (int down = 0; down < 2; ++down) {
      const double key = keys[2 * static_cast<std::size_t>(id) + down];
      const bool legal = !input && (down == 0 ? g.vth == Vth::kLow
                                              : step_now > 0);
      const bool live = legal && ((locked[id] >> down) & 1) == 0;
      ASSERT_EQ(live, key != -std::numeric_limits<double>::infinity())
          << "gate " << id << (down ? " downsize" : " hvt") << ", step "
          << step;
      if (!live || !std::isfinite(key)) continue;
      const Vth vth = down ? g.vth : Vth::kHigh;
      const double size = down ? steps[step_now - 1] : g.size;
      const double crit = std::max(in.timing.criticality[id], in.crit_floor);
      const double dd =
          in.own_delay(id, vth, size) - in.own_delay(id, g.vth, g.size);
      const double benefit =
          in.q_now - in.leak.quantile_if_na(id, vth, size, pct);
      const double score = benefit / (crit * std::max(dd, kEps) + kEps);
      ASSERT_LE(score, ratio * key * (1.0 + 1e-6))
          << "gate " << id << (down ? " downsize" : " hvt") << ", step "
          << step;
    }
  }
}

/// How a walk changes the circuit and the locks between scans.
enum class WalkMode {
  /// Fresh random lock masks every step; committed moves, rejected trials
  /// and accepted trials. Sizing and assign scans.
  kMixed,
  /// A few lock bytes change per step (all clear every 64 steps, as a new
  /// optimizer round does); every move commits, half of them the scan's
  /// own choice. Assign scans only — the sparse updates the key patches
  /// are for.
  kCommitted,
};

/// One walk: a circuit ("rdag<seed>" = 300-gate random DAG, otherwise an
/// ISCAS85 proxy) scanned on `threads` workers, under the typical variation
/// model with or without Pelgrom width scaling of the intra-die Vth sigma.
struct WalkConfig {
  const char* circuit;
  int threads;
  bool pelgrom = false;
};

// Names the walk in test names (gtest would print the struct's bytes,
// pointer and padding included).
void PrintTo(const WalkConfig& wc, std::ostream* os) {
  *os << wc.circuit << " threads=" << wc.threads
      << (wc.pelgrom ? " pelgrom" : "");
}

struct WalkResult {
  int scans = 0;
  std::int64_t pruned = 0;
  BatchScorer::AssignStats assign;
  std::size_t num_gates = 0;
};

Circuit make_circuit(const std::string& name) {
  if (name.rfind("rdag", 0) != 0) return iscas85_proxy(name);
  RandomDagSpec spec;
  spec.num_inputs = 24;
  spec.num_gates = 300;
  spec.num_outputs = 12;
  spec.seed = std::stoull(name.substr(4));
  return make_random_dag(spec);
}

/// Runs `steps` steps of a walk at percentile `pct`, comparing every scan
/// with the reference and checking the key bound after every assign scan.
/// With `feed`, each assign scan gets the engine's criticality change feed
/// (and clears it), as the optimizer does, and one in four tentative moves
/// refreshes criticality inside its trial; without it, every scan diffs
/// every gate. Both scans clamp criticality to `crit_floor`.
WalkResult run_walk(const WalkConfig& wc, int steps, double pct,
                    WalkMode mode, bool feed = false,
                    double crit_floor = kCritFloor) {
  const CellLibrary lib{generic_100nm()};
  VariationModel var = VariationModel::typical_100nm();
  var.pelgrom_vth_scaling = wc.pelgrom;
  WalkResult result;
  Circuit c = make_circuit(wc.circuit);
  std::vector<GateId> cells;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.gate(id).kind != CellKind::kInput) cells.push_back(id);
  }
  const auto size_steps = lib.size_steps();
  FlatSstaEngine ssta(c, lib, var);
  LeakageAnalyzer leak(c, lib, var);
  ThreadPool pool(wc.threads);
  BatchScorer scorer(lib, leak, c, ssta.loads(), pool);
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
      size = size_steps[rng.uniform_index(size_steps.size())];
    } else {
      vth = vth == Vth::kLow ? Vth::kHigh : Vth::kLow;
    }
  };
  const auto finish = [&] {
    result.pruned = scorer.pruned();
    result.assign = scorer.assign_stats();
    result.num_gates = c.num_gates();
    return result;
  };

  for (int step = 0; step < steps; ++step) {
    if (mode == WalkMode::kMixed) {
      for (GateId id = 0; id < c.num_gates(); ++id) {
        size_locks[id] = rng.uniform() < 0.25 ? rng() : 0;
        assign_locks[id] = rng.uniform() < 0.25
                               ? static_cast<unsigned char>(
                                     1 + rng.uniform_index(3))
                               : 0;
      }
    } else if (step % 64 == 63) {
      std::fill(assign_locks.begin(), assign_locks.end(), 0);
    } else {
      for (int k = 0; k < 3; ++k) {
        assign_locks[rng.uniform_index(c.num_gates())] =
            static_cast<unsigned char>(rng.uniform_index(4));
      }
    }
    const SstaResult& timing = ssta.analyze_ref();
    const ScanInputs in{c,      lib, leak, ssta, timing, leak.quantile_na(pct),
                        crit_floor};

    if (mode == WalkMode::kMixed) {
      const MoveCandidate want_size =
          reference_sizing(in, pool, size_locks, pct);
      const MoveCandidate got_size = scorer.best_sizing(
          timing.criticality, size_locks, in.q_now, pct, crit_floor, kEps);
      EXPECT_TRUE(same_move(got_size, want_size)) << "sizing, step " << step;
      ++result.scans;
    }
    const MoveCandidate want_assign =
        reference_assign(in, pool, assign_locks, pct);
    const MoveCandidate got_assign = scorer.best_assign(
        timing.criticality,
        feed ? ssta.criticality_changes() : CriticalityChanges{},
        assign_locks, in.q_now, pct, crit_floor, kEps);
    if (feed) ssta.clear_criticality_changes();
    EXPECT_TRUE(same_move(got_assign, want_assign)) << "assign, step " << step;
    expect_keys_bound_scores(in, scorer, assign_locks, pct, step);
    if (::testing::Test::HasFailure()) return finish();
    ++result.scans;

    if (mode == WalkMode::kCommitted) {
      GateId id = got_assign.gate;
      double size = 0.0;
      Vth vth = Vth::kLow;
      if (id != kInvalidGate && rng.uniform() < 0.5) {
        size = got_assign.to_hvt ? c.gate(id).size : got_assign.new_size;
        vth = got_assign.to_hvt ? Vth::kHigh : c.gate(id).vth;
      } else {
        id = cells[rng.uniform_index(cells.size())];
        random_target(id, size, vth);
      }
      apply(id, size, vth);
      leak.on_gate_changed(id);
      continue;
    }

    const GateId id = cells[rng.uniform_index(cells.size())];
    const Gate saved = c.gate(id);
    double size = 0.0;
    Vth vth = Vth::kLow;
    random_target(id, size, vth);
    const double roll = rng.uniform();
    const auto query = [&] {
      if (feed && rng.uniform() < 0.25) {
        (void)ssta.analyze_ref();
      } else {
        (void)ssta.circuit_delay();
      }
    };
    if (roll < 0.6) {
      // Committed move.
      apply(id, size, vth);
      leak.on_gate_changed(id);
    } else if (roll < 0.85) {
      // Tentative move, rejected: the engine rolls back its caches, the
      // gate fields are restored and re-reported to the scorer.
      ssta.begin_trial();
      apply(id, size, vth);
      query();
      ssta.rollback_trial();
      c.set_size(id, saved.size);
      c.set_vth(id, saved.vth);
      scorer.set_impl(id, saved.vth, saved.size);
    } else {
      // Tentative move, accepted.
      ssta.begin_trial();
      apply(id, size, vth);
      query();
      ssta.commit_trial();
      leak.on_gate_changed(id);
    }
  }
  return finish();
}

class BatchScoreTest : public ::testing::TestWithParam<WalkConfig> {};

TEST_P(BatchScoreTest, MatchesReferenceScanAlongRandomWalk) {
  const WalkResult r = run_walk(GetParam(), 120, kPct, WalkMode::kMixed);
  if (HasFailure()) return;
  EXPECT_GE(r.scans, 200);
  // The walk must exercise the lazy scan's key bound, not just exact
  // scoring: fewer exact quantiles than live candidates, and never a scan
  // with the bound off.
  EXPECT_GT(r.pruned, 0);
  EXPECT_LT(r.assign.exact, r.assign.exact + r.pruned);
  EXPECT_EQ(r.assign.unbounded, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, BatchScoreTest,
    ::testing::Values(WalkConfig{"rdag5", 1}, WalkConfig{"rdag5", 2},
                      WalkConfig{"rdag23", 1}, WalkConfig{"rdag23", 2},
                      WalkConfig{"rdag41", 1}, WalkConfig{"rdag41", 2},
                      WalkConfig{"c880p", 1}, WalkConfig{"c880p", 2},
                      WalkConfig{"rdag23", 2, true},
                      WalkConfig{"c880p", 1, true}),
    [](const auto& info) {
      return std::string(info.param.circuit) + "_threads" +
             std::to_string(info.param.threads) +
             (info.param.pelgrom ? "_pelgrom" : "");
    });

// At the median z = 0, where the quantile is not increasing in the
// variance, the bound is off: every scan exact-scores every live slot in
// the same loop and must still match the reference.
TEST(BatchScoreLazyTest, MedianScansRunUnboundedAndMatchReference) {
  for (const char* circuit : {"rdag5", "c880p"}) {
    const WalkResult r =
        run_walk(WalkConfig{circuit, 2}, 60, 0.5, WalkMode::kMixed);
    if (HasFailure()) return;
    EXPECT_EQ(r.scans, 120) << circuit;
    EXPECT_GT(r.assign.unbounded, 0) << circuit;
    EXPECT_EQ(r.pruned, 0) << circuit;
  }
}

// A long walk of committed moves under sparse lock changes: most scans
// patch a few keys (rebuilt lanes, changed criticality, changed locks)
// instead of re-keying everything, and the committed moments drift far
// enough to cross the re-key threshold more than once.
TEST(BatchScoreLazyTest, CommittedWalkPatchesKeysAndCrossesTheDriftBound) {
  const WalkResult r =
      run_walk(WalkConfig{"c880p", 1}, 320, kPct, WalkMode::kCommitted);
  if (HasFailure()) return;
  EXPECT_EQ(r.scans, 320);
  EXPECT_EQ(r.assign.unbounded, 0);
  EXPECT_GE(r.assign.drift_rekeys, 2);
  EXPECT_GE(r.assign.full_rekeys, 2);
  // Partial re-keys happened: more keys recomputed than the full passes
  // account for.
  const auto full_keys =
      r.assign.full_rekeys * 2 * static_cast<std::int64_t>(r.num_gates);
  EXPECT_GT(r.assign.rekeys, full_keys);
  EXPECT_LT(r.assign.exact, r.assign.exact + r.pruned);
}

// Walks whose assign scans read the SSTA engine's criticality change feed,
// as the optimizer's do: most scans check only the listed gates, the scans
// after a criticality scatter diff every gate, and every pick, every key
// bound and every keyed criticality still matches the reference. Most
// gates a walk relists sit below the optimizer's floor of 1e-4, where they
// move no key, so the walks also run with a floor of 1e-12: there a listed
// gate missed by the scorer would leave a stale key.
TEST(BatchScoreLazyTest, FeedDrivenWalksMatchReferenceScan) {
  struct Case {
    WalkConfig config;
    int steps;
    WalkMode mode;
    double floor;
  };
  for (const Case& k :
       {Case{{"c3540p", 1}, 200, WalkMode::kCommitted, kCritFloor},
        Case{{"c3540p", 2}, 200, WalkMode::kCommitted, 1e-12},
        Case{{"rdag23", 2}, 200, WalkMode::kCommitted, kCritFloor},
        Case{{"c880p", 2}, 80, WalkMode::kMixed, kCritFloor}}) {
    const WalkResult r =
        run_walk(k.config, k.steps, kPct, k.mode, true, k.floor);
    if (HasFailure()) return;
    const char* name = k.config.circuit;
    EXPECT_EQ(r.assign.unbounded, 0) << name;
    EXPECT_GT(r.assign.full_diffs, 0) << name;
    if (std::string(name) == "c3540p") {
      // Scans that neither re-keyed everything nor diffed every gate: the
      // listed path. (The smaller circuits scatter their criticality on
      // most moves.)
      EXPECT_LT(r.assign.full_diffs + r.assign.full_rekeys, r.scans) << name;
    }
  }
}

// Keys see criticality only through max(crit, floor): a scan whose
// criticality moved only below the floor, or onto it, re-keys nothing,
// whether the moves are listed or the feed reads "all". A gate lifted above
// the floor re-keys exactly its two slots. Every such scan picks what a
// fresh scorer picks from scratch.
TEST(BatchScoreLazyTest, SubFloorCriticalityChangesRekeyNothing) {
  const CellLibrary lib{generic_100nm()};
  const VariationModel var = VariationModel::typical_100nm();
  Circuit c = iscas85_proxy("c880p");
  FlatSstaEngine ssta(c, lib, var);
  LeakageAnalyzer leak(c, lib, var);
  ThreadPool pool(1);
  BatchScorer scorer(lib, leak, c, ssta.loads(), pool);
  const std::vector<unsigned char> locks(c.num_gates(), 0);
  const double q_now = leak.quantile_na(kPct);
  std::vector<double> crit = ssta.analyze_ref().criticality;
  const auto scan = [&](BatchScorer& s, const CriticalityChanges& changed) {
    return s.best_assign(crit, changed, locks, q_now, kPct, kCritFloor, kEps);
  };
  (void)scan(scorer, CriticalityChanges{});  // the first scan keys all
  ASSERT_EQ(scorer.assign_stats().full_rekeys, 1);

  std::vector<GateId> below;
  GateId lifted = kInvalidGate;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.gate(id).kind == CellKind::kInput) continue;
    if (crit[id] < kCritFloor) {
      crit[id] = below.size() % 2 == 0 ? crit[id] * 0.5 : kCritFloor;
      below.push_back(id);
    }
  }
  ASSERT_GT(below.size(), 10u);
  for (GateId id : below) {
    if (c.gate(id).vth == Vth::kLow && lifted == kInvalidGate) lifted = id;
  }
  ASSERT_NE(lifted, kInvalidGate);
  const auto expect_fresh_pick = [&](const MoveCandidate& got) {
    BatchScorer fresh(lib, leak, c, ssta.loads(), pool);
    EXPECT_TRUE(same_move(got, scan(fresh, CriticalityChanges{})));
  };

  const std::int64_t rekeys = scorer.assign_stats().rekeys;
  expect_fresh_pick(scan(scorer, CriticalityChanges{false, below}));
  EXPECT_EQ(scorer.assign_stats().rekeys, rekeys);
  expect_fresh_pick(scan(scorer, CriticalityChanges{}));
  EXPECT_EQ(scorer.assign_stats().rekeys, rekeys);
  EXPECT_EQ(scorer.assign_stats().full_diffs, 1);
  EXPECT_EQ(scorer.assign_stats().full_rekeys, 1);

  crit[lifted] = 0.5;
  const GateId one[] = {lifted};
  expect_fresh_pick(scan(scorer, CriticalityChanges{false, one}));
  EXPECT_EQ(scorer.assign_stats().rekeys, rekeys + 2);
  EXPECT_EQ(scorer.assign_stats().full_rekeys, 1);
}

}  // namespace
}  // namespace statleak
