// Differential equivalence harness for the optimizer's incremental
// (dirty-cone) SSTA engine, FlatSstaEngine, and the TreeSum-backed leakage
// analyzer.
//
// The contract under test: after ANY sequence of reported mutations —
// committed resizes and Vth swaps, trial moves that are rolled back, trial
// moves that are committed — every query on the long-lived incremental
// engine is *bit-identical* to the full-pass reference (graph_oracle.hpp)
// run on the same circuit. Equality is ==, never EXPECT_NEAR: the
// dirty-cone retiming recomputes each changed gate with exactly the
// arithmetic a full pass would use, and the fixed-shape summation trees make
// the leakage totals insensitive to update order.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "graph_oracle.hpp"
#include "leakage/leakage.hpp"
#include "obs/registry.hpp"
#include "permuted_circuit.hpp"
#include "ssta/flat_incremental.hpp"
#include "tech/process.hpp"
#include "util/rng.hpp"

namespace statleak {
namespace {

class SstaIncrementalTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();

  Circuit random_circuit(std::uint64_t seed, int gates = 250) const {
    RandomDagSpec spec;
    spec.num_inputs = 24;
    spec.num_gates = gates;
    spec.num_outputs = 12;
    spec.seed = seed;
    return make_random_dag(spec);
  }

  std::vector<GateId> cells_of(const Circuit& c) const {
    std::vector<GateId> cells;
    for (GateId id = 0; id < c.num_gates(); ++id) {
      if (c.gate(id).kind != CellKind::kInput) cells.push_back(id);
    }
    return cells;
  }
};

testing::AssertionResult same(const Canonical& a, const Canonical& b,
                              const char* what) {
  if (a.mean == b.mean && a.gl == b.gl && a.gv == b.gv && a.loc == b.loc) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << what << " diverged: (" << a.mean << ", " << a.gl << ", " << a.gv
         << ", " << a.loc << ") vs (" << b.mean << ", " << b.gl << ", "
         << b.gv << ", " << b.loc << ")";
}

/// Incremental engine + analyzer vs freshly constructed ones: arrivals,
/// criticality, circuit delay and leakage stats must match bitwise. The
/// fresh reference is the full-pass oracle, so this is a cross-engine
/// differential: the flat-SoA layout and its dirty-cone retiming must
/// reproduce the reference arithmetic bit for bit.
testing::AssertionResult states_match(const Circuit& c, const CellLibrary& lib,
                                      const VariationModel& var,
                                      const FlatSstaEngine& inc,
                                      const LeakageAnalyzer& leak) {
  const LoadCache fresh_loads(c, lib);
  const SstaResult got = inc.analyze();
  const SstaResult want = oracle::ssta(c, lib, var);

  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (inc.loads().load_ff(id) != fresh_loads.load_ff(id)) {
      return testing::AssertionFailure()
             << "load of gate " << id << " diverged: "
             << inc.loads().load_ff(id) << " vs " << fresh_loads.load_ff(id);
    }
    auto r = same(got.arrival[id], want.arrival[id],
                  ("arrival of gate " + std::to_string(id)).c_str());
    if (!r) return r;
    if (got.criticality[id] != want.criticality[id]) {
      return testing::AssertionFailure()
             << "criticality of gate " << id << " diverged: "
             << got.criticality[id] << " vs " << want.criticality[id];
    }
  }
  auto r = same(got.circuit_delay, want.circuit_delay, "circuit delay");
  if (!r) return r;

  const LeakageAnalyzer fresh_leak(c, lib, var);
  if (leak.mean_na() != fresh_leak.mean_na()) {
    return testing::AssertionFailure()
           << "leakage mean diverged: " << leak.mean_na() << " vs "
           << fresh_leak.mean_na();
  }
  if (leak.quantile_na(0.99) != fresh_leak.quantile_na(0.99)) {
    return testing::AssertionFailure()
           << "leakage p99 diverged: " << leak.quantile_na(0.99) << " vs "
           << fresh_leak.quantile_na(0.99);
  }
  if (leak.distribution().var_na2 != fresh_leak.distribution().var_na2) {
    return testing::AssertionFailure() << "leakage variance diverged";
  }
  return testing::AssertionSuccess();
}

// ------------------------------------------------- randomized move walks ----

/// Restores one gate's size/Vth after a rolled-back move. The engine
/// restores its own caches in rollback_trial(); the leakage analyzer is
/// simply told about the restored gate again.
struct Saved {
  GateId id;
  double size;
  Vth vth;
};

void restore(Circuit& c, LeakageAnalyzer& leak, const Saved& s) {
  c.set_size(s.id, s.size);
  c.set_vth(s.id, s.vth);
  leak.on_gate_changed(s.id);
}

/// 1000-step random walk of committed moves, rolled-back trials and
/// committed trials on a random DAG; bit-identity asserted against fresh
/// full-pass reference engines after every step: CSR win slices, cached
/// own delays, rollback memcpy restores and the eight-lane Clark kernel of
/// the cone retime (in variant `isa`) must reproduce the reference
/// arithmetic. `log_cap` > 0 caps the undo log so small that most
/// rolled-back trials take the lost-baseline path (rollback reprimes with a
/// full pass) instead of the entry-by-entry restore.
void random_walk(const CellLibrary& lib, const VariationModel& var,
                 Circuit& c, std::uint64_t seed, SimdIsa isa,
                 std::size_t log_cap, obs::Registry* reg) {
  const auto steps = lib.size_steps();
  std::vector<GateId> cells;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    if (c.gate(id).kind != CellKind::kInput) cells.push_back(id);
  }
  FlatSstaEngine inc(c, lib, var, isa);
  inc.attach_observer(reg);
  if (log_cap > 0) inc.set_trial_log_cap(log_cap);
  LeakageAnalyzer leak(c, lib, var);
  Rng rng(seed * 1000003ull);

  const auto random_move = [&](GateId id) {
    if (rng.uniform() < 0.5) {
      c.set_size(id, steps[rng.uniform_index(steps.size())]);
      inc.on_resize(id);
    } else {
      const Vth flipped = c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow;
      c.set_vth(id, flipped);
      inc.on_vth_change(id);
    }
    leak.on_gate_changed(id);
  };

  for (int step = 0; step < 1000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.55) {
      // Committed single move.
      random_move(cells[rng.uniform_index(cells.size())]);
    } else {
      // Trial of 1-3 moves; half are rolled back, half committed.
      const bool rollback = roll < 0.80;
      const int moves = 1 + static_cast<int>(rng.uniform_index(3));
      std::vector<Saved> saved;
      inc.begin_trial();
      for (int m = 0; m < moves; ++m) {
        const GateId id = cells[rng.uniform_index(cells.size())];
        saved.push_back({id, c.gate(id).size, c.gate(id).vth});
        random_move(id);
        // Sometimes query mid-trial so the cone actually retimes inside
        // the trial (exercises the undo log, not just the dirty list).
        if (rng.uniform() < 0.7) (void)inc.circuit_delay();
      }
      if (rollback) {
        inc.rollback_trial();
        for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
          restore(c, leak, *it);
        }
      } else {
        inc.commit_trial();
      }
    }
    ASSERT_TRUE(states_match(c, lib, var, inc, leak))
        << "seed " << seed << ", step " << step;
  }
}

TEST_F(SstaIncrementalTest, FlatEngineRandomWalkMatchesScalarEverySeed) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    Circuit c = random_circuit(seed);
    random_walk(lib_, var_, c, seed, host_simd_isa(), seed >= 44 ? 4 : 0,
                nullptr);
    if (HasFatalFailure()) return;
  }
}

/// The same walk on a wider DAG with the lane kernel forced to the
/// baseline variant (on an AVX-512 host the walk above runs the other
/// one); the registry shows the retime really ran eight-lane batches.
TEST_F(SstaIncrementalTest, BaselineIsaWalkMatchesOracle) {
  Circuit c = random_circuit(66, 1500);
  obs::Registry reg;
  random_walk(lib_, var_, c, 66, SimdIsa::kBaseline, 0, &reg);
  EXPECT_GT(reg.counter_value("ssta.lane_gates"), 0.0);
  EXPECT_LE(reg.counter_value("ssta.lane_gates"),
            reg.counter_value("ssta.flat_cone_gates_retimed"));
}

/// Incremental criticality on a circuit large enough for sparse refreshes
/// to take the backward walk rather than the dense scatter (c3540p: n/8 is
/// 255 seeds). Committed moves, rolled-back and committed trials mix with
/// forward-only circuit_delay() queries, so several retimes feed one
/// refresh; states_match's analyze() compares every criticality bit
/// with a fresh oracle pass after every step. A trial rolled back right
/// after a refresh must leave no criticality work behind, and an analyze
/// inside a trial costs one scatter after its rollback.
TEST_F(SstaIncrementalTest, CriticalityWalkMatchesScalarAcrossTrials) {
  Circuit c = iscas85_proxy("c3540p");
  const auto cells = cells_of(c);
  const auto steps = lib_.size_steps();
  FlatSstaEngine inc(c, lib_, var_);
  LeakageAnalyzer leak(c, lib_, var_);
  obs::Registry reg;
  inc.attach_observer(&reg);
  Rng rng(17);
  const auto crit_work = [&] {
    return reg.counter_value("ssta.crit_walks") +
           reg.counter_value("ssta.crit_full_passes");
  };
  const auto random_move = [&](GateId id) {
    if (rng.uniform() < 0.5) {
      c.set_size(id, steps[rng.uniform_index(steps.size())]);
      inc.on_resize(id);
    } else {
      c.set_vth(id, c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
      inc.on_vth_change(id);
    }
    leak.on_gate_changed(id);
  };
  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));

  bool analyzed_inside = false;
  for (int step = 0; step < 300; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.5) {
      // Committed moves, each usually followed by a forward-only query.
      const int moves = 1 + static_cast<int>(rng.uniform_index(3));
      for (int m = 0; m < moves; ++m) {
        random_move(cells[rng.uniform_index(cells.size())]);
        if (rng.uniform() < 0.7) (void)inc.circuit_delay();
      }
    } else {
      const bool rollback = roll < 0.8;
      // Once, halfway through: an analyze inside a trial, then rollback.
      const bool analyze_inside = !analyzed_inside && step >= 150;
      analyzed_inside = analyzed_inside || analyze_inside;
      const double work_before = crit_work();
      std::vector<Saved> saved;
      inc.begin_trial();
      const int moves = 1 + static_cast<int>(rng.uniform_index(3));
      for (int m = 0; m < moves; ++m) {
        const GateId id = cells[rng.uniform_index(cells.size())];
        saved.push_back({id, c.gate(id).size, c.gate(id).vth});
        random_move(id);
        (void)inc.circuit_delay();
      }
      if (analyze_inside) (void)inc.analyze_ref();
      if (rollback || analyze_inside) {
        inc.rollback_trial();
        for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
          restore(c, leak, *it);
        }
        // The previous step ended on a refresh, so only an analyze inside
        // the trial leaves criticality work: one scatter.
        const double before_refresh = crit_work();
        (void)inc.analyze_ref();
        EXPECT_EQ(crit_work() - before_refresh, analyze_inside ? 1.0 : 0.0)
            << "step " << step;
        if (analyze_inside) {
          EXPECT_EQ(crit_work() - work_before, 2.0) << "step " << step;
        }
      } else {
        inc.commit_trial();
      }
    }
    ASSERT_TRUE(states_match(c, lib_, var_, inc, leak)) << "step " << step;
  }
  EXPECT_TRUE(analyzed_inside);
  EXPECT_GT(reg.counter_value("ssta.crit_walks"), 0.0);
  EXPECT_GT(reg.counter_value("ssta.crit_updates"), 0.0);
}

/// The criticality refresh rule at counter level. A walk update costs about
/// 3.5 scattered gates, so a sparse refresh scatters when its seed count
/// times the last walk's updates per seed predicts more than n/3.5
/// updates. Toggling a gate's Vth and back changes the win and sink weights
/// of the same gates both ways, so the second refresh has the first one's
/// seeds and is predicted at the first walk's size: it must scatter after a
/// walk well past the cutover and walk again after one well below it. Each
/// probe starts from a fresh engine, whose first sparse refresh always
/// walks, and every refresh is checked against the oracle.
TEST_F(SstaIncrementalTest, CriticalityRefreshScattersAfterACostlyWalk) {
  Circuit c = iscas85_proxy("c3540p");
  const double cutover = static_cast<double>(c.num_gates()) / 3.5;
  const auto cells = cells_of(c);
  int costly = 0;
  int cheap = 0;
  for (std::size_t i = 0; i < cells.size() && (costly < 3 || cheap < 3);
       i += 7) {
    const GateId id = cells[i];
    FlatSstaEngine inc(c, lib_, var_);
    LeakageAnalyzer leak(c, lib_, var_);
    obs::Registry reg;
    inc.attach_observer(&reg);
    const auto count = [&](const char* name) {
      return reg.counter_value(name);
    };
    const auto toggle = [&] {
      c.set_vth(id, c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
      inc.on_vth_change(id);
      leak.on_gate_changed(id);
      (void)inc.analyze_ref();
    };
    (void)inc.analyze_ref();
    ASSERT_EQ(count("ssta.crit_full_passes"), 1.0);  // priming
    toggle();
    ASSERT_TRUE(states_match(c, lib_, var_, inc, leak)) << "gate " << id;
    const bool walked = count("ssta.crit_walks") == 1.0;
    const double first_walk = count("ssta.crit_updates");
    const double scatters = count("ssta.crit_full_passes");
    toggle();  // back: the circuit is shared by every probe
    ASSERT_TRUE(states_match(c, lib_, var_, inc, leak)) << "gate " << id;
    if (!walked) continue;  // a dense refresh, or nothing moved
    if (first_walk > 1.2 * cutover) {
      ++costly;
      EXPECT_EQ(count("ssta.crit_walks"), 1.0) << "gate " << id;
      EXPECT_EQ(count("ssta.crit_full_passes"), scatters + 1.0)
          << "gate " << id;
    } else if (first_walk < 0.8 * cutover) {
      ++cheap;
      EXPECT_EQ(count("ssta.crit_walks"), 2.0) << "gate " << id;
      EXPECT_EQ(count("ssta.crit_full_passes"), scatters) << "gate " << id;
    }
  }
  EXPECT_GE(costly, 3);
  EXPECT_GE(cheap, 3);
}

/// The engine indexes every array by topo rank and speaks GateIds only at
/// its API edge. Here ids are far from ranks (permuted_circuit.hpp). A
/// seeded walk of committed moves, committed and rolled-back trials, with
/// a log cap small enough that most trials lose their baseline, must keep
/// arrivals, criticality by GateId (after walks and scatters alike) and
/// the circuit delay equal to the oracle's bit for bit.
TEST_F(SstaIncrementalTest, PermutedGateIdsMatchOracleBitwise) {
  Circuit c = permuted_circuit();
  const auto cells = cells_of(c);
  const auto steps = lib_.size_steps();
  FlatSstaEngine inc(c, lib_, var_);
  inc.set_trial_log_cap(8);
  LeakageAnalyzer leak(c, lib_, var_);
  obs::Registry reg;
  inc.attach_observer(&reg);
  Rng rng(72);
  const auto random_move = [&](GateId id) {
    if (rng.uniform() < 0.5) {
      c.set_size(id, steps[rng.uniform_index(steps.size())]);
      inc.on_resize(id);
    } else {
      c.set_vth(id, c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
      inc.on_vth_change(id);
    }
    leak.on_gate_changed(id);
  };
  for (int step = 0; step < 300; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.4) {
      random_move(cells[rng.uniform_index(cells.size())]);
      if (rng.uniform() < 0.5) (void)inc.circuit_delay();
    } else {
      std::vector<Saved> saved;
      inc.begin_trial();
      const int moves = 1 + static_cast<int>(rng.uniform_index(2));
      for (int m = 0; m < moves; ++m) {
        const GateId id = cells[rng.uniform_index(cells.size())];
        saved.push_back({id, c.gate(id).size, c.gate(id).vth});
        random_move(id);
        (void)inc.circuit_delay();
      }
      if (roll < 0.75) {
        inc.rollback_trial();
        for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
          restore(c, leak, *it);
        }
      } else {
        inc.commit_trial();
      }
    }
    ASSERT_TRUE(states_match(c, lib_, var_, inc, leak)) << "step " << step;
  }
  EXPECT_GT(reg.counter_value("ssta.crit_walks"), 0.0);
  EXPECT_GT(reg.counter_value("ssta.crit_full_passes"), 1.0);
  EXPECT_GT(reg.counter_value("ssta.flat_full_passes"), 1.0);
  EXPECT_GT(reg.counter_value("ssta.unlogged_trials"), 0.0);
}

// ------------------------------------------------- criticality change feed ----

/// The engine's criticality change feed (flat_incremental.hpp) against the
/// published array itself. A walk of committed moves, rolled-back and
/// committed trials (some with an analyze inside the trial) mixes with
/// forward-only queries. After every analyze_ref(), every GateId whose
/// published criticality differs bitwise from the copy taken at the last
/// clear must be listed, unless the feed reads "all". The feed is cleared
/// at random points, so lists also span several refreshes. Both the list
/// and the "all" form must show up with changes pending on every circuit.
TEST_F(SstaIncrementalTest, CriticalityFeedCoversEveryRepublishedGate) {
  struct Case {
    const char* name;
    Circuit circuit;
  };
  std::vector<Case> cases;
  for (const std::uint64_t seed : {5u, 23u, 41u}) {
    cases.push_back({"rdag", random_circuit(seed, 600)});
  }
  cases.push_back({"c880p", iscas85_proxy("c880p")});
  cases.push_back({"permuted", permuted_circuit()});
  const auto steps = lib_.size_steps();
  for (Case& k : cases) {
    Circuit& c = k.circuit;
    const auto cells = cells_of(c);
    FlatSstaEngine inc(c, lib_, var_);
    Rng rng(cells.size());
    std::vector<double> seen(c.num_gates(), 0.0);
    int listed = 0;
    int all = 0;
    const auto check = [&](int step) {
      const SstaResult& t = inc.analyze_ref();
      const CriticalityChanges feed = inc.criticality_changes();
      std::vector<char> in_list(c.num_gates(), 0);
      for (GateId id : feed.gates) in_list[id] = 1;
      bool moved = false;
      for (GateId id = 0; id < c.num_gates(); ++id) {
        if (std::bit_cast<std::uint64_t>(t.criticality[id]) ==
            std::bit_cast<std::uint64_t>(seen[id])) {
          continue;
        }
        moved = true;
        ASSERT_TRUE(feed.all || in_list[id] != 0)
            << k.name << ": gate " << id << " moved unlisted, step " << step;
      }
      if (moved) {
        all += feed.all ? 1 : 0;
        listed += feed.all ? 0 : 1;
      }
      if (rng.uniform() < 0.6) {
        inc.clear_criticality_changes();
        seen = t.criticality;
      }
    };
    const auto random_move = [&](GateId id) {
      if (rng.uniform() < 0.5) {
        c.set_size(id, steps[rng.uniform_index(steps.size())]);
        inc.on_resize(id);
      } else {
        c.set_vth(id, c.gate(id).vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
        inc.on_vth_change(id);
      }
    };
    for (int step = 0; step < 300; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.4) {
        random_move(cells[rng.uniform_index(cells.size())]);
        if (rng.uniform() < 0.5) (void)inc.circuit_delay();
      } else {
        std::vector<Saved> saved;
        inc.begin_trial();
        const int moves = 1 + static_cast<int>(rng.uniform_index(2));
        for (int m = 0; m < moves; ++m) {
          const GateId id = cells[rng.uniform_index(cells.size())];
          saved.push_back({id, c.gate(id).size, c.gate(id).vth});
          random_move(id);
          (void)inc.circuit_delay();
        }
        if (rng.uniform() < 0.2) check(step);  // a refresh inside the trial
        if (HasFatalFailure()) return;
        if (roll < 0.75) {
          inc.rollback_trial();
          for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
            c.set_size(it->id, it->size);
            c.set_vth(it->id, it->vth);
          }
        } else {
          inc.commit_trial();
        }
      }
      check(step);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(listed, 0) << k.name;
    EXPECT_GT(all, 0) << k.name;
  }
}

// ------------------------------------------------------ trial edge cases ----

/// Rollback-after-trial must restore the engine state *bitwise* — the flat
/// engine's undo path is memcpy of CSR slices plus the own-delay log, and a
/// single missed slot would surface as a one-bit arrival drift here.
TEST_F(SstaIncrementalTest, FlatEngineRejectedTrialRestoresBitwise) {
  Circuit c = random_circuit(3);
  FlatSstaEngine inc(c, lib_, var_);
  LeakageAnalyzer leak(c, lib_, var_);
  (void)inc.analyze();  // prime the caches

  // Capture the committed state exactly as the optimizer sees it.
  const SstaResult before = inc.analyze();
  const GateId victim = cells_of(c).front();
  const Gate saved = c.gate(victim);

  inc.begin_trial();
  c.set_size(victim, 8.0);
  inc.on_resize(victim);
  leak.on_gate_changed(victim);
  c.set_vth(victim, Vth::kHigh);
  inc.on_vth_change(victim);
  leak.on_gate_changed(victim);
  (void)inc.circuit_delay();  // force retiming inside the trial
  inc.rollback_trial();
  restore(c, leak, {victim, saved.size, saved.vth});

  EXPECT_FALSE(inc.trial_active());
  const SstaResult after = inc.analyze();
  for (GateId id = 0; id < c.num_gates(); ++id) {
    ASSERT_TRUE(same(after.arrival[id], before.arrival[id],
                     ("post-rollback arrival of gate " + std::to_string(id))
                         .c_str()));
    ASSERT_EQ(after.criticality[id], before.criticality[id]) << "gate " << id;
  }
  ASSERT_TRUE(same(after.circuit_delay, before.circuit_delay,
                   "post-rollback circuit delay"));
  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
}

TEST_F(SstaIncrementalTest, FlatEngineRollbackOnUnprimedEngineStaysExact) {
  Circuit c = random_circuit(5);
  FlatSstaEngine inc(c, lib_, var_);  // never queried: trial starts unprimed
  LeakageAnalyzer leak(c, lib_, var_);
  const GateId victim = cells_of(c).back();
  const Gate saved = c.gate(victim);

  inc.begin_trial();
  c.set_size(victim, 4.0);
  inc.on_resize(victim);
  (void)inc.circuit_delay();
  inc.rollback_trial();
  c.set_size(victim, saved.size);

  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
}

TEST_F(SstaIncrementalTest, PendingDirtFromBeforeTheTrialSurvivesRollback) {
  Circuit c = random_circuit(6);
  const auto cells = cells_of(c);
  FlatSstaEngine inc(c, lib_, var_);
  LeakageAnalyzer leak(c, lib_, var_);
  (void)inc.analyze();

  // A committed (but not yet flushed) change...
  c.set_size(cells[1], 6.0);
  inc.on_resize(cells[1]);
  leak.on_gate_changed(cells[1]);

  // ...must not be forgotten when an unrelated trial rolls back.
  const Gate saved = c.gate(cells[2]);
  inc.begin_trial();
  c.set_vth(cells[2], Vth::kHigh);
  inc.on_vth_change(cells[2]);
  inc.rollback_trial();
  c.set_vth(cells[2], saved.vth);

  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
}

/// On a circuit of a few thousand gates every rejected trial restores from
/// the undo log at the default cap: the one full pass is the priming one.
/// Upsizing a gate near the inputs to the top of the grid retimes most of
/// its fanout cone, so several of these trials log more arrivals than an
/// n/8 + 1024 cap would allow.
TEST_F(SstaIncrementalTest, RejectHeavyWalkAtDefaultCapNeverReprimes) {
  Circuit c = iscas85_proxy("c3540p");
  FlatSstaEngine inc(c, lib_, var_);
  LeakageAnalyzer leak(c, lib_, var_);
  obs::Registry reg;
  inc.attach_observer(&reg);
  (void)inc.analyze_ref();

  std::vector<GateId> shallow;
  for (GateId id : cells_of(c)) {
    if (c.level(id) <= 2) shallow.push_back(id);
  }
  ASSERT_FALSE(shallow.empty());
  const double top = lib_.size_steps().back();
  Rng rng(15);
  for (int trial = 0; trial < 60; ++trial) {
    const GateId id = shallow[rng.uniform_index(shallow.size())];
    const Gate saved = c.gate(id);
    inc.begin_trial();
    c.set_size(id, top);
    inc.on_resize(id);
    if (trial % 3 == 0) {
      c.set_vth(id, saved.vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
      inc.on_vth_change(id);
    }
    if (trial % 2 == 0) {
      (void)inc.circuit_delay();
    } else {
      (void)inc.analyze_ref();
    }
    inc.rollback_trial();
    restore(c, leak, {id, saved.size, saved.vth});
  }
  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
  EXPECT_EQ(reg.counter_value("ssta.flat_full_passes"), 1.0);
}

/// A trial after one that wrote more arrivals than the log cap starts
/// without an undo log. Its rollback reprimes with one full pass and lands
/// on the oracle's bits; the next trial, following a small one, logs again
/// and restores from the log.
TEST_F(SstaIncrementalTest, TrialAfterCapExceedingTrialStartsUnlogged) {
  Circuit c = random_circuit(81, 400);
  const auto cells = cells_of(c);
  FlatSstaEngine inc(c, lib_, var_);
  LeakageAnalyzer leak(c, lib_, var_);
  obs::Registry reg;
  inc.attach_observer(&reg);
  inc.set_trial_log_cap(4);
  (void)inc.analyze_ref();
  const auto counter = [&](const char* name) {
    return reg.counter_value(name);
  };

  // Big: upsizing every level-1 gate to the top of the grid retimes most
  // of the circuit.
  inc.begin_trial();
  for (GateId id : cells) {
    if (c.level(id) != 1) continue;
    c.set_size(id, lib_.size_steps().back());
    inc.on_resize(id);
    leak.on_gate_changed(id);
  }
  (void)inc.circuit_delay();
  inc.commit_trial();
  EXPECT_EQ(counter("ssta.unlogged_trials"), 0.0);

  // Small: a Vth flip of a gate without fanouts rewrites one arrival.
  GateId leaf = kInvalidGate;
  for (GateId id : cells) {
    if (c.fanouts(id).empty()) leaf = id;
  }
  ASSERT_NE(leaf, kInvalidGate);
  const auto small_trial = [&] {
    const Gate saved = c.gate(leaf);
    inc.begin_trial();
    c.set_vth(leaf, saved.vth == Vth::kLow ? Vth::kHigh : Vth::kLow);
    inc.on_vth_change(leaf);
    (void)inc.circuit_delay();
    inc.rollback_trial();
    c.set_vth(leaf, saved.vth);
  };
  const double full_before = counter("ssta.flat_full_passes");
  small_trial();
  EXPECT_EQ(counter("ssta.unlogged_trials"), 1.0);
  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
  EXPECT_EQ(counter("ssta.flat_full_passes"), full_before + 1.0);

  small_trial();
  EXPECT_EQ(counter("ssta.unlogged_trials"), 1.0);
  ASSERT_TRUE(states_match(c, lib_, var_, inc, leak));
  EXPECT_EQ(counter("ssta.flat_full_passes"), full_before + 1.0);
}

}  // namespace
}  // namespace statleak
