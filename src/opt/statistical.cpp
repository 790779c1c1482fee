#include "opt/statistical.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "leakage/leakage.hpp"
#include "opt/batch_score.hpp"
#include "opt/checkpoint.hpp"
#include "opt/metrics.hpp"
#include "ssta/flat_incremental.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace statleak {

namespace {
constexpr double kEps = 1e-9;
/// Gates below this criticality are treated as timing-free in move pricing.
constexpr double kCritFloor = 1e-4;
/// Boost rounds of the sizing-enables-swaps outer loop (see run()).
constexpr int kMaxBoostRounds = 4;
}  // namespace

StatisticalOptimizer::StatisticalOptimizer(const CellLibrary& lib,
                                           const VariationModel& var,
                                           OptConfig config)
    : lib_(lib), var_(var), config_(std::move(config)) {
  STATLEAK_CHECK(config_.t_max_ps > 0.0, "delay target must be positive");
  STATLEAK_CHECK(config_.yield_target > 0.0 && config_.yield_target < 1.0,
                 "yield target must be in (0, 1)");
  STATLEAK_CHECK(
      config_.leakage_percentile > 0.0 && config_.leakage_percentile < 1.0,
      "leakage percentile must be in (0, 1)");
}

OptResult StatisticalOptimizer::run(Circuit& circuit,
                                    obs::Registry* obs) const {
  STATLEAK_CHECK(circuit.finalized(), "optimizer needs a finalized circuit");
  reset_implementation(circuit, lib_);
  obs::ScopedTimer total_timer(obs, "stat.total");

  FlatSstaEngine ssta(circuit, lib_, var_);
  ssta.attach_observer(obs);
  LeakageAnalyzer leak(circuit, lib_, var_);
  const auto steps = lib_.size_steps();
  const double t_max = config_.t_max_ps;
  const double eta = config_.yield_target;
  const double pct = config_.leakage_percentile;

  OptResult result;
  const auto max_iterations = static_cast<int>(
      config_.max_iterations_factor * static_cast<double>(circuit.num_cells()) +
      64.0);

  // Deadline plumbing: every phase loop tests out_of_time() *last* in its
  // condition, so a run that finishes naturally never observes the expiry
  // (completed stays true even when the clock runs out a moment later).
  // Commits are atomic — stopping between iterations always leaves a valid
  // implementation point on the circuit.
  const Deadline deadline(config_.deadline_ms);
  bool deadline_hit = false;
  const auto out_of_time = [&]() {
    if (deadline_hit) return true;
    if (deadline.expired()) deadline_hit = true;
    return deadline_hit;
  };

  // One "stat" trace event per loop iteration — every `++result.iterations`
  // site calls this exactly once, so the stream length always equals
  // OptResult::iterations. All inputs are const queries on the engines;
  // observation cannot perturb the trajectory.
  const auto record = [&](const char* phase, double objective, double yld,
                          double delay_mean_ps) {
    if (obs == nullptr) return;
    obs::TraceEvent e;
    e.step = result.iterations;
    e.phase = phase;
    e.objective = objective;
    e.yield = yld;
    e.delay_ps = delay_mean_ps;
    e.commits =
        result.sizing_commits + result.hvt_commits + result.downsize_commits;
    e.rejected = result.rejected_moves;
    obs->trace("stat", std::move(e));
  };

  // Durable checkpoint/resume (opt/checkpoint.hpp). An existing journal is
  // replayed *through the identical control flow*: every scan site below
  // first offers the iteration to replay_scan(), which serves the recorded
  // decision instead of scanning; the trial/commit/rollback is re-executed
  // to rebuild the engine caches and the accept verdict is re-derived and
  // cross-checked. When the committed prefix runs dry — a killed or
  // deadline-stopped producer simply left a shorter journal — the same site
  // switches to live scanning + appending in place, so the resumed
  // trajectory and final implementation are bit-identical to an
  // uninterrupted run (pinned by tests/opt_checkpoint_test.cpp).
  std::unique_ptr<OptJournal> journal_store;
  if (!config_.checkpoint_path.empty()) {
    journal_store = std::make_unique<OptJournal>(
        config_.checkpoint_path,
        opt_checkpoint_hash(circuit, lib_, var_, config_), circuit,
        config_.checkpoint_every);
  }
  OptJournal* const journal = journal_store.get();

  // ------------------------------------------ parallel candidate scoring ----
  // Move pricing in phases 1 and 2 is read-only per candidate (const queries
  // on the SSTA snapshot, load cache and leakage analyzer), so the
  // BatchScorer shards the sizing scan by gate index over a pool that lives
  // for the whole run, each shard pricing its moves in place under the
  // serial rule "first strictly-greater score wins, ids ascending", shards
  // reduced in index order (opt/batch_score.hpp). Commits stay serial, so
  // the optimization trajectory is identical for every thread count.
  ThreadPool pool(config_.num_threads);
  BatchScorer scorer(lib_, leak, circuit, ssta.loads(), pool);

  // Keeps the scorer's implementation mirrors in lockstep with the circuit.
  // Every set_size/set_vth in this function is followed by a sync(id);
  // missing one would desynchronize batched candidate filtering (caught by
  // tests/batch_score_test.cpp and the trajectory goldens).
  const auto sync = [&](GateId id) {
    const Gate& g = circuit.gate(id);
    scorer.set_impl(id, g.vth, g.size);
  };

  // Every implementation mutation goes through these two, so the circuit and
  // the SSTA caches can never disagree. Leakage is priced hypothetically
  // during scoring (quantile_if_na) and repriced only on commit, so it is
  // updated at the commit sites, not here.
  const auto apply_size = [&](GateId id, double size) {
    circuit.set_size(id, size);
    ssta.on_resize(id);
    sync(id);
  };
  const auto apply_vth = [&](GateId id, Vth vth) {
    circuit.set_vth(id, vth);
    ssta.on_vth_change(id);
    sync(id);
  };

  // ------------------------------------------------ snapshot machinery ----
  struct Snapshot {
    std::vector<double> sizes;
    std::vector<Vth> vths;
    double objective = 0.0;
  };
  const auto take_snapshot = [&]() {
    Snapshot s;
    s.sizes.reserve(circuit.num_gates());
    s.vths.reserve(circuit.num_gates());
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      s.sizes.push_back(circuit.gate(id).size);
      s.vths.push_back(circuit.gate(id).vth);
    }
    s.objective = leak.quantile_na(pct);
    return s;
  };
  const auto restore_snapshot = [&](const Snapshot& s) {
    // Per-gate diff through the engine-aware setters: only the gates that
    // actually differ get dirtied and repriced, so restoring a snapshot that
    // is close to the current implementation stays cheap. Ascending id order
    // makes every load's last recompute see final receiver sizes.
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      bool changed = false;
      if (circuit.gate(id).size != s.sizes[id]) {
        apply_size(id, s.sizes[id]);
        changed = true;
      }
      if (circuit.gate(id).vth != s.vths[id]) {
        apply_vth(id, s.vths[id]);
        changed = true;
      }
      if (changed) leak.on_gate_changed(id);
    }
  };

  // ------------------------------------------- phase 1: sizing for yield ----
  // Greedy criticality-weighted upsizing until P(D <= T) >= target.
  // Returns the yield reached.
  const auto phase_sizing = [&](double target) -> double {
    obs::ScopedTimer timer(obs, "stat.sizing");
    // Per-gate bitmask of locked size steps (flat array: the per-candidate
    // lock test is on the scoring hot path).
    STATLEAK_CHECK(steps.size() <= 64, "size grid too fine for lock mask");
    std::vector<std::uint64_t> locked(circuit.num_gates(), 0);
    double yield = ssta.circuit_delay().cdf(t_max);
    while (yield < target && result.iterations < max_iterations &&
           !out_of_time()) {
      ++result.iterations;
      const SstaResult& timing = ssta.analyze_ref();
      yield = timing.yield(t_max);
      // Invariant for the whole scan; hoisted out of the per-gate pricing.
      const double q_now = leak.quantile_na(pct);
      record("sizing", q_now, yield, timing.circuit_delay.mean);
      if (yield >= target) break;
      MoveCandidate best;
      OptScanOutcome replayed;
      if (journal != nullptr &&
          journal->replay_scan(OptPhase::kSizing, result.iterations,
                               replayed)) {
        best.gate = replayed.gate;
        best.step = replayed.step;
      } else {
        obs::ScopedTimer score_timer(obs, "stat.score");
        best = scorer.best_sizing(timing.criticality, locked, q_now, pct,
                                  kCritFloor, kEps);
      }
      if (best.gate == kInvalidGate) {  // no upsizing can help further
        if (journal != nullptr) {
          journal->record_no_candidate(OptPhase::kSizing, result.iterations,
                                       circuit);
        }
        break;
      }

      ssta.begin_trial();
      apply_size(best.gate, steps[best.step]);
      const double new_yield = ssta.circuit_delay().cdf(t_max);
      const bool accepted = new_yield > yield + 1e-12;
      if (!accepted) {
        // Fanin load coupling ate the gain: roll back and lock this step.
        ssta.rollback_trial();
        circuit.set_size(best.gate, steps[best.step - 1]);
        sync(best.gate);
        locked[best.gate] |= std::uint64_t{1} << best.step;
        ++result.rejected_moves;
      } else {
        ssta.commit_trial();
        leak.on_gate_changed(best.gate);
        yield = new_yield;
        ++result.sizing_commits;
      }
      if (journal != nullptr) {
        journal->record_decision(OptPhase::kSizing, result.iterations,
                                 OptMoveKind::kUpsize, best.gate,
                                 static_cast<std::uint32_t>(best.step), 0.0,
                                 accepted, circuit);
      }
    }
    return yield;
  };

  // ------------------------- phase 2: yield-constrained swaps/downsizing ----
  // `best_effort` permits moves that do not erode the current yield even if
  // eta itself is unreachable.
  const auto phase_assign = [&](bool best_effort) {
    obs::ScopedTimer timer(obs, "stat.assign");
    // Per-gate lock bits: 1 = hvt swap locked, 2 = downsize locked.
    std::vector<unsigned char> locked(circuit.num_gates(), 0);

    for (int round = 0; round < config_.assignment_rounds; ++round) {
      std::fill(locked.begin(), locked.end(), 0);
      int committed_this_round = 0;

      while (result.iterations < max_iterations && !out_of_time()) {
        ++result.iterations;
        const SstaResult& timing = ssta.analyze_ref();
        const double cur_yield = timing.yield(t_max);
        const double q_now = leak.quantile_na(pct);
        record("assign", q_now, cur_yield, timing.circuit_delay.mean);

        MoveCandidate best;
        OptScanOutcome replayed;
        if (journal != nullptr &&
            journal->replay_scan(OptPhase::kAssign, result.iterations,
                                 replayed)) {
          best.gate = replayed.gate;
          best.to_hvt = replayed.kind == OptMoveKind::kHvt;
          best.new_size = replayed.new_size;
        } else {
          obs::ScopedTimer score_timer(obs, "stat.score");
          best = scorer.best_assign(timing.criticality,
                                    ssta.criticality_changes(), locked, q_now,
                                    pct, kCritFloor, kEps);
          ssta.clear_criticality_changes();
        }
        if (best.gate == kInvalidGate) {
          if (journal != nullptr) {
            journal->record_no_candidate(OptPhase::kAssign, result.iterations,
                                         circuit);
          }
          break;
        }

        // Tentative apply inside an engine trial + forward SSTA validation.
        const Gate saved = circuit.gate(best.gate);
        ssta.begin_trial();
        if (best.to_hvt) {
          apply_vth(best.gate, Vth::kHigh);
        } else {
          apply_size(best.gate, best.new_size);
        }
        const double new_yield = ssta.circuit_delay().cdf(t_max);
        const bool acceptable =
            new_yield + 1e-12 >= eta ||
            (best_effort && new_yield + 1e-12 >= cur_yield);
        if (acceptable) {
          ssta.commit_trial();
          leak.on_gate_changed(best.gate);
          if (best.to_hvt) {
            ++result.hvt_commits;
          } else {
            ++result.downsize_commits;
          }
          ++committed_this_round;
        } else {
          // O(touched) cache restore; the circuit's own fields go back
          // through the setters, never by poking Gate members directly.
          ssta.rollback_trial();
          circuit.set_vth(best.gate, saved.vth);
          circuit.set_size(best.gate, saved.size);
          sync(best.gate);
          locked[best.gate] |=
              static_cast<unsigned char>(best.to_hvt ? 1 : 2);
          ++result.rejected_moves;
        }
        if (journal != nullptr) {
          journal->record_decision(OptPhase::kAssign, result.iterations,
                                   best.to_hvt ? OptMoveKind::kHvt
                                               : OptMoveKind::kDownsize,
                                   best.gate, 0, best.new_size, acceptable,
                                   circuit);
        }
        if (acceptable &&
            STATLEAK_FAULT_FIRES(
                fault::Point::kOptAssignKill,
                static_cast<std::uint64_t>(result.hvt_commits +
                                           result.downsize_commits))) {
          // Simulate a kill -9 right after the journal committed this
          // assignment: the process "dies" with the on-disk prefix ending
          // exactly at this decision (tests/fault_test.cpp resumes it).
          throw fault::InjectedCrash{};
        }
      }
      if (committed_this_round == 0) break;
    }
  };

  // ---------------------------------------------- phase 3: yield recovery ----
  const auto phase_recover = [&]() {
    obs::ScopedTimer timer(obs, "stat.recover");
    double yield = ssta.circuit_delay().cdf(t_max);
    std::set<std::pair<GateId, int>> tried;
    while (yield < eta && result.iterations < max_iterations &&
           !out_of_time()) {
      ++result.iterations;
      const SstaResult& timing = ssta.analyze_ref();
      record("recover", leak.quantile_na(pct), yield,
             timing.circuit_delay.mean);

      GateId best = kInvalidGate;
      bool to_lvt = false;
      OptScanOutcome replayed;
      if (journal != nullptr &&
          journal->replay_scan(OptPhase::kRecover, result.iterations,
                               replayed)) {
        best = replayed.gate;
        to_lvt = replayed.kind == OptMoveKind::kRecoverLvt;
      } else {
        double best_crit = 0.0;
        for (GateId id = 0; id < circuit.num_gates(); ++id) {
          const Gate& g = circuit.gate(id);
          if (g.kind == CellKind::kInput) continue;
          if (timing.criticality[id] <= best_crit) continue;
          if (g.vth == Vth::kHigh && tried.count({id, 0}) == 0) {
            best = id;
            to_lvt = true;
            best_crit = timing.criticality[id];
          } else if (lib_.nearest_step(g.size) + 1 < steps.size() &&
                     tried.count({id, 1}) == 0) {
            best = id;
            to_lvt = false;
            best_crit = timing.criticality[id];
          }
        }
      }
      if (best == kInvalidGate) {
        if (journal != nullptr) {
          journal->record_no_candidate(OptPhase::kRecover, result.iterations,
                                       circuit);
        }
        break;
      }

      if (to_lvt) {
        apply_vth(best, Vth::kLow);
        tried.insert({best, 0});
      } else {
        apply_size(best,
                   steps[lib_.nearest_step(circuit.gate(best).size) + 1]);
        tried.insert({best, 1});
      }
      leak.on_gate_changed(best);
      if (journal != nullptr) {
        journal->record_decision(OptPhase::kRecover, result.iterations,
                                 to_lvt ? OptMoveKind::kRecoverLvt
                                        : OptMoveKind::kRecoverUpsize,
                                 best, 0, 0.0, /*accepted=*/true, circuit);
      }
      yield = ssta.circuit_delay().cdf(t_max);
    }
    return yield;
  };

  // ------------------------------------------------------- main schedule ----
  double yield = phase_sizing(eta);
  result.feasible = yield >= eta;
  phase_assign(/*best_effort=*/!result.feasible);
  if (ssta.circuit_delay().cdf(t_max) < eta) {
    yield = phase_recover();
    result.feasible = yield + 1e-12 >= eta;
  }

  // Boost loop: greedy assignment saturates at the yield wall, but spending
  // a little leakage on upsizing statistically critical gates can buy slack
  // that enables far larger swap savings. Iterate "size above the target,
  // reassign against the real wall" while the objective improves.
  if (result.feasible) {
    Snapshot best = take_snapshot();
    double boost_target = eta;
    for (int round = 0; round < kMaxBoostRounds && !out_of_time(); ++round) {
      boost_target = std::min(0.99995, 1.0 - (1.0 - boost_target) * 0.35);
      (void)phase_sizing(boost_target);
      phase_assign(/*best_effort=*/false);
      const double objective = leak.quantile_na(pct);
      if (objective < best.objective * (1.0 - 1e-9)) best = take_snapshot();
      // Always explore every round (the greedy is path-dependent; a later,
      // higher boost can succeed where an earlier one plateaued), then keep
      // the best implementation seen.
    }
    restore_snapshot(best);
  }

  result.final_objective = leak.quantile_na(pct);
  result.completed = !deadline_hit;
  if (journal != nullptr) {
    // A deadline-stopped run appends no completion record: its journal
    // stays a resumable prefix instead of a dead partial result.
    if (result.completed) journal->record_complete(result, circuit);
    result.replayed_moves = static_cast<int>(journal->moves_replayed());
  }
  result.note = result.feasible ? "timing-yield target met"
                                : "yield target unreachable (best effort)";
  if (deadline_hit) result.note += "; stopped early: deadline expired";
  if (journal != nullptr && journal->resumed()) {
    result.note += "; resumed: replayed " +
                   std::to_string(journal->moves_replayed()) +
                   " journaled decisions";
  }
  if (obs != nullptr) {
    if (deadline_hit) obs->mark_incomplete("deadline");
    obs->add("stat.iterations", result.iterations);
    obs->add("stat.commits.sizing", result.sizing_commits);
    obs->add("stat.commits.hvt", result.hvt_commits);
    obs->add("stat.commits.downsize", result.downsize_commits);
    obs->add("stat.rejected_moves", result.rejected_moves);
    obs->set_gauge("stat.final_objective_na", result.final_objective);
    obs->set_gauge("stat.feasible", result.feasible ? 1.0 : 0.0);
    obs->set_gauge("stat.final_yield", ssta.circuit_delay().cdf(t_max));
    if (journal != nullptr) {
      obs->add("opt.journal_records",
               static_cast<double>(journal->records_appended()));
      obs->add("opt.journal_replayed",
               static_cast<double>(journal->moves_replayed()));
      obs->add("opt.journal_snapshots",
               static_cast<double>(journal->snapshots_appended()));
      obs->set_gauge("opt.resumed", journal->resumed() ? 1.0 : 0.0);
      obs->set_gauge("opt.journal_healthy", journal->healthy() ? 1.0 : 0.0);
      obs->note_config("opt.checkpoint", config_.checkpoint_path);
      obs->note_config_num(
          "opt.checkpoint_every",
          static_cast<std::int64_t>(config_.checkpoint_every));
    }
    obs->add("opt.flat_passes", static_cast<double>(scorer.passes()));
    obs->add("opt.candidate_blocks", static_cast<double>(scorer.blocks()));
    obs->add("opt.pruned_candidates", static_cast<double>(scorer.pruned()));
    const BatchScorer::AssignStats& assign = scorer.assign_stats();
    obs->add("opt.assign_rekeys", static_cast<double>(assign.rekeys));
    obs->add("opt.assign_full_rekeys", static_cast<double>(assign.full_rekeys));
    obs->add("opt.assign_full_diffs", static_cast<double>(assign.full_diffs));
    obs->add("opt.exact_candidates", static_cast<double>(assign.exact));
    obs->add("opt.unbounded_scans", static_cast<double>(assign.unbounded));
  }
  return result;
}

}  // namespace statleak
