#include "opt/deterministic.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "opt/corner_timer.hpp"
#include "opt/metrics.hpp"
#include "util/error.hpp"

namespace statleak {

namespace {
constexpr double kEpsPs = 1e-9;
/// Boost rounds of the sizing-enables-swaps outer loop (see run()).
constexpr int kMaxBoostRounds = 4;
/// Per-round shrink of the phase-1 target delay during boosting.
constexpr double kBoostShrink = 0.97;
}  // namespace

DeterministicOptimizer::DeterministicOptimizer(const CellLibrary& lib,
                                               const VariationModel& var,
                                               OptConfig config)
    : lib_(lib), var_(var), config_(std::move(config)) {
  STATLEAK_CHECK(config_.t_max_ps > 0.0, "delay target must be positive");
  STATLEAK_CHECK(config_.corner_k_sigma >= 0.0,
                 "corner k-sigma must be non-negative");
}

OptResult DeterministicOptimizer::run(Circuit& circuit,
                                      obs::Registry* obs) const {
  STATLEAK_CHECK(circuit.finalized(), "optimizer needs a finalized circuit");
  reset_implementation(circuit, lib_);
  obs::ScopedTimer total_timer(obs, "det.total");

  const auto steps = lib_.size_steps();
  STATLEAK_CHECK(steps.size() <= 64, "size grid too fine for lock mask");
  const double t_max = config_.t_max_ps;
  // Every size/Vth change below goes through the timer, which invalidates
  // exactly the cached corner delays the change feeds.
  CornerTimer sta(circuit, lib_,
                  config_.corner_k_sigma * var_.sigma_l_total_nm(),
                  config_.corner_k_sigma * var_.sigma_vth_total_v());
  const auto total_leak = [&]() {
    double sum = 0.0;
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      const Gate& g = circuit.gate(id);
      if (g.kind == CellKind::kInput) continue;
      sum += lib_.leakage_na(g.kind, g.vth, g.size);
    }
    return sum;
  };

  OptResult result;
  const auto max_iterations = static_cast<int>(
      config_.max_iterations_factor * static_cast<double>(circuit.num_cells()) +
      64.0);

  // Wall-clock budget (ExecConfig::deadline_ms; 0 = none). Checked at loop
  // boundaries, latched so the label is stable, and always tested LAST in a
  // condition chain: a run that finishes naturally just before expiry is
  // still "completed".
  const Deadline deadline(config_.deadline_ms);
  bool deadline_hit = false;
  const auto out_of_time = [&]() {
    if (deadline_hit) return true;
    if (deadline.expired()) deadline_hit = true;
    return deadline_hit;
  };

  // One "det" trace event per loop iteration (see the header contract).
  // total_leak() is an O(n) const scan, paid only when a registry is
  // attached; observation never feeds back into the computation.
  const auto record = [&](const char* phase, double delay_ps) {
    if (obs == nullptr) return;
    obs::TraceEvent e;
    e.step = result.iterations;
    e.phase = phase;
    e.objective = total_leak();
    e.delay_ps = delay_ps;
    e.commits =
        result.sizing_commits + result.hvt_commits + result.downsize_commits;
    e.rejected = result.rejected_moves;
    obs->trace("det", std::move(e));
  };

  // ------------------------------------------------ snapshot machinery ----
  struct Snapshot {
    std::vector<std::size_t> steps;
    std::vector<Vth> vths;
    double objective = 0.0;
  };
  const auto take_snapshot = [&]() {
    Snapshot s{{}, {circuit.vths().begin(), circuit.vths().end()},
               total_leak()};
    s.steps.reserve(circuit.num_gates());
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      s.steps.push_back(sta.step(id));
    }
    return s;
  };
  const auto restore_snapshot = [&](const Snapshot& s) {
    // Per-gate diff through the timer's mutators, so only the gates that
    // differ are dirtied.
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      if (sta.step(id) != s.steps[id]) sta.set_size_step(id, s.steps[id]);
      if (circuit.gate(id).vth != s.vths[id]) sta.set_vth(id, s.vths[id]);
    }
  };

  // -------------------------- phase 1: TILOS-style upsizing to a target ----
  const auto phase_sizing = [&](double target_ps) -> bool {
    obs::ScopedTimer timer(obs, "det.sizing");
    // Per-gate bitmask of size steps whose upsizing was tried and undone.
    std::vector<std::uint64_t> locked(circuit.num_gates(), 0);
    while (result.iterations < max_iterations && !out_of_time()) {
      ++result.iterations;
      const StaResult& timing = sta.analyze(target_ps);
      const double before = timing.critical_delay_ps;
      record("sizing", before);
      if (before <= target_ps) return true;

      GateId best = kInvalidGate;
      std::size_t best_step = 0;
      double best_score = 0.0;
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        const Gate& g = circuit.gate(id);
        if (g.kind == CellKind::kInput) continue;
        if (timing.slack_ps[id] >= 0.0) continue;
        const std::size_t next = sta.step(id) + 1;
        if (next >= steps.size()) continue;
        if ((locked[id] >> next & 1U) != 0) continue;

        // Own delay gain minus the load penalty upsizing puts on the fanin
        // drivers.
        const double net_gain = sta.delay_ps(id) - sta.delay_up_ps(id) -
                                sta.upsize_penalty_ps(id);
        if (net_gain <= kEpsPs) continue;

        const double dleak = lib_.leakage_na(g.kind, g.vth, steps[next]) -
                             lib_.leakage_na(g.kind, g.vth, g.size);
        const double score = net_gain / std::max(dleak, 1e-9);
        if (score > best_score) {
          best_score = score;
          best = id;
          best_step = next;
        }
      }
      if (best == kInvalidGate) return false;  // cannot improve further

      sta.set_size_step(best, best_step);
      if (sta.critical_delay_ps() >= before - kEpsPs) {
        // Second-order load coupling made the move useless; undo + lock.
        sta.set_size_step(best, best_step - 1);
        locked[best] |= std::uint64_t{1} << best_step;
        ++result.rejected_moves;
      } else {
        ++result.sizing_commits;
      }
    }
    return sta.critical_delay_ps() <= target_ps + kEpsPs;
  };

  // --------------- phase 2: greedy Vth swaps + downsizing inside slack ----
  // Both move types slow only the moved gate (downsizing additionally
  // speeds up its fanin drivers), so a move is safe iff its own delay
  // increase fits in the gate's corner slack.
  const auto phase_assign = [&]() {
    obs::ScopedTimer timer(obs, "det.assign");
    while (result.iterations < max_iterations && !out_of_time()) {
      ++result.iterations;
      const StaResult& timing = sta.analyze(t_max);
      record("assign", timing.critical_delay_ps);

      GateId best = kInvalidGate;
      bool best_is_vth = false;
      double best_score = 0.0;
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        const Gate& g = circuit.gate(id);
        if (g.kind == CellKind::kInput) continue;
        const double slack = timing.slack_ps[id] - config_.slack_margin_ps;
        if (slack <= 0.0) continue;
        const double d_now = sta.delay_ps(id);

        if (g.vth == Vth::kLow) {
          const double dd = sta.delay_hvt_ps(id) - d_now;
          if (dd <= slack) {
            const double dleak = lib_.leakage_na(g.kind, Vth::kLow, g.size) -
                                 lib_.leakage_na(g.kind, Vth::kHigh, g.size);
            const double score = dleak / std::max(dd, kEpsPs);
            if (score > best_score) {
              best_score = score;
              best = id;
              best_is_vth = true;
            }
          }
        }
        if (sta.step(id) > 0) {
          const double smaller = steps[sta.step(id) - 1];
          const double dd = sta.delay_down_ps(id) - d_now;
          if (dd <= slack) {
            const double dleak = lib_.leakage_na(g.kind, g.vth, g.size) -
                                 lib_.leakage_na(g.kind, g.vth, smaller);
            const double score = dleak / std::max(dd, kEpsPs);
            if (score > best_score) {
              best_score = score;
              best = id;
              best_is_vth = false;
            }
          }
        }
      }
      if (best == kInvalidGate) break;

      if (best_is_vth) {
        sta.set_vth(best, Vth::kHigh);
        ++result.hvt_commits;
      } else {
        sta.set_size_step(best, sta.step(best) - 1);
        ++result.downsize_commits;
      }
    }
  };

  // ------------------------------------------------------- main schedule ----
  result.feasible = phase_sizing(t_max);
  phase_assign();

  // Boost loop (mirrors the statistical optimizer): upsizing slightly past
  // the constraint buys slack that enables disproportionate swap savings.
  if (result.feasible) {
    Snapshot best = take_snapshot();
    double target = t_max;
    for (int round = 0; round < kMaxBoostRounds && !out_of_time(); ++round) {
      target *= kBoostShrink;
      (void)phase_sizing(target);
      phase_assign();
      const double objective = total_leak();
      if (objective < best.objective * (1.0 - 1e-9)) best = take_snapshot();
      // Always explore every round (the greedy is path-dependent; a later,
      // tighter boost can succeed where an earlier one plateaued), then
      // keep the best implementation seen.
    }
    restore_snapshot(best);
  }

  result.final_objective = total_leak();
  result.completed = !deadline_hit;
  result.note = result.feasible
                    ? "corner delay target met"
                    : "delay target unreachable at max sizes (best effort)";
  if (deadline_hit) result.note += "; stopped early: deadline expired";
  if (obs != nullptr) {
    if (deadline_hit) obs->mark_incomplete("deadline");
    obs->add("det.iterations", result.iterations);
    obs->add("det.commits.sizing", result.sizing_commits);
    obs->add("det.commits.hvt", result.hvt_commits);
    obs->add("det.commits.downsize", result.downsize_commits);
    obs->add("det.rejected_moves", result.rejected_moves);
    obs->set_gauge("det.final_objective_na", result.final_objective);
    obs->set_gauge("det.feasible", result.feasible ? 1.0 : 0.0);
    obs->add("det.sta_passes", static_cast<double>(sta.sta_passes()));
    obs->add("det.delay_evals", static_cast<double>(sta.delay_evals()));
    obs->add("det.arrival_updates",
             static_cast<double>(sta.arrival_updates()));
    obs->add("det.required_updates",
             static_cast<double>(sta.required_updates()));
    obs->set_gauge("det.final_corner_delay_ps", sta.critical_delay_ps());
  }
  return result;
}

}  // namespace statleak
