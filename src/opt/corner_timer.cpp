#include "opt/corner_timer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/health.hpp"

namespace statleak {

namespace {

/// The walks' cutoff: a recomputed value that keeps its bits stops the cone.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

CornerTimer::CornerTimer(Circuit& circuit, const CellLibrary& lib,
                         double dl_nm, double dvth_v)
    : circuit_(circuit),
      lib_(lib),
      dl_nm_(dl_nm),
      dvth_v_(dvth_v),
      flat_(FlatCircuit::build(circuit)),
      loads_(circuit, lib) {
  const std::size_t n = circuit.num_gates();
  step_.resize(n);
  level_.resize(n);
  for (GateId id = 0; id < n; ++id) {
    step_[id] = lib.nearest_step(circuit.gate(id).size);
    level_[id] = static_cast<std::uint32_t>(circuit.level(id));
  }
  is_output_.assign(n, 0);
  for (GateId out : flat_.outputs) is_output_[out] = 1;
  buckets_.resize(static_cast<std::size_t>(flat_.depth) + 1);
  now_.assign(n, 0.0);
  entry_.resize(n);
  stale_.assign(n, 0);
  mark_.assign(n, 0);
  // Every cell starts pending, so the first query's forward walk is the
  // full pass.
  for (GateId id = 0; id < n; ++id) invalidate(id, kDelays | kPenalty);
  result_.arrival_ps.assign(n, 0.0);
  result_.required_ps.assign(n, 0.0);
  result_.slack_ps.assign(n, 0.0);
  req_raw_.assign(n, 0.0);
}

void CornerTimer::invalidate(GateId id, unsigned char bits) {
  if (flat_.is_input[id] != 0) return;
  stale_[id] |= bits;
  if ((bits & kNow) != 0) push_once(pending_, id, kPending);
}

void CornerTimer::push_once(std::vector<GateId>& list, GateId id,
                            unsigned char bit) {
  if ((mark_[id] & bit) != 0) return;
  mark_[id] |= bit;
  list.push_back(id);
}

void CornerTimer::enqueue(GateId id) {
  if ((mark_[id] & kQueued) != 0) return;
  mark_[id] |= kQueued;
  buckets_[level_[id]].push_back(id);
}

void CornerTimer::set_size_step(GateId id, std::size_t step) {
  const auto steps = lib_.size_steps();
  STATLEAK_CHECK(step < steps.size(), "size step out of range");
  circuit_.set_size(id, steps[step]);
  step_[id] = step;
  loads_.on_resize(id);
  invalidate(id, kDelays | kPenalty);
  for (GateId f : flat_.fanins_of(id)) {
    invalidate(f, kDelays);
    for (GateId fo : flat_.fanouts_of(f)) invalidate(fo, kPenalty);
  }
  for (GateId fo : flat_.fanouts_of(id)) invalidate(fo, kPenalty);
}

void CornerTimer::set_vth(GateId id, Vth vth) {
  circuit_.set_vth(id, vth);
  invalidate(id, kDelays);
  for (GateId fo : flat_.fanouts_of(id)) invalidate(fo, kPenalty);
}

double CornerTimer::eval(GateId id, Vth vth, double size, double load_ff) {
  ++delay_evals_;
  return lib_.delay_ps(flat_.kind[id], vth, size, load_ff, dl_nm_, dvth_v_);
}

double CornerTimer::rebuild_now(GateId id) {
  const Gate& g = circuit_.gate(id);
  const double d = eval(id, g.vth, g.size, loads_.load_ff(id));
  if (!std::isfinite(d)) {
    throw NumericalError("corner delay of gate " + std::to_string(id) +
                         " is not finite — a library or load input is "
                         "NaN/inf");
  }
  now_[id] = d;
  stale_[id] &= static_cast<unsigned char>(~kNow);
  return d;
}

double CornerTimer::delay_up_ps(GateId id) {
  Entry& e = entry_[id];
  if ((stale_[id] & kUp) != 0) {
    const Gate& g = circuit_.gate(id);
    e.up = eval(id, g.vth, lib_.size_steps()[step_[id] + 1],
                loads_.load_ff(id));
    stale_[id] &= static_cast<unsigned char>(~kUp);
  }
  return e.up;
}

double CornerTimer::delay_hvt_ps(GateId id) {
  Entry& e = entry_[id];
  if ((stale_[id] & kHvt) != 0) {
    e.hvt = eval(id, Vth::kHigh, circuit_.gate(id).size, loads_.load_ff(id));
    stale_[id] &= static_cast<unsigned char>(~kHvt);
  }
  return e.hvt;
}

double CornerTimer::delay_down_ps(GateId id) {
  Entry& e = entry_[id];
  if ((stale_[id] & kDown) != 0) {
    const Gate& g = circuit_.gate(id);
    e.down = eval(id, g.vth, lib_.size_steps()[step_[id] - 1],
                  loads_.load_ff(id));
    stale_[id] &= static_cast<unsigned char>(~kDown);
  }
  return e.down;
}

double CornerTimer::upsize_penalty_ps(GateId id) {
  if ((stale_[id] & kPenalty) != 0) {
    // Upsizing raises every fanin driver's load by the pin-cap delta.
    const Gate& g = circuit_.gate(id);
    const double dcap =
        lib_.pin_cap_ff(g.kind, lib_.size_steps()[step_[id] + 1]) -
        lib_.pin_cap_ff(g.kind, g.size);
    double penalty = 0.0;
    for (GateId f : flat_.fanins_of(id)) {
      if (flat_.is_input[f] != 0) continue;
      const Gate& drv = circuit_.gate(f);
      penalty += eval(f, drv.vth, drv.size, loads_.load_ff(f) + dcap) -
                 delay_ps(f);
    }
    entry_[id].penalty = penalty;
    stale_[id] &= static_cast<unsigned char>(~kPenalty);
  }
  return entry_[id].penalty;
}

void CornerTimer::forward() {
  ++sta_passes_;
  // Rebuild every pending delay before touching any walk state: a rebuild
  // that throws leaves its gate stale and pending, and the next query
  // throws again.
  for (GateId id : pending_) (void)delay_ps(id);
  for (GateId id : pending_) {
    mark_[id] &= static_cast<unsigned char>(~kPending);
    push_once(delay_moved_, id, kDelayMoved);
    enqueue(id);
  }
  pending_.clear();

  // Level by level, so every gate is recomputed after all of its
  // recomputed fanins. Fanouts sit on strictly higher levels, so indexed
  // iteration is safe while later buckets grow.
  std::vector<double>& arr = result_.arrival_ps;
  for (std::vector<GateId>& bucket : buckets_) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId id = bucket[i];
      mark_[id] &= static_cast<unsigned char>(~kQueued);
      ++arrival_updates_;
      double in_arr = 0.0;
      for (GateId f : flat_.fanins_of(id)) in_arr = std::max(in_arr, arr[f]);
      const double a = in_arr + now_[id];
      if (same_bits(a, arr[id])) continue;
      arr[id] = a;
      push_once(slack_dirty_, id, kSlackDirty);
      for (GateId fo : flat_.fanouts_of(id)) enqueue(fo);
    }
    bucket.clear();
  }
  result_.critical_delay_ps = 0.0;
  for (GateId out : flat_.outputs) {
    result_.critical_delay_ps = std::max(result_.critical_delay_ps, arr[out]);
  }
}

void CornerTimer::backward(double t_max_ps) {
  if (!backward_primed_ || !same_bits(t_max_ps, backward_target_ps_)) {
    // A new target moves every required time: seed every gate. The walk
    // stays unprimed until its slacks are all refreshed without a throw.
    backward_primed_ = false;
    backward_target_ps_ = t_max_ps;
    for (GateId id = 0; id < flat_.num_gates; ++id) {
      enqueue(id);
      push_once(slack_dirty_, id, kSlackDirty);
    }
  }
  // A gate's delay enters only its fanins' required times.
  for (GateId id : delay_moved_) {
    mark_[id] &= static_cast<unsigned char>(~kDelayMoved);
    for (GateId f : flat_.fanins_of(id)) enqueue(f);
  }
  delay_moved_.clear();

  // Same backward expression as the full-pass reference, gathered per gate
  // over its fanouts: min is exact, so the order does not change the bits.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
    std::vector<GateId>& bucket = *it;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId id = bucket[i];
      mark_[id] &= static_cast<unsigned char>(~kQueued);
      ++required_updates_;
      double req = is_output_[id] != 0 ? t_max_ps : kInf;
      for (GateId fo : flat_.fanouts_of(id)) {
        req = std::min(req, req_raw_[fo] - now_[fo]);
      }
      if (same_bits(req, req_raw_[id])) continue;
      req_raw_[id] = req;
      push_once(slack_dirty_, id, kSlackDirty);
      for (GateId f : flat_.fanins_of(id)) enqueue(f);
    }
    bucket.clear();
  }

  // The reference's clamp and non-finite guard, on the gates that moved.
  for (GateId id : slack_dirty_) {
    double req = req_raw_[id];
    if (!std::isfinite(req)) {
      if (req == kInf) {
        req = t_max_ps;
      } else {
        throw NumericalError(
            "STA backward pass produced a non-finite required time at gate " +
            std::to_string(id) +
            " — a gate delay or the t_max target is NaN/-inf");
      }
    }
    result_.required_ps[id] = req;
    result_.slack_ps[id] = req - result_.arrival_ps[id];
  }
  for (GateId id : slack_dirty_) {
    mark_[id] &= static_cast<unsigned char>(~kSlackDirty);
  }
  slack_dirty_.clear();
  backward_primed_ = true;
}

double CornerTimer::critical_delay_ps() {
  forward();
  return result_.critical_delay_ps;
}

const StaResult& CornerTimer::analyze(double t_max_ps) {
  forward();
  backward(t_max_ps);
  return result_;
}

}  // namespace statleak
