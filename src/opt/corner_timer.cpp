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
      loads_(circuit, lib),
      fanin_(circuit.fanin_csr()),
      fanout_(circuit.fanout_csr()),
      rank_fanin_(circuit.rank_fanin_csr()),
      rank_fanout_(circuit.rank_fanout_csr()),
      topo_(circuit.topo_order()),
      rank_(circuit.ranks()),
      num_inputs_(static_cast<std::uint32_t>(circuit.inputs().size())) {
  const auto n = static_cast<std::uint32_t>(circuit.num_gates());
  step_.resize(n);
  for (GateId id = 0; id < n; ++id) {
    step_[id] = lib.nearest_step(circuit.gate(id).size);
  }
  now_.assign(n, 0.0);
  entry_.resize(n);
  stale_.assign(n, 0);
  forward_ = RankSet(n);
  backward_ = RankSet(n);
  slack_dirty_ = RankSet(n);
  // Every cell starts stale, so the first query's forward walk is the full
  // pass.
  for (std::uint32_t r = 0; r < n; ++r) invalidate(r, kDelays | kPenalty);
  result_.arrival_ps.assign(n, 0.0);
  result_.required_ps.assign(n, 0.0);
  result_.slack_ps.assign(n, 0.0);
  req_raw_.assign(n, 0.0);
}

void CornerTimer::invalidate(std::uint32_t r, unsigned char bits) {
  if (r < num_inputs_) return;
  stale_[topo_[r]] |= bits;
  if ((bits & kNow) == 0) return;
  // The delay enters the gate's arrival and its fanins' required times.
  forward_.insert(r);
  for (std::uint32_t f : rank_fanin_.row(r)) backward_.insert(f);
}

void CornerTimer::set_size_step(GateId id, std::size_t step) {
  const auto steps = lib_.size_steps();
  STATLEAK_CHECK(step < steps.size(), "size step out of range");
  circuit_.set_size(id, steps[step]);
  step_[id] = step;
  loads_.on_resize(id);
  const std::uint32_t r = rank_[id];
  invalidate(r, kDelays | kPenalty);
  for (std::uint32_t d : rank_fanin_.row(r)) {
    invalidate(d, kDelays);
    for (std::uint32_t fo : rank_fanout_.row(d)) invalidate(fo, kPenalty);
  }
  for (std::uint32_t fo : rank_fanout_.row(r)) invalidate(fo, kPenalty);
}

void CornerTimer::set_vth(GateId id, Vth vth) {
  circuit_.set_vth(id, vth);
  const std::uint32_t r = rank_[id];
  invalidate(r, kDelays);
  for (std::uint32_t fo : rank_fanout_.row(r)) invalidate(fo, kPenalty);
}

double CornerTimer::eval(const Gate& g, Vth vth, double size,
                         double load_ff) {
  ++delay_evals_;
  return lib_.delay_ps(g.kind, vth, size, load_ff, dl_nm_, dvth_v_);
}

double CornerTimer::rebuild_now(GateId id) {
  const Gate& g = circuit_.gate(id);
  const double d = eval(g, g.vth, g.size, loads_.load_ff(id));
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
    e.up = eval(g, g.vth, lib_.size_steps()[step_[id] + 1],
                loads_.load_ff(id));
    stale_[id] &= static_cast<unsigned char>(~kUp);
  }
  return e.up;
}

double CornerTimer::delay_hvt_ps(GateId id) {
  Entry& e = entry_[id];
  if ((stale_[id] & kHvt) != 0) {
    const Gate& g = circuit_.gate(id);
    e.hvt = eval(g, Vth::kHigh, g.size, loads_.load_ff(id));
    stale_[id] &= static_cast<unsigned char>(~kHvt);
  }
  return e.hvt;
}

double CornerTimer::delay_down_ps(GateId id) {
  Entry& e = entry_[id];
  if ((stale_[id] & kDown) != 0) {
    const Gate& g = circuit_.gate(id);
    e.down = eval(g, g.vth, lib_.size_steps()[step_[id] - 1],
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
    for (std::uint32_t d : rank_fanin_.row(rank_[id])) {
      if (d < num_inputs_) continue;
      const GateId f = topo_[d];
      const Gate& drv = circuit_.gate(f);
      penalty += eval(drv, drv.vth, drv.size, loads_.load_ff(f) + dcap) -
                 delay_ps(f);
    }
    entry_[id].penalty = penalty;
    stale_[id] &= static_cast<unsigned char>(~kPenalty);
  }
  return entry_[id].penalty;
}

void CornerTimer::forward() {
  ++sta_passes_;
  // Rank order recomputes every gate after all of its recomputed fanins.
  // A pending delay is rebuilt on the visit; a rebuild that throws leaves
  // its gate stale and in the set, and the next query throws again.
  std::vector<double>& arr = result_.arrival_ps;
  forward_.drain_up([&](std::uint32_t r) {
    const GateId id = topo_[r];
    const double d = delay_ps(id);
    ++arrival_updates_;
    double in_arr = 0.0;
    for (GateId f : fanin_.row(id)) in_arr = std::max(in_arr, arr[f]);
    const double a = in_arr + d;
    if (same_bits(a, arr[id])) return;
    arr[id] = a;
    slack_dirty_.insert(r);
    for (std::uint32_t fo : rank_fanout_.row(r)) forward_.insert(fo);
  });
  result_.critical_delay_ps = 0.0;
  for (GateId out : circuit_.outputs()) {
    result_.critical_delay_ps = std::max(result_.critical_delay_ps, arr[out]);
  }
}

void CornerTimer::backward(double t_max_ps) {
  if (!backward_primed_ || !same_bits(t_max_ps, backward_target_ps_)) {
    // A new target moves every required time: seed every gate. The walk
    // stays unprimed until its slacks are all refreshed without a throw.
    backward_primed_ = false;
    backward_target_ps_ = t_max_ps;
    for (std::uint32_t r = 0; r < topo_.size(); ++r) {
      backward_.insert(r);
      slack_dirty_.insert(r);
    }
  }

  // Same backward expression as the full-pass reference, gathered per gate
  // over its fanouts: min is exact, so the order does not change the bits.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  backward_.drain_down([&](std::uint32_t r) {
    const GateId id = topo_[r];
    ++required_updates_;
    double req = circuit_.is_output(id) ? t_max_ps : kInf;
    for (GateId fo : fanout_.row(id)) {
      req = std::min(req, req_raw_[fo] - now_[fo]);
    }
    if (same_bits(req, req_raw_[id])) return;
    req_raw_[id] = req;
    slack_dirty_.insert(r);
    for (std::uint32_t f : rank_fanin_.row(r)) backward_.insert(f);
  });

  // The reference's clamp and non-finite guard, on the gates that moved.
  slack_dirty_.drain_up([&](std::uint32_t r) {
    const GateId id = topo_[r];
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
  });
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
