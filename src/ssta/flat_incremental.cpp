#include "ssta/flat_incremental.hpp"

#include <algorithm>
#include <bit>

#include "ssta/delay_model.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace statleak {

namespace {

bool same_canonical(const Canonical& a, const Canonical& b) {
  return a.mean == b.mean && a.gl == b.gl && a.gv == b.gv && a.loc == b.loc;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

FlatSstaEngine::FlatSstaEngine(const Circuit& circuit, const CellLibrary& lib,
                               const VariationModel& var)
    : circuit_(circuit), lib_(lib), var_(var), loads_(circuit, lib),
      flat_(FlatCircuit::build(circuit)) {
  var_.validate();
  const std::size_t n = circuit_.num_gates();
  const auto topo = circuit_.topo_order();
  topo_.assign(topo.begin(), topo.end());
  pos_.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) pos_[flat_.topo[p]] = p;
  is_output_.assign(n, 0);
  std::uint32_t max_degree = 1;
  for (GateId id = 0; id < n; ++id) {
    max_degree = std::max(
        max_degree, flat_.fanin_offset[id + 1] - flat_.fanin_offset[id]);
  }
  for (GateId out : flat_.outputs) is_output_[out] = 1;
  // Consumer edges in the scatter's order: consumers by decreasing topo_
  // position, each consumer's pins ascending.
  cons_offset_.assign(n + 1, 0);
  for (GateId f : flat_.fanin) ++cons_offset_[f + 1];
  for (std::size_t g = 0; g < n; ++g) cons_offset_[g + 1] += cons_offset_[g];
  cons_.resize(flat_.fanin.size());
  {
    std::vector<std::uint32_t> cursor(cons_offset_.begin(),
                                      cons_offset_.end() - 1);
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      for (std::uint32_t slot = flat_.fanin_offset[*it];
           slot < flat_.fanin_offset[*it + 1]; ++slot) {
        cons_[cursor[flat_.fanin[slot]]++] = {*it, slot};
      }
    }
  }
  state_.arrival.assign(n, Canonical{});
  state_.criticality.assign(n, 0.0);
  win_.assign(flat_.fanin.size(), 0.0);
  own_delay_.assign(n, Canonical{});
  for (GateId id = 0; id < n; ++id) refresh_own_delay(id);
  dirty_.assign((n + 63) / 64, 0);
  touched_.assign(n, 0);
  weights_scratch_.resize(max_degree);
  const std::size_t m = flat_.outputs.size();
  out_pos_.assign(n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    out_pos_[flat_.outputs[i]] = static_cast<std::uint32_t>(i);
  }
  out_prefix_.assign(m, Canonical{});
  out_tight_.assign(m, 1.0);
  sink_weights_.assign(m, 0.0);
  dense_seeds_ = n / 8;
  trial_log_cap_ = std::max<std::size_t>(n / 8 + 1024, 16384);
}

Canonical FlatSstaEngine::gate_delay(GateId id) const {
  const Gate& g = circuit_.gate(id);
  return canonical_gate_delay(lib_, var_, g.kind, g.vth, g.size,
                              loads_.load_ff(id));
}

void FlatSstaEngine::refresh_own_delay(GateId id) const {
  own_delay_[id] = gate_delay(id);
}

void FlatSstaEngine::log_own_delay(GateId id) const {
  if ((touched_[id] & 4) != 0) return;
  touched_[id] = static_cast<char>(touched_[id] | 4);
  touched_list_.push_back(id);
  delay_undo_.push_back({id, own_delay_[id]});
}

// ------------------------------------------------------- notifications ----

void FlatSstaEngine::mark_dirty(GateId id) {
  if (!is_dirty(id)) {
    set_dirty(id);
    pending_.push_back(id);
  }
}

void FlatSstaEngine::on_resize(GateId id) {
  const auto drivers = flat_.fanins_of(id);
  if (trial_active_) {
    for (GateId driver : drivers) {
      if ((touched_[driver] & 2) == 0) {
        touched_[driver] = static_cast<char>(touched_[driver] | 2);
        touched_list_.push_back(driver);
        load_undo_.push_back({driver, loads_.load_ff(driver)});
      }
    }
    log_own_delay(id);
    for (GateId driver : drivers) log_own_delay(driver);
  }
  loads_.on_resize(id);
  refresh_own_delay(id);
  for (GateId driver : drivers) refresh_own_delay(driver);
  mark_dirty(id);
  for (GateId driver : drivers) mark_dirty(driver);
}

void FlatSstaEngine::on_vth_change(GateId id) {
  if (trial_active_) log_own_delay(id);
  refresh_own_delay(id);
  mark_dirty(id);
}

void FlatSstaEngine::clear_pending() const {
  for (GateId id : pending_) {
    dirty_[pos_[id] >> 6] &= ~(std::uint64_t{1} << (pos_[id] & 63));
  }
  pending_.clear();
}

// --------------------------------------------------------------- trials ----

void FlatSstaEngine::begin_trial() {
  STATLEAK_CHECK(!trial_active_, "trials do not nest");
  trial_active_ = true;
  trial_lost_baseline_ = false;
  trial_primed_ = primed_;
  trial_pending_ = pending_;
  trial_out_max_ = state_.circuit_delay;
  trial_sink_weights_ = sink_weights_;
  trial_crit_primed_ = crit_primed_;
  trial_crit_overwritten_ = false;
  trial_crit_seeds_ = crit_seeds_.size();
  trial_chain_saved_ = false;
  trial_out_dirty_min_ = out_dirty_min_;
  trial_out_dirty_max_ = out_dirty_max_;
  trial_weights_stale_ = weights_stale_;
}

void FlatSstaEngine::commit_trial() {
  STATLEAK_CHECK(trial_active_, "no trial to commit");
  trial_active_ = false;
  trial_lost_baseline_ = false;
  trial_chain_saved_ = false;
  for (GateId id : touched_list_) touched_[id] = 0;
  touched_list_.clear();
  arrival_undo_.clear();
  win_undo_.clear();
  load_undo_.clear();
  delay_undo_.clear();
  trial_pending_.clear();
}

void FlatSstaEngine::rollback_trial() {
  STATLEAK_CHECK(trial_active_, "no trial to roll back");
  trial_active_ = false;
  for (const LoadUndo& u : load_undo_) loads_.restore_load(u.id, u.load_ff);
  // Own delays are cached eagerly at notification time, so they are
  // restored regardless of whether a full pass ran during the trial (the
  // next full pass reuses the cache; it must hold pre-trial bits).
  for (const DelayUndo& u : delay_undo_) own_delay_[u.id] = u.delay;
  if (trial_lost_baseline_) {
    // A full pass ran inside the trial; the arrival log does not reach back
    // to the pre-trial state. Drop the cache — the next query recomputes
    // from the (caller-restored) circuit, which is exact by construction.
    primed_ = false;
    crit_primed_ = false;
  } else {
    primed_ = trial_primed_;
    for (const ArrivalUndo& u : arrival_undo_) {
      state_.arrival[u.id] = u.arrival;
      const std::uint32_t off = flat_.fanin_offset[u.id];
      const std::uint32_t len = flat_.fanin_offset[u.id + 1] - off;
      std::copy_n(win_undo_.begin() + u.win_off, len, win_.begin() + off);
    }
    state_.circuit_delay = trial_out_max_;
    sink_weights_ = std::move(trial_sink_weights_);
    // Output chain: if a replay ran during the trial, the prefix and
    // tightness arrays were snapshotted just before the first overwrite —
    // swap the pre-trial bits back. Otherwise the arrays were never
    // touched, and restoring the arrivals above already re-validated them.
    // The dirty window and lazy-weights flag roll back unconditionally.
    if (trial_chain_saved_) {
      std::swap(out_prefix_, trial_out_prefix_);
      std::swap(out_tight_, trial_out_tight_);
    }
    out_dirty_min_ = trial_out_dirty_min_;
    out_dirty_max_ = trial_out_dirty_max_;
    weights_stale_ = trial_weights_stale_;
    // The win restore is bitwise, so criticality built before the trial,
    // together with the seeds recorded before it, is still exact — keep it
    // unless an analyze during the trial rebuilt the array.
    crit_primed_ = trial_crit_primed_ && !trial_crit_overwritten_;
    if (crit_seeds_.size() > trial_crit_seeds_) {
      crit_seeds_.resize(trial_crit_seeds_);
    }
  }
  clear_pending();
  for (GateId id : trial_pending_) mark_dirty(id);
  for (GateId id : touched_list_) touched_[id] = 0;
  touched_list_.clear();
  arrival_undo_.clear();
  win_undo_.clear();
  load_undo_.clear();
  delay_undo_.clear();
  trial_pending_.clear();
  trial_lost_baseline_ = false;
  trial_chain_saved_ = false;
  trial_sink_weights_.clear();
}

void FlatSstaEngine::log_arrival(GateId id) const {
  if (!trial_active_ || trial_lost_baseline_ || (touched_[id] & 1) != 0) {
    return;
  }
  // A cone past the cap covers a constant fraction of the circuit: give up
  // on entry-by-entry restore (a rollback reprimes with a full pass, same
  // bits) rather than keep paying the log tax on a trial that will most
  // likely commit anyway. Arrivals logged so far are simply ignored by the
  // lost-baseline rollback path.
  if (arrival_undo_.size() >= trial_log_cap_) {
    trial_lost_baseline_ = true;
    return;
  }
  touched_[id] = static_cast<char>(touched_[id] | 1);
  touched_list_.push_back(id);
  arrival_undo_.push_back(
      {id, state_.arrival[id], static_cast<std::uint32_t>(win_undo_.size())});
  const std::uint32_t off = flat_.fanin_offset[id];
  const std::uint32_t end = flat_.fanin_offset[id + 1];
  win_undo_.insert(win_undo_.end(), win_.begin() + off, win_.begin() + end);
}

// ------------------------------------------------------------ retiming ----

bool FlatSstaEngine::retime_gate(GateId id) const {
  // An input's arrival is the all-zero canonical forever: retiming one can
  // never change state, so the cone stops immediately (bit-equivalent to
  // folding nothing and storing the same zero back).
  if (flat_.is_input[id]) return false;
  const std::uint32_t off = flat_.fanin_offset[id];
  const std::uint32_t deg = flat_.fanin_offset[id + 1] - off;
  STATLEAK_CHECK(deg > 0, "max of nothing");
  const Canonical* STATLEAK_RESTRICT arr = state_.arrival.data();
  const GateId* STATLEAK_RESTRICT fin = flat_.fanin.data() + off;
  double* STATLEAK_RESTRICT w = weights_scratch_.data();
  Canonical fresh;
  if (deg == 2) {
    // Dominant shape in mapped logic: a single saturating binary max, no
    // operand gather. The chain's weight algebra collapses to
    // fl(1.0 * tight) == tight and fl(1.0 - tight).
    double tight = 1.0;
    const Canonical in_max =
        canonical_max_saturating(arr[fin[0]], arr[fin[1]], &tight);
    fresh = Canonical::sum(in_max, own_delay_[id]);
    w[0] = tight;
    w[1] = 1.0 - tight;
  } else if (deg == 1) {
    fresh = Canonical::sum(arr[fin[0]], own_delay_[id]);
    w[0] = 1.0;
  } else {
    operands_.clear();
    for (std::uint32_t k = 0; k < deg; ++k) {
      operands_.push_back(arr[fin[k]]);
    }
    const Canonical in_max = clark_max_chain_saturating(operands_, w);
    fresh = Canonical::sum(in_max, own_delay_[id]);
  }
  const bool changed = !same_canonical(fresh, state_.arrival[id]);
  bool weights_changed = false;
  for (std::uint32_t k = 0; k < deg; ++k) {
    if (w[k] != win_[off + k]) {
      weights_changed = true;
      break;
    }
  }
  // Nothing moved: skip the undo log and the (bit-identical) writeback.
  if (!changed && !weights_changed) return false;
  if (weights_changed) crit_seeds_.push_back(id);
  log_arrival(id);
  state_.arrival[id] = fresh;
  for (std::uint32_t k = 0; k < deg; ++k) win_[off + k] = w[k];
  return changed;
}

void FlatSstaEngine::replay_output_chain() const {
  if (out_dirty_min_ > out_dirty_max_) return;  // nothing pending
  const std::size_t m = flat_.outputs.size();
  if (trial_active_ && !trial_lost_baseline_ && !trial_chain_saved_) {
    trial_out_prefix_ = out_prefix_;
    trial_out_tight_ = out_tight_;
    trial_chain_saved_ = true;
  }
  const std::uint32_t last_dirty = out_dirty_max_;
  std::uint32_t i = out_dirty_min_;
  if (i == 0) {
    out_prefix_[0] = state_.arrival[flat_.outputs[0]];
    i = 1;
  }
  for (; i < m; ++i) {
    double tight = 1.0;
    const Canonical next = canonical_max_saturating(
        out_prefix_[i - 1], state_.arrival[flat_.outputs[i]], &tight);
    // Past the dirty window only the running prefix can differ; once it
    // re-converges bitwise (tightness included) the cached suffix is exact.
    if (i > last_dirty && tight == out_tight_[i] &&
        same_canonical(next, out_prefix_[i])) {
      break;
    }
    out_prefix_[i] = next;
    out_tight_[i] = tight;
  }
  state_.circuit_delay = out_prefix_[m - 1];
  weights_stale_ = true;
  out_dirty_min_ = kNoDirty;
  out_dirty_max_ = 0;
}

void FlatSstaEngine::refresh_sink_weights() const {
  if (!weights_stale_) return;
  // clark_max_chain builds weights by repeated rescaling: after step i,
  // weights[j < i] have been multiplied by tight_i in increasing-j order
  // and weights[i] = 1.0 - tight_i. Re-running that recurrence from the
  // cached per-step tightness reproduces every bit; rows with tightness
  // exactly 1.0 are identity rescales (x * 1.0 == x) and are skipped.
  const std::size_t m = flat_.outputs.size();
  double* STATLEAK_RESTRICT w = sink_weights_.data();
  w[0] = 1.0;
  for (std::size_t i = 1; i < m; ++i) {
    const double tight = out_tight_[i];
    if (tight != 1.0) {
      STATLEAK_VEC_LOOP
      for (std::size_t j = 0; j < i; ++j) w[j] *= tight;
    }
    w[i] = 1.0 - tight;
  }
  weights_stale_ = false;
}

void FlatSstaEngine::full_pass() const {
  if (trial_active_) trial_lost_baseline_ = true;
  if (obs_ != nullptr) obs_->add("ssta.flat_full_passes", 1.0);
  const std::size_t n = circuit_.num_gates();
  state_.arrival.assign(n, Canonical{});
  for (GateId id : topo_) {
    if (flat_.is_input[id]) continue;
    const std::uint32_t off = flat_.fanin_offset[id];
    const std::uint32_t deg = flat_.fanin_offset[id + 1] - off;
    STATLEAK_CHECK(deg > 0, "max of nothing");
    operands_.clear();
    for (std::uint32_t k = 0; k < deg; ++k) {
      operands_.push_back(state_.arrival[flat_.fanin[off + k]]);
    }
    const Canonical in_max =
        clark_max_chain_saturating(operands_, win_.data() + off);
    state_.arrival[id] = Canonical::sum(in_max, own_delay_[id]);
  }
  out_dirty_min_ = 0;
  out_dirty_max_ = static_cast<std::uint32_t>(flat_.outputs.size()) - 1;
  replay_output_chain();
  clear_pending();
  primed_ = true;
  crit_primed_ = false;
  crit_seeds_.clear();
}

void FlatSstaEngine::flush() const {
  if (primed_ && pending_.empty()) return;
  obs::ScopedTimer timer(obs_, "ssta.retime");
  if (!primed_) {
    full_pass();
    return;
  }
  if (obs_ != nullptr) obs_->add("ssta.flat_incremental_passes", 1.0);

  // Levelized cone propagation: a gate is recomputed only after all of its
  // recomputed fanins — the same order a full forward pass visits them.
  // Dirty bits are walked upward by topo position; a fanout always sets a
  // higher bit, so it is visited after the gate that marked it.
  std::size_t lo = dirty_.size();
  std::size_t hi = 0;
  for (GateId id : pending_) {
    lo = std::min<std::size_t>(lo, pos_[id] >> 6);
    hi = std::max<std::size_t>(hi, pos_[id] >> 6);
  }
  pending_.clear();

  std::int64_t retimed = 0;
  for (std::size_t w = lo; w <= hi; ++w) {
    while (dirty_[w] != 0) {
      const int bit = std::countr_zero(dirty_[w]);
      dirty_[w] &= dirty_[w] - 1;
      const GateId id = flat_.topo[(w << 6) + static_cast<std::size_t>(bit)];
      ++retimed;
      // Bit-identical arrival: the cone stops here.
      if (!retime_gate(id)) continue;
      if (is_output_[id] != 0) {
        out_dirty_min_ = std::min(out_dirty_min_, out_pos_[id]);
        out_dirty_max_ = std::max(out_dirty_max_, out_pos_[id]);
      }
      for (GateId fo : flat_.fanouts_of(id)) {
        hi = std::max(hi, set_dirty(fo));
      }
    }
  }

  replay_output_chain();
  // Many forward-only queries between refreshes: past the dense threshold
  // the next refresh scatters anyway, so stop recording seeds. Inside a
  // trial only its own seeds go: a rollback restores the win weights
  // bitwise, and the seeds from before the trial still describe the
  // criticality array.
  if (crit_seeds_.size() > dense_seeds_) {
    crit_primed_ = false;
    crit_seeds_.resize(trial_active_ ? trial_crit_seeds_ : 0);
  }
  if (obs_ != nullptr) obs_->add("ssta.flat_cone_gates_retimed",
                                 static_cast<double>(retimed));
}

void FlatSstaEngine::refresh_criticality() const {
  obs::ScopedTimer timer(obs_, "ssta.criticality");
  refresh_sink_weights();
  if (!crit_primed_) {
    scatter_criticality();
    return;
  }
  std::size_t seeds = crit_seeds_.size();
  for (std::size_t i = 0; i < sink_weights_.size(); ++i) {
    if (!same_bits(sink_weights_[i], crit_sink_[i])) ++seeds;
  }
  if (seeds == 0) return;  // nothing criticality depends on moved
  if (seeds > dense_seeds_) {
    scatter_criticality();
  } else {
    walk_criticality();
  }
}

void FlatSstaEngine::scatter_criticality() const {
  if (trial_active_) trial_crit_overwritten_ = true;
  if (obs_ != nullptr) obs_->add("ssta.crit_full_passes", 1.0);
  const std::size_t n = circuit_.num_gates();
  state_.criticality.assign(n, 0.0);
  for (std::size_t i = 0; i < flat_.outputs.size(); ++i) {
    state_.criticality[flat_.outputs[i]] += sink_weights_[i];
  }
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const GateId id = *it;
    if (flat_.is_input[id] || state_.criticality[id] == 0.0) continue;
    const std::uint32_t off = flat_.fanin_offset[id];
    const std::uint32_t deg = flat_.fanin_offset[id + 1] - off;
    const double crit = state_.criticality[id];
    const double* STATLEAK_RESTRICT w = win_.data() + off;
    const GateId* STATLEAK_RESTRICT f = flat_.fanin.data() + off;
    for (std::uint32_t pin = 0; pin < deg; ++pin) {
      state_.criticality[f[pin]] += crit * w[pin];
    }
  }
  crit_sink_ = sink_weights_;
  crit_seeds_.clear();
  crit_primed_ = true;
}

void FlatSstaEngine::walk_criticality() const {
  if (trial_active_) trial_crit_overwritten_ = true;
  std::size_t lo = dirty_.size();
  std::size_t hi = 0;
  const auto mark = [&](GateId id) {
    const std::size_t w = set_dirty(id);
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  };
  for (GateId id : crit_seeds_) {
    for (GateId f : flat_.fanins_of(id)) mark(f);
  }
  crit_seeds_.clear();
  for (std::size_t i = 0; i < sink_weights_.size(); ++i) {
    if (same_bits(sink_weights_[i], crit_sink_[i])) continue;
    crit_sink_[i] = sink_weights_[i];
    mark(flat_.outputs[i]);
  }

  // Deepest level first: every consumer of a gate sits at a higher topo
  // position, so its criticality is final when the gate is recomputed.
  double* STATLEAK_RESTRICT crit = state_.criticality.data();
  const double* STATLEAK_RESTRICT win = win_.data();
  std::int64_t updates = 0;
  for (std::size_t w = hi + 1; w-- > lo;) {
    while (dirty_[w] != 0) {
      const int bit = 63 - std::countl_zero(dirty_[w]);
      dirty_[w] &= ~(std::uint64_t{1} << bit);
      const GateId id = flat_.topo[(w << 6) + static_cast<std::size_t>(bit)];
      ++updates;
      // The scatter's addition sequence for this gate, in gather form.
      double sum = 0.0;
      if (is_output_[id] != 0) sum += sink_weights_[out_pos_[id]];
      for (std::uint32_t e = cons_offset_[id]; e < cons_offset_[id + 1];
           ++e) {
        const double c = crit[cons_[e].gate];
        if (c != 0.0) sum += c * win[cons_[e].slot];
      }
      if (same_bits(sum, crit[id])) continue;  // the walk stops here
      crit[id] = sum;
      for (GateId f : flat_.fanins_of(id)) mark(f);
    }
  }
  if (obs_ != nullptr) {
    obs_->add("ssta.crit_walks", 1.0);
    obs_->add("ssta.crit_updates", static_cast<double>(updates));
  }
}

// -------------------------------------------------------------- queries ----

const SstaResult& FlatSstaEngine::analyze_ref() const {
  if (obs_ != nullptr) obs_->add("ssta.analyze_passes", 1.0);
  flush();
  refresh_criticality();
  return state_;
}

SstaResult FlatSstaEngine::analyze() const { return analyze_ref(); }

Canonical FlatSstaEngine::circuit_delay() const {
  if (obs_ != nullptr) obs_->add("ssta.forward_passes", 1.0);
  flush();
  return state_.circuit_delay;
}

}  // namespace statleak
