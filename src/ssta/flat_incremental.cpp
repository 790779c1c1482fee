#include "ssta/flat_incremental.hpp"

#include <algorithm>
#include <bit>

#include "ssta/clark_lanes.hpp"
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

/// Cost of one criticality-walk update in units of one gate of the full
/// scatter. Release build, 4-vCPU Xeon: 47 ns per update against 13.8 ns
/// per scattered gate on opt-s100k-size, 48 against 12.5 on
/// opt-s100k-assign, 31 against 7.8 on c3540p.
constexpr double kWalkCostPerScatterGate = 3.5;

}  // namespace

FlatSstaEngine::FlatSstaEngine(const Circuit& circuit, const CellLibrary& lib,
                               const VariationModel& var, SimdIsa isa)
    : circuit_(circuit), lib_(lib), var_(var), loads_(circuit, lib),
      isa_(isa == SimdIsa::kAvx512 ? host_simd_isa() : SimdIsa::kBaseline),
      topo_(circuit.topo_order()), rank_(circuit.ranks()),
      fanin_offset_(circuit.rank_fanin_csr().offset),
      fanin_(circuit.rank_fanin_csr().ids),
      fanout_offset_(circuit.rank_fanout_csr().offset),
      fanout_(circuit.rank_fanout_csr().ids) {
  var_.validate();
  const auto n = static_cast<std::uint32_t>(circuit_.num_gates());
  num_inputs_ = static_cast<std::uint32_t>(circuit_.inputs().size());

  // Every walk relies on two facts checked here once: the inputs are
  // exactly the leading ranks, and every other gate has fanins.
  const std::span<const CellKind> kinds = circuit_.kinds();
  std::uint32_t max_degree = 1;
  first_fanout_.assign(n, kNone);
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::uint32_t degree = fanin_offset_[r + 1] - fanin_offset_[r];
    STATLEAK_CHECK((r < num_inputs_) == (kinds[topo_[r]] == CellKind::kInput),
                   "primary inputs must lead the topological order");
    STATLEAK_CHECK(r < num_inputs_ || degree != 0, "max of nothing");
    max_degree = std::max(max_degree, degree);
    for (std::uint32_t fo : fanouts(r)) {
      first_fanout_[r] = std::min(first_fanout_[r], fo);
    }
  }
  // Consumer edges in the scatter's order: consumers by decreasing rank,
  // each consumer's pins ascending. Rank r has one per fanout entry, so
  // its edges share the fanout CSR's row bounds.
  cons_.resize(fanin_.size());
  {
    std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                      fanout_offset_.end() - 1);
    for (std::uint32_t r = n; r-- > 0;) {
      for (std::uint32_t slot = fanin_offset_[r]; slot < fanin_offset_[r + 1];
           ++slot) {
        cons_[cursor[fanin_[slot]]++] = {r, slot};
      }
    }
  }
  const std::span<const GateId> outputs = circuit_.outputs();
  const std::size_t m = outputs.size();
  out_index_.assign(n, kNone);
  out_rank_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    out_rank_[i] = rank_[outputs[i]];
    out_index_[out_rank_[i]] = static_cast<std::uint32_t>(i);
  }

  arrival_.assign(n, Canonical{});
  crit_.assign(n, 0.0);
  state_.criticality.assign(n, 0.0);
  win_.assign(fanin_.size(), 0.0);
  own_delay_.assign(n, Canonical{});
  for (std::uint32_t r = 0; r < n; ++r) refresh_own_delay(r);
  dirty_ = RankSet(n);
  pairs_.slots = 2;
  chains_.slots = kLaneMaxFanins;
  touched_.assign(n, 0);
  weights_scratch_.resize(max_degree);
  out_arrival_.assign(m, Canonical{});
  out_prefix_.assign(m, Canonical{});
  out_tight_.assign(m, 1.0);
  sink_weights_.assign(m, 0.0);
  dense_seeds_ = n / 8;
  walk_cutover_ = n / kWalkCostPerScatterGate;
  trial_log_cap_ = std::max<std::size_t>(n / 8 + 1024, 16384);
}

Canonical FlatSstaEngine::gate_delay(GateId id) const {
  const Gate& g = circuit_.gate(id);
  return canonical_gate_delay(lib_, var_, g.kind, g.vth, g.size,
                              loads_.load_ff(id));
}

void FlatSstaEngine::refresh_own_delay(std::uint32_t r) const {
  own_delay_[r] = gate_delay(topo_[r]);
}

void FlatSstaEngine::log_own_delay(std::uint32_t r) const {
  if ((touched_[r] & 4) != 0) return;
  touched_[r] = static_cast<char>(touched_[r] | 4);
  touched_list_.push_back(r);
  delay_undo_.push_back({r, own_delay_[r]});
}

// ------------------------------------------------------- notifications ----

void FlatSstaEngine::mark_dirty(std::uint32_t r) {
  if (!dirty_.contains(r)) {
    dirty_.insert(r);
    pending_.push_back(r);
  }
}

void FlatSstaEngine::on_resize(GateId id) {
  const std::uint32_t r = rank_[id];
  const auto drivers = fanins(r);
  if (trial_active_) {
    for (std::uint32_t d : drivers) {
      if ((touched_[d] & 2) == 0) {
        touched_[d] = static_cast<char>(touched_[d] | 2);
        touched_list_.push_back(d);
        load_undo_.push_back({topo_[d], loads_.load_ff(topo_[d])});
      }
    }
    log_own_delay(r);
    for (std::uint32_t d : drivers) log_own_delay(d);
  }
  loads_.on_resize(id);
  refresh_own_delay(r);
  for (std::uint32_t d : drivers) refresh_own_delay(d);
  mark_dirty(r);
  for (std::uint32_t d : drivers) mark_dirty(d);
}

void FlatSstaEngine::on_vth_change(GateId id) {
  const std::uint32_t r = rank_[id];
  if (trial_active_) log_own_delay(r);
  refresh_own_delay(r);
  mark_dirty(r);
}

void FlatSstaEngine::clear_pending() const {
  dirty_.clear();
  pending_.clear();
}

// --------------------------------------------------------------- trials ----

void FlatSstaEngine::begin_trial() {
  STATLEAK_CHECK(!trial_active_, "trials do not nest");
  trial_active_ = true;
  // A cone that overflowed the log last time will most likely overflow it
  // again: start with the baseline lost (same rollback as an overflow).
  trial_lost_baseline_ = last_trial_writes_ > trial_log_cap_;
  trial_writes_ = 0;
  if (obs_ != nullptr) {
    obs_->add("ssta.unlogged_trials", trial_lost_baseline_ ? 1.0 : 0.0);
  }
  trial_primed_ = primed_;
  trial_pending_ = pending_;
  trial_out_max_ = state_.circuit_delay;
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
  last_trial_writes_ = trial_writes_;
  for (std::uint32_t r : touched_list_) touched_[r] = 0;
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
  last_trial_writes_ = trial_writes_;
  for (const LoadUndo& u : load_undo_) loads_.restore_load(u.id, u.load_ff);
  // Own delays are cached eagerly at notification time, so they are
  // restored regardless of whether a full pass ran during the trial (the
  // next full pass reuses the cache; it must hold pre-trial bits).
  for (const DelayUndo& u : delay_undo_) own_delay_[u.rank] = u.delay;
  if (trial_lost_baseline_) {
    // A full pass ran inside the trial, or the log did not cover its cone;
    // either way it does not reach back to the pre-trial state. Drop the
    // cache — the next query recomputes from the (caller-restored) circuit,
    // which is exact by construction.
    primed_ = false;
    crit_primed_ = false;
  } else {
    primed_ = trial_primed_;
    for (const ArrivalUndo& u : arrival_undo_) {
      arrival_[u.rank] = u.arrival;
      if (out_index_[u.rank] != kNone) {
        out_arrival_[out_index_[u.rank]] = u.arrival;
      }
      const std::uint32_t off = fanin_offset_[u.rank];
      const std::uint32_t len = fanin_offset_[u.rank + 1] - off;
      std::copy_n(win_undo_.begin() + u.win_off, len, win_.begin() + off);
    }
    state_.circuit_delay = trial_out_max_;
    // Output chain: if a replay ran during the trial, the prefix and
    // tightness arrays were snapshotted just before the first overwrite —
    // swap the pre-trial bits back. Otherwise the arrays were never
    // touched, and restoring the arrivals above already re-validated them.
    // The dirty window rolls back unconditionally. The sink weights are a
    // function of the tightness array: they can only have been rewritten
    // if they were stale at begin or a replay ran, and then the next
    // refresh rebuilds them from the restored tightness, same bits.
    if (trial_chain_saved_) {
      std::swap(out_prefix_, trial_out_prefix_);
      std::swap(out_tight_, trial_out_tight_);
    }
    out_dirty_min_ = trial_out_dirty_min_;
    out_dirty_max_ = trial_out_dirty_max_;
    weights_stale_ = trial_weights_stale_ || trial_chain_saved_;
    // The win restore is bitwise, so criticality built before the trial,
    // together with the seeds recorded before it, is still exact — keep it
    // unless an analyze during the trial rebuilt the array.
    crit_primed_ = trial_crit_primed_ && !trial_crit_overwritten_;
    if (crit_seeds_.size() > trial_crit_seeds_) {
      crit_seeds_.resize(trial_crit_seeds_);
    }
  }
  clear_pending();
  for (std::uint32_t r : trial_pending_) mark_dirty(r);
  for (std::uint32_t r : touched_list_) touched_[r] = 0;
  touched_list_.clear();
  arrival_undo_.clear();
  win_undo_.clear();
  load_undo_.clear();
  delay_undo_.clear();
  trial_pending_.clear();
  trial_lost_baseline_ = false;
  trial_chain_saved_ = false;
}

void FlatSstaEngine::log_arrival(std::uint32_t r) const {
  ++trial_writes_;
  if (trial_lost_baseline_ || (touched_[r] & 1) != 0) return;
  // A cone past the cap covers a constant fraction of the circuit: give up
  // on entry-by-entry restore (a rollback reprimes with a full pass, same
  // bits) rather than keep paying the log tax on a trial that will most
  // likely commit anyway. Arrivals logged so far are simply ignored by the
  // lost-baseline rollback path.
  if (arrival_undo_.size() >= trial_log_cap_) {
    trial_lost_baseline_ = true;
    return;
  }
  touched_[r] = static_cast<char>(touched_[r] | 1);
  touched_list_.push_back(r);
  arrival_undo_.push_back(
      {r, static_cast<std::uint32_t>(win_undo_.size()), arrival_[r]});
  const std::uint32_t off = fanin_offset_[r];
  const std::uint32_t end = fanin_offset_[r + 1];
  win_undo_.insert(win_undo_.end(), win_.begin() + off, win_.begin() + end);
}

// ------------------------------------------------------------ retiming ----

Canonical FlatSstaEngine::fold_fanins(std::uint32_t r,
                                      double* STATLEAK_RESTRICT w) const {
  const std::uint32_t off = fanin_offset_[r];
  const std::uint32_t deg = fanin_offset_[r + 1] - off;
  const Canonical* STATLEAK_RESTRICT arr = arrival_.data();
  const std::uint32_t* STATLEAK_RESTRICT fin = fanin_.data() + off;
  if (deg == 2) {
    // Dominant shape in mapped logic: a single saturating binary max, no
    // operand gather. The chain's weight algebra collapses to
    // fl(1.0 * tight) == tight and fl(1.0 - tight).
    double tight = 1.0;
    const Canonical in_max =
        canonical_max_saturating(arr[fin[0]], arr[fin[1]], &tight);
    w[0] = tight;
    w[1] = 1.0 - tight;
    return Canonical::sum(in_max, own_delay_[r]);
  }
  if (deg == 1) {
    w[0] = 1.0;
    return Canonical::sum(arr[fin[0]], own_delay_[r]);
  }
  operands_.clear();
  for (std::uint32_t k = 0; k < deg; ++k) operands_.push_back(arr[fin[k]]);
  return Canonical::sum(clark_max_chain_saturating(operands_, w),
                        own_delay_[r]);
}

bool FlatSstaEngine::apply_retime(std::uint32_t r, const Canonical& fresh,
                                  const double* STATLEAK_RESTRICT w) const {
  const std::uint32_t off = fanin_offset_[r];
  const std::uint32_t deg = fanin_offset_[r + 1] - off;
  const bool changed = !same_canonical(fresh, arrival_[r]);
  bool weights_changed = false;
  for (std::uint32_t k = 0; k < deg; ++k) {
    if (w[k] != win_[off + k]) {
      weights_changed = true;
      break;
    }
  }
  // Nothing moved: skip the undo log and the (bit-identical) writeback.
  if (!changed && !weights_changed) return false;
  if (weights_changed) crit_seeds_.push_back(r);
  if (trial_active_) log_arrival(r);
  arrival_[r] = fresh;
  for (std::uint32_t k = 0; k < deg; ++k) win_[off + k] = w[k];
  return changed;
}

void FlatSstaEngine::replay_output_chain() const {
  if (out_dirty_min_ > out_dirty_max_) return;  // nothing pending
  const std::size_t m = out_arrival_.size();
  if (trial_active_ && !trial_lost_baseline_ && !trial_chain_saved_) {
    trial_out_prefix_ = out_prefix_;
    trial_out_tight_ = out_tight_;
    trial_chain_saved_ = true;
  }
  const std::uint32_t last_dirty = out_dirty_max_;
  std::uint32_t i = out_dirty_min_;
  if (i == 0) {
    out_prefix_[0] = out_arrival_[0];
    i = 1;
  }
  for (; i < m; ++i) {
    double tight = 1.0;
    const Canonical next =
        canonical_max_saturating(out_prefix_[i - 1], out_arrival_[i], &tight);
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
  out_dirty_min_ = kNone;
  out_dirty_max_ = 0;
}

void FlatSstaEngine::refresh_sink_weights() const {
  if (!weights_stale_) return;
  // clark_max_chain builds weights by repeated rescaling; re-running that
  // recurrence from the cached per-step tightness reproduces every bit
  // (clark_chain_weights applies it eight rows per sweep).
  clark_chain_weights(isa_, out_tight_.data(), out_tight_.size(),
                      sink_weights_.data());
  weights_stale_ = false;
}

void FlatSstaEngine::full_pass() const {
  if (trial_active_) trial_lost_baseline_ = true;
  if (obs_ != nullptr) obs_->add("ssta.flat_full_passes", 1.0);
  // Input arrivals (the leading ranks) are the zero canonical forever.
  const auto n = static_cast<std::uint32_t>(arrival_.size());
  for (std::uint32_t r = num_inputs_; r < n; ++r) {
    arrival_[r] = fold_fanins(r, win_.data() + fanin_offset_[r]);
  }
  for (std::size_t i = 0; i < out_rank_.size(); ++i) {
    out_arrival_[i] = arrival_[out_rank_[i]];
  }
  out_dirty_min_ = 0;
  out_dirty_max_ = static_cast<std::uint32_t>(out_rank_.size()) - 1;
  replay_output_chain();
  clear_pending();
  primed_ = true;
  crit_primed_ = false;
  crit_seeds_.clear();
}

void FlatSstaEngine::queue_lane(LaneQueue& q, std::uint32_t r) const {
  const std::uint32_t off = fanin_offset_[r];
  const std::uint32_t deg = fanin_offset_[r + 1] - off;
  const std::uint32_t k = q.lanes++;
  q.rank[k] = r;
  q.deg[k] = deg;
  q.width = std::max(q.width, deg);
  // Operand slots past the gate's fanins repeat its last one, so the
  // masked chain steps see finite operands.
  for (std::uint32_t i = 0; i < q.slots; ++i) {
    const Canonical& a = arrival_[fanin_[off + std::min(i, deg - 1)]];
    q.ops[i].mean[k] = a.mean;
    q.ops[i].gl[k] = a.gl;
    q.ops[i].gv[k] = a.gv;
    q.ops[i].loc[k] = a.loc;
  }
  const Canonical& d = own_delay_[r];
  q.delay.mean[k] = d.mean;
  q.delay.gl[k] = d.gl;
  q.delay.gv[k] = d.gv;
  q.delay.loc[k] = d.loc;
  if (q.lanes == 8) run_lanes(q);
}

void FlatSstaEngine::run_lanes(LaneQueue& q) const {
  if (q.lanes < kMinLanes) {
    // Too few gates to pay for eight lanes: the scalar fold.
    double* STATLEAK_RESTRICT w = weights_scratch_.data();
    for (std::uint32_t k = 0; k < q.lanes; ++k) {
      const std::uint32_t r = q.rank[k];
      cone_apply(r, fold_fanins(r, w), w);
    }
  } else {
    CanonicalLanes out;
    double w[kLaneMaxFanins][8];
    clark_fold_x8(isa_, q.ops, q.width, q.deg, q.delay, out, w);
    for (std::uint32_t k = 0; k < q.lanes; ++k) {
      double wk[kLaneMaxFanins];
      for (std::int64_t i = 0; i < q.deg[k]; ++i) wk[i] = w[i][k];
      cone_apply(q.rank[k], {out.mean[k], out.gl[k], out.gv[k], out.loc[k]},
                 wk);
    }
    lane_gates_ += q.lanes;
  }
  q.lanes = 0;
  q.width = 0;
}

void FlatSstaEngine::cone_apply(std::uint32_t r, const Canonical& fresh,
                                const double* w) const {
  ++cone_visits_;
  dirty_.erase(r);
  // Bit-identical arrival: the cone stops here.
  if (!apply_retime(r, fresh, w)) return;
  const std::uint32_t oi = out_index_[r];
  if (oi != kNone) {
    out_arrival_[oi] = arrival_[r];
    out_dirty_min_ = std::min(out_dirty_min_, oi);
    out_dirty_max_ = std::max(out_dirty_max_, oi);
  }
  for (std::uint32_t fo : fanouts(r)) dirty_.insert(fo);
}

void FlatSstaEngine::flush() const {
  if (primed_ && pending_.empty()) return;
  obs::ScopedTimer timer(obs_, "ssta.retime");
  if (!primed_) {
    full_pass();
    return;
  }
  if (obs_ != nullptr) obs_->add("ssta.flat_incremental_passes", 1.0);

  // Cone propagation in rank order, one window of dirty ranks at a time. A
  // window closes before the lowest fanout rank of any gate in it, so no
  // member feeds another, and every fanout a member inserts lies above the
  // window: each member is recomputed from final fanin arrivals, as in a
  // one-by-one drain. Two-input gates fill one eight-lane queue, wider ones
  // another (a masked chain); one-input gates take the scalar fold. An
  // input's arrival is the zero canonical forever, so a dirty input (the
  // driver of a resized gate) is counted as visited and dropped.
  cone_visits_ = 0;
  lane_gates_ = 0;
  pending_.clear();
  double* STATLEAK_RESTRICT w = weights_scratch_.data();
  std::uint32_t r = dirty_.first_from(0);
  while (r != RankSet::npos) {
    std::uint32_t limit = RankSet::npos;
    for (; r < limit; r = dirty_.first_from(r + 1)) {
      if (r < num_inputs_) {
        ++cone_visits_;
        dirty_.erase(r);
        continue;
      }
      limit = std::min(limit, first_fanout_[r]);
      const std::uint32_t deg = fanin_offset_[r + 1] - fanin_offset_[r];
      if (deg == 2) {
        queue_lane(pairs_, r);
      } else if (deg > 2 && deg <= kLaneMaxFanins) {
        queue_lane(chains_, r);
      } else {
        cone_apply(r, fold_fanins(r, w), w);
      }
    }
    run_lanes(pairs_);
    run_lanes(chains_);
    // r was looked up before the last members inserted their fanouts.
    if (limit != RankSet::npos) r = dirty_.first_from(limit);
  }
  dirty_.reset_window();

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
  if (obs_ != nullptr) {
    obs_->add("ssta.flat_cone_gates_retimed",
              static_cast<double>(cone_visits_));
    obs_->add("ssta.lane_gates", static_cast<double>(lane_gates_));
  }
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
  // The walk's cost grows with the gates it recomputes, the scatter's with
  // n. Predict the walk from the last one's updates per seed, and scatter
  // when it would recompute more than the cutover.
  if (seeds > dense_seeds_ ||
      static_cast<double>(seeds) * walk_updates_per_seed_ > walk_cutover_) {
    scatter_criticality();
  } else {
    walk_updates_per_seed_ = static_cast<double>(walk_criticality()) /
                             static_cast<double>(seeds);
  }
}

void FlatSstaEngine::scatter_criticality() const {
  if (trial_active_) trial_crit_overwritten_ = true;
  if (obs_ != nullptr) obs_->add("ssta.crit_full_passes", 1.0);
  crit_changed_all_ = true;
  crit_changed_.clear();
  const auto n = static_cast<std::uint32_t>(crit_.size());
  std::fill(crit_.begin(), crit_.end(), 0.0);
  double* STATLEAK_RESTRICT crit = crit_.data();
  for (std::size_t i = 0; i < out_rank_.size(); ++i) {
    crit[out_rank_[i]] += sink_weights_[i];
  }
  // A rank's value is final once the loop reaches it (its consumers all
  // have higher ranks), so it is published right there.
  double* STATLEAK_RESTRICT published = state_.criticality.data();
  for (std::uint32_t r = n; r-- > num_inputs_;) {
    const double c = crit[r];
    published[topo_[r]] = c;
    if (c == 0.0) continue;
    const std::uint32_t off = fanin_offset_[r];
    const std::uint32_t deg = fanin_offset_[r + 1] - off;
    const double* STATLEAK_RESTRICT w = win_.data() + off;
    const std::uint32_t* STATLEAK_RESTRICT f = fanin_.data() + off;
    for (std::uint32_t pin = 0; pin < deg; ++pin) crit[f[pin]] += c * w[pin];
  }
  for (std::uint32_t r = 0; r < num_inputs_; ++r) published[topo_[r]] = crit[r];
  crit_sink_ = sink_weights_;
  crit_seeds_.clear();
  crit_primed_ = true;
}

std::size_t FlatSstaEngine::walk_criticality() const {
  if (trial_active_) trial_crit_overwritten_ = true;
  for (std::uint32_t r : crit_seeds_) {
    for (std::uint32_t f : fanins(r)) dirty_.insert(f);
  }
  crit_seeds_.clear();
  for (std::size_t i = 0; i < sink_weights_.size(); ++i) {
    if (same_bits(sink_weights_[i], crit_sink_[i])) continue;
    crit_sink_[i] = sink_weights_[i];
    dirty_.insert(out_rank_[i]);
  }

  // Deepest rank first: every consumer of a gate has a higher rank, so its
  // criticality is final when the gate is recomputed.
  double* STATLEAK_RESTRICT crit = crit_.data();
  double* STATLEAK_RESTRICT published = state_.criticality.data();
  const double* STATLEAK_RESTRICT win = win_.data();
  std::size_t updates = 0;
  dirty_.drain_down([&](std::uint32_t r) {
    ++updates;
    // The scatter's addition sequence for this gate, in gather form.
    double sum = 0.0;
    if (out_index_[r] != kNone) sum += sink_weights_[out_index_[r]];
    for (std::uint32_t e = fanout_offset_[r]; e < fanout_offset_[r + 1];
         ++e) {
      const double c = crit[cons_[e].rank];
      if (c != 0.0) sum += c * win[cons_[e].slot];
    }
    if (same_bits(sum, crit[r])) return;  // the walk stops here
    crit[r] = sum;
    published[topo_[r]] = sum;
    if (!crit_changed_all_) crit_changed_.push_back(topo_[r]);
    for (std::uint32_t f : fanins(r)) dirty_.insert(f);
  });
  // One walk may list up to the cutover; a longer list (several walks since
  // the last clear) is no longer short, so the consumer diffs every gate.
  if (static_cast<double>(crit_changed_.size()) > walk_cutover_) {
    crit_changed_all_ = true;
    crit_changed_.clear();
  }
  if (obs_ != nullptr) {
    obs_->add("ssta.crit_walks", 1.0);
    obs_->add("ssta.crit_updates", static_cast<double>(updates));
  }
  return updates;
}

// -------------------------------------------------------------- queries ----

const SstaResult& FlatSstaEngine::analyze_ref() const {
  if (obs_ != nullptr) obs_->add("ssta.analyze_passes", 1.0);
  flush();
  refresh_criticality();
  return state_;
}

SstaResult FlatSstaEngine::analyze() const {
  SstaResult result = analyze_ref();
  result.arrival.resize(arrival_.size());
  for (std::size_t r = 0; r < arrival_.size(); ++r) {
    result.arrival[topo_[r]] = arrival_[r];
  }
  return result;
}

Canonical FlatSstaEngine::circuit_delay() const {
  if (obs_ != nullptr) obs_->add("ssta.forward_passes", 1.0);
  flush();
  return state_.circuit_delay;
}

}  // namespace statleak
