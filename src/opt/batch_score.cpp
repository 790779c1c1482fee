#include "opt/batch_score.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace statleak {

BatchScorer::BatchScorer(const CellLibrary& lib, const LeakageAnalyzer& leak,
                         const FlatCircuit& flat, const LoadCache& loads,
                         ThreadPool& pool, std::size_t block)
    : lib_(lib),
      leak_(leak),
      flat_(flat),
      loads_(loads.loads()),
      pool_(pool),
      block_(block),
      steps_(lib.size_steps()) {
  STATLEAK_CHECK(block_ >= 1, "candidate block size must be >= 1");
  const LeakageModel& model = leak_.model();
  pelgrom_ = model.variation().pelgrom_vth_scaling;
  mean_factor_ = model.mean_factor();
  // The exact expression gate_moments() evaluates per call, hoisted once
  // (same inputs, same double).
  var_factor_ = model.m2_factor() - model.mean_factor() * model.mean_factor();

  terms_.resize(kNumCellKinds * 2);
  leak_unit_.resize(kNumCellKinds * 2);
  for (std::size_t k = 0; k < kNumCellKinds; ++k) {
    const auto kind = static_cast<CellKind>(k);
    for (Vth vth : {Vth::kLow, Vth::kHigh}) {
      const std::size_t idx = k * 2 + (vth == Vth::kHigh ? 1 : 0);
      terms_[idx] = lib_.delay_terms(kind, vth);
      leak_unit_[idx] = lib_.leak_unit_na(kind, vth);
    }
  }

  const std::size_t n = flat_.num_gates;
  vth_.assign(flat_.vth.begin(), flat_.vth.end());
  size_.assign(flat_.size.begin(), flat_.size.end());
  step_.resize(n);
  for (GateId g = 0; g < n; ++g) step_[g] = lib_.nearest_step(size_[g]);

  // Persistent assign-slot lanes start fully dirty; the first assign scan
  // builds them (the leakage analyzer's committed moments are only
  // guaranteed primed by then).
  const std::size_t slots = 2 * n;
  sl_alive_.assign(slots, 0);
  sl_dd_.resize(slots);
  sl_nmean_.resize(slots);
  sl_nvar_.resize(slots);
  sl_om_.resize(slots);
  sl_ov_.resize(slots);
  sl_dm_.resize(slots);
  sl_dv_.resize(slots);
  sl_vexb_.resize(slots);
  sl_tgt_.resize(slots);
  dirty_flag_.assign(n, 1);
  dirty_.resize(n);
  for (GateId g = 0; g < n; ++g) dirty_[g] = g;

  workers_.resize(static_cast<std::size_t>(pool_.size()));
  shard_best_.resize(workers_.size());
  shard_pruned_.resize(workers_.size());
}

BatchScorer::AssignPrune BatchScorer::make_assign_prune(
    const LeakDeltaPricer& pricer, double q_now) {
  AssignPrune p;
  const double m0 = pricer.sum_mean;
  const double pair0 =
      pricer.cov_factor * std::max(0.0, m0 * m0 - pricer.sum_mean_sq);
  const double v0 = pricer.sum_var + pair0;
  const double z = pricer.z;
  if (!(m0 > 0.0) || !(v0 > 0.0) || !(z > 0.0) || pricer.cov_factor < 0.0) {
    return p;
  }
  const double w0 = v0 / (m0 * m0);
  // Monotonicity guard: q(m, v) is increasing in v exactly while
  // L = ln(1 + v/m^2) < z^2. Every w the guarded rectangle and the
  // variance-excess extension can reach stays below 5 * w0; require the
  // corresponding L to clear z^2 with margin, else pruning is off (exact
  // scoring is always sound).
  const double l5 = std::log1p(5.0 * w0);
  if (!(l5 < 0.99 * z * z)) return p;
  // q(m0, v0) through the exact pricing expression (a zero-delta move), so
  // the anchor absorbs any difference between the committed q_now the
  // optimizer passes in and the pricing path's own value.
  const double q0 = pricer.quantile_na(GateLeakMoments{}, GateLeakMoments{});
  // The inflation swallows libm evaluation error in the sups and every
  // rounding step of the per-candidate bound arithmetic (relative error
  // ~1e-15 per operation; 1e-6 leaves nine orders of margin).
  constexpr double kInflate = 1.0 + 1e-6;
  p.anchor = std::max(0.0, (q_now - q0) * kInflate);
  p.half_m = 0.5 * m0;
  p.half_v = 0.5 * v0;
  p.quarter_v = 0.25 * v0;
  p.cf = pricer.cov_factor;
  p.cf2m = pricer.cov_factor * 2.0 * m0;
  p.m0 = m0;
  p.v0 = v0;
  p.z = z;
  p.usable = true;
  return p;
}

void BatchScorer::set_impl(GateId id, Vth vth, double size) {
  const bool vth_changed = vth_[id] != vth;
  const bool size_changed = size_[id] != size;
  if (!vth_changed && !size_changed) return;
  vth_[id] = vth;
  size_[id] = size;
  step_[id] = lib_.nearest_step(size);
  mark_dirty(id);
  if (size_changed) {
    // A resize changes this gate's input-pin capacitance and therefore the
    // output loads of its fanin drivers — their persisted delay deltas are
    // stale (sta/loads.hpp: loads depend on receiver sizes only, so a pure
    // Vth swap leaves every load untouched).
    const std::uint32_t off = flat_.fanin_offset[id];
    const std::uint32_t end = flat_.fanin_offset[id + 1];
    for (std::uint32_t k = off; k < end; ++k) mark_dirty(flat_.fanin[k]);
  }
}

void BatchScorer::mark_dirty(GateId id) {
  if (dirty_flag_[id] != 0) return;
  dirty_flag_[id] = 1;
  dirty_.push_back(id);
}

void BatchScorer::rebuild_dirty_slots() {
  for (GateId id : dirty_) {
    rebuild_gate_slots(id);
    dirty_flag_[id] = 0;
  }
  dirty_.clear();
}

void BatchScorer::rebuild_gate_slots(GateId id) {
  const std::size_t s_hvt = 2 * static_cast<std::size_t>(id);
  const std::size_t s_down = s_hvt + 1;
  sl_alive_[s_hvt] = 0;
  sl_alive_[s_down] = 0;
  if (flat_.is_input[id]) return;
  const double load = loads_[id];
  const double size = size_[id];
  const double dn = terms_[0].drive_num;
  const std::size_t tn = static_cast<std::size_t>(flat_.kind[id]) * 2 +
                         (vth_[id] == Vth::kHigh ? 1 : 0);
  const GateLeakMoments& m = leak_.cached_moments(id);
  // The exact stage-1 delay decomposition of the batched scan (and of the
  // reference scan's delay_ps()), evaluated at rebuild time: the inputs are
  // frozen until the next set_impl/load change, which re-dirties this gate.
  const double d_now = terms_[tn].intrinsic_ps +
                       dn * load / (terms_[tn].idrive_unit_ua * size);
  const auto fill = [&](std::size_t slot, double dd, std::size_t t, Vth tvth,
                        double tgt) {
    double nmean;
    double nvar;
    if (!pelgrom_) {
      const double nominal = leak_unit_[t] * tgt;
      nmean = nominal * mean_factor_;
      nvar = std::max(0.0, nominal * nominal * var_factor_);
    } else {
      const GateLeakMoments nm =
          leak_.model().gate_moments(flat_.kind[id], tvth, tgt);
      nmean = nm.mean_na;
      nvar = nm.var_na2;
    }
    const double dm = m.mean_na - nmean;
    const double dv = m.var_na2 - nvar;
    sl_alive_[slot] = 1;
    sl_dd_[slot] = dd;
    sl_nmean_[slot] = nmean;
    sl_nvar_[slot] = nvar;
    sl_om_[slot] = m.mean_na;
    sl_ov_[slot] = m.var_na2;
    sl_dm_[slot] = dm;
    sl_dv_[slot] = dv;
    sl_vexb_[slot] = dm * dm + (m.mean_na + nmean) * dm;
    sl_tgt_[slot] = tgt;
  };
  if (vth_[id] == Vth::kLow) {
    const std::size_t th = static_cast<std::size_t>(flat_.kind[id]) * 2 + 1;
    const double d_tgt = terms_[th].intrinsic_ps +
                         dn * load / (terms_[th].idrive_unit_ua * size);
    fill(s_hvt, d_tgt - d_now, th, Vth::kHigh, size);
  }
  const std::size_t step = step_[id];
  if (step > 0) {
    const double tgt = steps_[step - 1];
    const double d_tgt = terms_[tn].intrinsic_ps +
                         dn * load / (terms_[tn].idrive_unit_ua * tgt);
    fill(s_down, d_tgt - d_now, tn, vth_[id], tgt);
  }
}

void BatchScorer::Worker::clear() {
  gate.clear();
  tgt_step.clear();
  load.clear();
  cur_size.clear();
  tgt_size.clear();
  intr_now.clear();
  idr_now.clear();
  leak_unit_tgt.clear();
  old_mean.clear();
  old_var.clear();
  crit.clear();
  blocks = 0;
}

MoveCandidate BatchScorer::best_sizing(std::span<const double> criticality,
                                       std::span<const std::uint64_t> locked,
                                       double q_now, double pct,
                                       double crit_floor, double gain_eps) {
  ++passes_;
  const LeakDeltaPricer pricer = leak_.delta_pricer(pct);
  // parallel_for skips empty shards; reset everything serially first so the
  // reduction never reads a previous scan's leftovers.
  for (Worker& w : workers_) w.blocks = 0;
  std::fill(shard_best_.begin(), shard_best_.end(), MoveCandidate{});

  pool_.parallel_for(
      flat_.num_gates, [&](std::size_t lo, std::size_t hi, int worker) {
        Worker& w = workers_[static_cast<std::size_t>(worker)];
        w.clear();
        for (std::size_t i = lo; i < hi; ++i) {
          const auto id = static_cast<GateId>(i);
          if (flat_.is_input[id]) continue;
          if (criticality[id] < crit_floor) continue;
          const std::size_t step = step_[id];
          if (step + 1 >= steps_.size()) continue;
          if ((locked[id] >> (step + 1)) & 1u) continue;
          const std::size_t t =
              static_cast<std::size_t>(flat_.kind[id]) * 2 +
              (vth_[id] == Vth::kHigh ? 1 : 0);
          w.gate.push_back(id);
          w.tgt_step.push_back(step + 1);
          w.load.push_back(loads_[id]);
          w.cur_size.push_back(size_[id]);
          w.tgt_size.push_back(steps_[step + 1]);
          w.intr_now.push_back(terms_[t].intrinsic_ps);
          w.idr_now.push_back(terms_[t].idrive_unit_ua);
          w.leak_unit_tgt.push_back(leak_unit_[t]);
          const GateLeakMoments& m = leak_.cached_moments(id);
          w.old_mean.push_back(m.mean_na);
          w.old_var.push_back(m.var_na2);
          w.crit.push_back(criticality[id]);
        }
        MoveCandidate local;
        price_blocks_sizing(w, pricer, q_now, crit_floor, gain_eps, local);
        shard_best_[static_cast<std::size_t>(worker)] = local;
      });

  MoveCandidate best;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    blocks_ += workers_[wi].blocks;
    if (shard_best_[wi].score > best.score) best = shard_best_[wi];
  }
  return best;
}

void BatchScorer::price_blocks_sizing(Worker& w, const LeakDeltaPricer& pricer,
                                      double q_now, double /*crit_floor*/,
                                      double gain_eps,
                                      MoveCandidate& local) const {
  const std::size_t m = w.gate.size();
  if (m == 0) return;
  w.delta.resize(block_);
  w.new_mean.resize(block_);
  w.new_var.resize(block_);
  const double dn = terms_[0].drive_num;  // 1000 * k_delay * vdd, class-free
  const double mf = mean_factor_;
  const double vf = var_factor_;
  for (std::size_t base = 0; base < m; base += block_) {
    const std::size_t len = std::min(block_, m - base);
    ++w.blocks;
    const double* STATLEAK_RESTRICT load = w.load.data() + base;
    const double* STATLEAK_RESTRICT cur = w.cur_size.data() + base;
    const double* STATLEAK_RESTRICT tgt = w.tgt_size.data() + base;
    const double* STATLEAK_RESTRICT intr = w.intr_now.data() + base;
    const double* STATLEAK_RESTRICT idr = w.idr_now.data() + base;
    const double* STATLEAK_RESTRICT lu = w.leak_unit_tgt.data() + base;
    double* STATLEAK_RESTRICT delta = w.delta.data();
    double* STATLEAK_RESTRICT nmean = w.new_mean.data();
    double* STATLEAK_RESTRICT nvar = w.new_var.data();

    // Stage 1: own-delay gain. Each delay is the exact delay_ps()
    // decomposition (see CellLibrary::DelayTerms); same Vth for both sides.
    STATLEAK_VEC_LOOP
    for (std::size_t i = 0; i < len; ++i) {
      const double d_now = intr[i] + dn * load[i] / (idr[i] * cur[i]);
      const double d_tgt = intr[i] + dn * load[i] / (idr[i] * tgt[i]);
      delta[i] = d_now - d_tgt;
    }

    // Stage 2: hypothetical leak moments at the target size.
    if (!pelgrom_) {
      STATLEAK_VEC_LOOP
      for (std::size_t i = 0; i < len; ++i) {
        const double nominal = lu[i] * tgt[i];
        nmean[i] = nominal * mf;
        nvar[i] = std::max(0.0, nominal * nominal * vf);
      }
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        const GateId id = w.gate[base + i];
        const GateLeakMoments nm =
            leak_.model().gate_moments(flat_.kind[id], vth_[id], tgt[i]);
        nmean[i] = nm.mean_na;
        nvar[i] = nm.var_na2;
      }
    }

    // Stage 3: quantile + score, scalar over dense lanes (transcendentals).
    for (std::size_t i = 0; i < len; ++i) {
      if (delta[i] <= gain_eps) continue;
      const GateLeakMoments old_m{w.old_mean[base + i], w.old_var[base + i]};
      const GateLeakMoments now_m{nmean[i], nvar[i]};
      const double dleak_pct = pricer.quantile_na(old_m, now_m) - q_now;
      const double score =
          w.crit[base + i] * delta[i] / std::max(dleak_pct, 1e-6);
      if (score > local.score) {
        local = MoveCandidate{score, w.gate[base + i], w.tgt_step[base + i],
                              false, 0.0};
      }
    }
  }
}

MoveCandidate BatchScorer::best_assign(std::span<const double> criticality,
                                       std::span<const unsigned char> locked,
                                       double q_now, double pct,
                                       double crit_floor, double eps) {
  ++passes_;
  rebuild_dirty_slots();
  const LeakDeltaPricer pricer = leak_.delta_pricer(pct);
  const AssignPrune prune = make_assign_prune(pricer, q_now);
  for (Worker& w : workers_) w.blocks = 0;
  std::fill(shard_best_.begin(), shard_best_.end(), MoveCandidate{});
  std::fill(shard_pruned_.begin(), shard_pruned_.end(), std::int64_t{0});

  pool_.parallel_for(
      flat_.num_gates, [&](std::size_t lo, std::size_t hi, int worker) {
        Worker& w = workers_[static_cast<std::size_t>(worker)];
        // Compact the shard's live unlocked slots in serial candidate
        // order: slot 2g (HVT swap) before 2g + 1 (downsize), gates
        // ascending — the order the argmax tie rule depends on. All heavy
        // per-candidate inputs live in the persistent slot lanes.
        w.slot.clear();
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t s = 2 * i;
          const unsigned char lk = locked[i];
          if (sl_alive_[s] != 0 && (lk & 1) == 0) {
            w.slot.push_back(static_cast<std::uint32_t>(s));
          }
          if (sl_alive_[s + 1] != 0 && (lk & 2) == 0) {
            w.slot.push_back(static_cast<std::uint32_t>(s + 1));
          }
        }
        MoveCandidate local;
        std::int64_t pruned = 0;
        price_slots_assign(w, pricer, prune, criticality, q_now, crit_floor,
                           eps, local, pruned);
        shard_best_[static_cast<std::size_t>(worker)] = local;
        shard_pruned_[static_cast<std::size_t>(worker)] = pruned;
      });

  MoveCandidate best;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    blocks_ += workers_[wi].blocks;
    pruned_ += shard_pruned_[wi];
    if (shard_best_[wi].score > best.score) best = shard_best_[wi];
  }
  return best;
}

/// Stage-3 quantile elision. The exact score of an assign candidate is
/// benefit / denom with benefit = q_now - q(m1, v1), where (m1, v1) are the
/// totals after swapping the gate's committed moments (om, ov) for the
/// hypothetical ones (nm, nv), and q is the Wilkinson lognormal quantile —
/// one log1p, one log, one sqrt and one exp per candidate, the dominant
/// cost of a scan. Most candidates lose to the running shard best by
/// orders of magnitude, so a cheap proven upper bound on benefit discharges
/// them without the transcendentals:
///
///   benefit <= anchor + A * dm + B * dv_ub
///
/// with dm = om - nm, dv_ub = (ov - nv) + cf * 2 * m0 * dm, and A, B sups
/// of dq/dm and dq/dv over the moment rectangle a move in THIS shard can
/// actually reach: [m0 - dm_max, m0] x [v0 - dvub_max, v0 + vex_max],
/// where the maxima are taken over the shard's guarded candidates in the
/// guard pass. A single move perturbs the totals by ~1/n, so the rectangle
/// is tiny and the sups sit within ~1e-3 of the true derivatives at
/// (m0, v0) — the bound separates candidates whose scores differ by even
/// a few percent, which is what makes the prune bite (a fixed [m0/2, m0]
/// rectangle gives ~3x-loose sups, useless against the clustered scores of
/// same-library gates). Soundness:
///  - split benefit = [q(m0,v0) - q(m1,v0)] + [q(m1,v0) - q(m1,v1)] plus
///    the anchor absorbing q_now vs the pricing-path q(m0, v0);
///  - the first term is <= A * dm by the mean value theorem with
///    A >= sup dq/dm = sup exp(h(w)) * (1 - 2 w h'(w)): h(w) =
///    z sqrt(L) - L/2 is increasing while L = ln(1+w) < z^2 (guarded with
///    margin via the per-pass log1p(5 w0) < 0.99 z^2 check, since the
///    rectangle's w never exceeds 5 w0 given the per-candidate guards
///    dm <= m0/2, dv_ub <= v0/2, vex <= v0/4), h'(w) =
///    (z/(2 sqrt(L)) - 1/2)/(1+w) is positive and decreasing there, so
///    sup exp(h) = exp(h(w_hi)) and inf 2 w h' = 2 w_lo h'(w_hi); the
///    product bound sup(f g) <= sup f * sup g applies with f = exp(h) > 0
///    and sup g = 1 - 2 w_lo h'(w_hi) when that is >= 0, and when it is
///    negative dq/dm < 0 throughout so 0 bounds the term;
///  - v0 - v1 <= dv_ub always (the pairwise term cf * (sm^2 - smsq) can
///    shrink by at most cf * 2 * m0 * dm), so when v1 <= v0 the second
///    term is <= B * dv_ub with B >= sup dq/dv = exp(h(w_hi)) *
///    h'(w_lo) / (m0 - dm_max); when v1 > v0 the second term is negative
///    (q increasing in v inside the guarded region) and B * dv_ub >= 0
///    still bounds it — v1 exceeds v0 by at most vex = cf * (dm^2 +
///    (om + nm) * dm) - (ov - nv), which the rectangle's v_hi covers.
/// Every sup is inflated by 1e-6 relative, which swallows the ~1e-15
/// rounding of both the bound arithmetic and the exact path it stands in
/// for. A discharged candidate therefore satisfies score <= thresh
/// bit-certainly, where thresh is a proven lower bound on the shard's best
/// score: it is seeded by exact-scoring the candidate with the largest
/// upper bound (an actual candidate's score, with a 1e-9 haircut so ties
/// against the seed stay unpruned) and then tracks the running best. The
/// serial selection is the first candidate attaining the maximum score;
/// every candidate that could attain it survives the prune, so the
/// selected move is unchanged for any thread count or block size (pinned
/// by tests/batch_score_test.cpp) even though the shard-local maxima —
/// and hence which losers get elided — vary with the sharding. Candidates
/// outside the guards fall through to the exact quantile.
void BatchScorer::price_slots_assign(Worker& w, const LeakDeltaPricer& pricer,
                                     const AssignPrune& prune,
                                     std::span<const double> criticality,
                                     double q_now, double crit_floor,
                                     double eps, MoveCandidate& local,
                                     std::int64_t& pruned) const {
  const std::size_t m = w.slot.size();
  if (m == 0) return;
  // The candidate-block knob no longer shapes this scan (the persistent
  // lanes made the staged block loop unnecessary); keep the blocks counter
  // meaning "groups of up to K candidates priced" so its telemetry stays
  // comparable across phases and configs.
  w.blocks += static_cast<std::int64_t>((m + block_ - 1) / block_);
  const std::uint32_t* STATLEAK_RESTRICT sl = w.slot.data();

  // Guard pass: per-candidate moment deltas from the persistent lanes
  // (pure arithmetic; +inf in the dvub scratch marks "outside the guards,
  // score exactly"), plus the shard maxima that size the sup rectangle.
  double dm_max = 0.0, dvub_max = 0.0, vex_max = 0.0;
  if (prune.usable) {
    w.dm.resize(m);
    w.dvub.resize(m);
    w.bound.resize(m);
    const double* STATLEAK_RESTRICT pdm = sl_dm_.data();
    const double* STATLEAK_RESTRICT pdv = sl_dv_.data();
    const double* STATLEAK_RESTRICT pvx = sl_vexb_.data();
    double* STATLEAK_RESTRICT dml = w.dm.data();
    double* STATLEAK_RESTRICT dvl = w.dvub.data();
    STATLEAK_VEC_LOOP
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t s = sl[i];
      const double dm = pdm[s];
      const double dv = pdv[s];
      const double dv_ub = dv + prune.cf2m * dm;
      const double vex = prune.cf * pvx[s] - dv;
      const bool ok = dm >= 0.0 && dv >= 0.0 && dm <= prune.half_m &&
                      dv_ub <= prune.half_v && vex <= prune.quarter_v;
      dml[i] = ok ? dm : 0.0;
      dvl[i] = ok ? dv_ub : std::numeric_limits<double>::infinity();
      if (ok) {
        dm_max = std::max(dm_max, dm);
        dvub_max = std::max(dvub_max, dv_ub);
        vex_max = std::max(vex_max, vex);
      }
    }
  }

  // Per-shard sup constants over the rectangle the guarded candidates
  // actually reach (see the function comment for the derivation), then the
  // vectorized bound lane. vex_max can be negative-free by construction
  // (clamped through max with 0).
  if (prune.usable) {
    constexpr double kInflate = 1.0 + 1e-6;
    const double z = prune.z;
    const double m_lo = prune.m0 - dm_max;
    const double w_lo = (prune.v0 - dvub_max) / (prune.m0 * prune.m0);
    const double w_hi = (prune.v0 + std::max(0.0, vex_max)) / (m_lo * m_lo);
    const double l_lo = std::log1p(w_lo);
    const double l_hi = std::log1p(w_hi);
    const double eh_hi = std::exp(z * std::sqrt(l_hi) - 0.5 * l_hi);
    const double hp_hi = (z / (2.0 * std::sqrt(l_lo)) - 0.5) / (1.0 + w_lo);
    const double hp_lo = (z / (2.0 * std::sqrt(l_hi)) - 0.5) / (1.0 + w_hi);
    const double a =
        eh_hi * std::max(0.0, 1.0 - 2.0 * w_lo * hp_lo) * kInflate;
    const double b = eh_hi * hp_hi / m_lo * kInflate;
    const double anchor = prune.anchor;
    const double* STATLEAK_RESTRICT dml = w.dm.data();
    const double* STATLEAK_RESTRICT dvl = w.dvub.data();
    double* STATLEAK_RESTRICT bnd = w.bound.data();
    STATLEAK_VEC_LOOP
    for (std::size_t i = 0; i < m; ++i) {
      bnd[i] = anchor + a * dml[i] + b * dvl[i];
    }
  }

  // Sweep 1 (seed): exact-score the candidate with the largest upper bound.
  // Its true score is a lower bound on this shard's best score, so the
  // in-order sweep can start from a strong prune threshold instead of zero.
  // The 1e-9 haircut keeps every candidate whose score ties the seed's
  // unpruned, preserving the serial first-attainer tie rule; the seed
  // evaluation itself is pure (no state), so scoring it twice is harmless.
  double thresh = local.score;
  if (prune.usable) {
    std::size_t seed = m;
    double seed_ub = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double b = w.bound[i];
      if (b > seed_ub && std::isfinite(b)) {
        seed_ub = b;
        seed = i;
      }
    }
    if (seed < m) {
      const std::uint32_t s = sl[seed];
      const GateLeakMoments old_m{sl_om_[s], sl_ov_[s]};
      const GateLeakMoments now_m{sl_nmean_[s], sl_nvar_[s]};
      const double benefit = q_now - pricer.quantile_na(old_m, now_m);
      if (benefit > 0.0) {
        const double crit =
            std::max(criticality[s >> 1], crit_floor);
        const double denom = crit * std::max(sl_dd_[s], eps) + eps;
        thresh = std::max(thresh, (benefit / denom) * (1.0 - 1e-9));
      }
    }
  }

  // Sweep 2: benefit + score in candidate order. The denominator is the
  // reference scan's expression over the persistent lanes (same subterms,
  // same bits); the upper-bound test elides the quantile for candidates
  // that provably cannot beat the threshold (see the function comment).
  // `thresh` tracks local.score once that overtakes the seed.
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t s = sl[i];
    const double crit = std::max(criticality[s >> 1], crit_floor);
    const double denom = crit * std::max(sl_dd_[s], eps) + eps;
    if (prune.usable && w.bound[i] <= thresh * denom) {
      ++pruned;
      continue;
    }
    const GateLeakMoments old_m{sl_om_[s], sl_ov_[s]};
    const GateLeakMoments now_m{sl_nmean_[s], sl_nvar_[s]};
    const double benefit = q_now - pricer.quantile_na(old_m, now_m);
    if (benefit > 0.0) {
      const double score = benefit / denom;
      if (score > local.score) {
        const bool hvt = (s & 1u) == 0;
        local = MoveCandidate{score, static_cast<GateId>(s >> 1), 0, hvt,
                              hvt ? 0.0 : sl_tgt_[s]};
        thresh = std::max(thresh, score);
      }
    }
  }
}

}  // namespace statleak
