#include "opt/batch_score.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/simd.hpp"

namespace statleak {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Relative inflation of the assign bound: swallows the libm error of its
// sups and the ~1e-15 rounding of the bound and key arithmetic.
constexpr double kInflate = 1.0 + 1e-6;
// All slots are re-keyed once the bound constants outgrow the keys' by
// more than this factor (keys past it still bound, but prune less).
constexpr double kMaxDrift = 1.0 + 1e-3;
constexpr std::size_t kKeyBlock = 64;  ///< slots per block maximum
/// Candidates per unit of the blocks() counter (opt.candidate_blocks).
constexpr std::int64_t kCountBlock = 64;

std::int64_t count_blocks(std::int64_t candidates) {
  return (candidates + kCountBlock - 1) / kCountBlock;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

BatchScorer::BatchScorer(const CellLibrary& lib, const LeakageAnalyzer& leak,
                         const Circuit& circuit, const LoadCache& loads,
                         ThreadPool& pool)
    : lib_(lib),
      leak_(leak),
      circuit_(circuit),
      kind_(circuit.kinds()),
      loads_(loads.loads()),
      pool_(pool),
      steps_(lib.size_steps()) {
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

  const std::size_t n = kind_.size();
  vth_.resize(n);
  size_.resize(n);
  step_.resize(n);
  for (GateId g = 0; g < n; ++g) {
    const Gate gate = circuit_.gate(g);
    vth_[g] = gate.vth;
    size_[g] = gate.size;
    step_[g] = lib_.nearest_step(size_[g]);
  }

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
  key_.resize(slots);
  bmax_.resize((slots + kKeyBlock - 1) / kKeyBlock);
  crit_seen_.resize(n);
  lock_seen_.resize(n);

  shards_.resize(static_cast<std::size_t>(pool_.size()));
}

/// The assign-phase benefit bound. The exact score of an assign candidate
/// is benefit / denom with benefit = q_now - q(m1, v1), where (m1, v1) are
/// the totals after swapping the gate's committed moments (om, ov) for the
/// hypothetical ones (nm, nv), and q is the Wilkinson lognormal quantile —
/// one log1p, one log, one sqrt and one exp per candidate, the dominant
/// cost of a scan. Most candidates lose to the best by orders of
/// magnitude, so a cheap proven upper bound on benefit discharges them
/// without the transcendentals:
///
///   benefit <= A * dm + B * dv_ub = (A + B * cf2m) * dm + B * dv
///
/// with dm = om - nm, dv = ov - nv, dv_ub = dv + cf * 2 * m0 * dm, and A, B
/// sups of dq/dm and dq/dv over a moment rectangle that contains every
/// move a live eligible slot (dm >= 0, dv >= 0) can reach: [m0 - dm_hi,
/// m0] x [v0 - dvub_hi, v0 + vex_hi], with dvub_hi = dv_hi + cf2m * dm_hi
/// and vex_hi = cf * vexb_hi from the maxima the scorer keeps (over-
/// estimates are fine: A and B only grow with the rectangle). A single
/// move perturbs the totals by ~1/n, so the rectangle is tiny and the sups
/// sit within ~1e-3 of the true derivatives at (m0, v0) — the bound
/// separates candidates whose scores differ by even a few percent, which is
/// what makes the prune bite. Soundness:
///  - split benefit = [q(m0,v0) - q(m1,v0)] + [q(m1,v0) - q(m1,v1)]; the
///    bound is only used when q_now <= q(m0, v0) through the pricing path
///    (no anchor term), else the scan runs unbounded;
///  - the first term is <= A * dm by the mean value theorem with
///    A >= sup dq/dm = sup exp(h(w)) * (1 - 2 w h'(w)): h(w) =
///    z sqrt(L) - L/2 is increasing while L = ln(1+w) < z^2 (guarded with
///    margin via the log1p(5 w0) < 0.99 z^2 check, since the rectangle's w
///    never exceeds 5 w0 given the aggregate guards dm_hi <= m0/2,
///    dvub_hi <= v0/2, vex_hi <= v0/4), h'(w) = (z/(2 sqrt(L)) - 1/2)/(1+w)
///    is positive and decreasing there, so sup exp(h) = exp(h(w_hi)) and
///    inf 2 w h' = 2 w_lo h'(w_hi); the product bound sup(f g) <= sup f *
///    sup g applies with f = exp(h) > 0 and sup g = 1 - 2 w_lo h'(w_hi)
///    when that is >= 0, and when it is negative dq/dm < 0 throughout so 0
///    bounds the term;
///  - v0 - v1 <= dv_ub always (the pairwise term cf * (sm^2 - smsq) can
///    shrink by at most cf * 2 * m0 * dm), so when v1 <= v0 the second
///    term is <= B * dv_ub with B >= sup dq/dv = exp(h(w_hi)) *
///    h'(w_lo) / (m0 - dm_hi); when v1 > v0 the second term is negative
///    (q increasing in v inside the guarded region) and B * dv_ub >= 0
///    still bounds it — v1 exceeds v0 by at most cf * vexb - dv <= vex_hi,
///    which the rectangle's v_hi covers.
/// Every sup is inflated by 1e-6 relative, which swallows the libm error
/// of the sups and the ~1e-15 rounding of the bound arithmetic.
BatchScorer::AssignBound BatchScorer::assign_bound(
    const LeakDeltaPricer& pricer, double q_now) const {
  AssignBound bound;
  const double m0 = pricer.sum_mean;
  const double pair0 =
      pricer.cov_factor * std::max(0.0, m0 * m0 - pricer.sum_mean_sq);
  const double v0 = pricer.sum_var + pair0;
  const double z = pricer.z;
  if (!(m0 > 0.0) || !(v0 > 0.0) || !(z > 0.0) || pricer.cov_factor < 0.0) {
    return bound;
  }
  // Monotonicity guard: q(m, v) is increasing in v exactly while
  // L = ln(1 + v/m^2) < z^2; require the L of 5 * w0 to clear z^2.
  const double w0 = v0 / (m0 * m0);
  const double l5 = std::log1p(5.0 * w0);
  if (!(l5 < 0.99 * z * z)) return bound;
  // q(m0, v0) through the exact pricing expression (a zero-delta move): a
  // committed q_now above it would need an anchor term the keys lack.
  if (!(q_now <= pricer.quantile_na(GateLeakMoments{}, GateLeakMoments{}))) {
    return bound;
  }
  const double cf = pricer.cov_factor;
  const double cf2m = cf * 2.0 * m0;
  const double dvub_hi = dv_hi_ + cf2m * dm_hi_;
  const double vex_hi = cf * vexb_hi_;
  if (!(dm_hi_ <= 0.5 * m0 && dvub_hi <= 0.5 * v0 && vex_hi <= 0.25 * v0)) {
    return bound;
  }
  const double m_lo = m0 - dm_hi_;
  const double w_lo = (v0 - dvub_hi) / (m0 * m0);
  const double w_hi = (v0 + std::max(0.0, vex_hi)) / (m_lo * m_lo);
  const double l_lo = std::log1p(w_lo);
  const double l_hi = std::log1p(w_hi);
  const double eh_hi = std::exp(z * std::sqrt(l_hi) - 0.5 * l_hi);
  const double hp_hi = (z / (2.0 * std::sqrt(l_lo)) - 0.5) / (1.0 + w_lo);
  const double hp_lo = (z / (2.0 * std::sqrt(l_hi)) - 0.5) / (1.0 + w_hi);
  const double a = eh_hi * std::max(0.0, 1.0 - 2.0 * w_lo * hp_lo) * kInflate;
  const double b = eh_hi * hp_hi / m_lo * kInflate;
  bound.p = a + b * cf2m;
  bound.q = b;
  bound.ok = true;
  return bound;
}

double BatchScorer::key_drift(const AssignBound& bound) const {
  // p0_ or q0_ can be 0 (a = 0 and cf = 0): then only a 0 stays covered.
  const double rp = bound.p == 0.0 ? 0.0 : bound.p / p0_;
  const double rq = bound.q == 0.0 ? 0.0 : bound.q / q0_;
  return std::max(rp, rq);
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
    for (GateId d : circuit_.fanin_csr().row(id)) mark_dirty(d);
  }
}

void BatchScorer::mark_dirty(GateId id) {
  if (dirty_flag_[id] != 0) return;
  dirty_flag_[id] = 1;
  dirty_.push_back(id);
}

void BatchScorer::rebuild_dirty_slots() {
  for (GateId id : dirty_) rebuild_gate_slots(id);
  dirty_.clear();
}

std::size_t BatchScorer::term_index(GateId id, Vth vth) const {
  return static_cast<std::size_t>(kind_[id]) * 2 +
         (vth == Vth::kHigh ? 1 : 0);
}

double BatchScorer::own_delay(GateId id, Vth vth, double size) const {
  const CellLibrary::DelayTerms& t = terms_[term_index(id, vth)];
  const double dn = terms_[0].drive_num;  // 1000 * k_delay * vdd, class-free
  return t.intrinsic_ps + dn * loads_[id] / (t.idrive_unit_ua * size);
}

GateLeakMoments BatchScorer::moved_moments(GateId id, Vth vth,
                                           double size) const {
  if (pelgrom_) return leak_.model().gate_moments(kind_[id], vth, size);
  const double nominal = leak_unit_[term_index(id, vth)] * size;
  return GateLeakMoments{nominal * mean_factor_,
                         std::max(0.0, nominal * nominal * var_factor_)};
}

void BatchScorer::rebuild_gate_slots(GateId id) {
  const std::size_t s_hvt = 2 * static_cast<std::size_t>(id);
  const std::size_t s_down = s_hvt + 1;
  sl_alive_[s_hvt] = 0;
  sl_alive_[s_down] = 0;
  if (kind_[id] == CellKind::kInput) return;
  const Vth vth = vth_[id];
  const double size = size_[id];
  const GateLeakMoments& m = leak_.cached_moments(id);
  // Evaluated at rebuild time: the inputs are frozen until the next
  // set_impl/load change, which re-dirties this gate.
  const double d_now = own_delay(id, vth, size);
  const auto fill = [&](std::size_t slot, Vth tvth, double tgt) {
    const GateLeakMoments nm = moved_moments(id, tvth, tgt);
    const double dm = m.mean_na - nm.mean_na;
    const double dv = m.var_na2 - nm.var_na2;
    sl_alive_[slot] = 1;
    sl_dd_[slot] = own_delay(id, tvth, tgt) - d_now;
    sl_nmean_[slot] = nm.mean_na;
    sl_nvar_[slot] = nm.var_na2;
    sl_om_[slot] = m.mean_na;
    sl_ov_[slot] = m.var_na2;
    sl_dm_[slot] = dm;
    sl_dv_[slot] = dv;
    sl_vexb_[slot] = dm * dm + (m.mean_na + nm.mean_na) * dm;
    sl_tgt_[slot] = tgt;
    if (dm >= 0.0 && dv >= 0.0) {
      dm_hi_ = std::max(dm_hi_, dm);
      dv_hi_ = std::max(dv_hi_, dv);
      vexb_hi_ = std::max(vexb_hi_, sl_vexb_[slot]);
    }
  };
  if (vth == Vth::kLow) fill(s_hvt, Vth::kHigh, size);
  const std::size_t step = step_[id];
  if (step > 0) fill(s_down, vth, steps_[step - 1]);
}

MoveCandidate BatchScorer::best_sizing(std::span<const double> criticality,
                                       std::span<const std::uint64_t> locked,
                                       double q_now, double pct,
                                       double crit_floor, double gain_eps) {
  ++passes_;
  const LeakDeltaPricer pricer = leak_.delta_pricer(pct);
  // parallel_for skips empty shards; reset everything serially first so the
  // reduction never reads a previous scan's leftovers.
  std::fill(shards_.begin(), shards_.end(), Shard{});

  pool_.parallel_for(
      kind_.size(), [&](std::size_t lo, std::size_t hi, int worker) {
        Shard local;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto id = static_cast<GateId>(i);
          if (kind_[id] == CellKind::kInput) continue;
          if (criticality[id] < crit_floor) continue;
          const std::size_t step = step_[id];
          if (step + 1 >= steps_.size()) continue;
          if ((locked[id] >> (step + 1)) & 1u) continue;
          ++local.legal;
          // Same Vth on both sides: only the size moves.
          const Vth vth = vth_[id];
          const double tgt = steps_[step + 1];
          const double delta =
              own_delay(id, vth, size_[id]) - own_delay(id, vth, tgt);
          if (delta <= gain_eps) continue;
          const double dleak_pct =
              pricer.quantile_na(leak_.cached_moments(id),
                                 moved_moments(id, vth, tgt)) -
              q_now;
          const double score =
              criticality[id] * delta / std::max(dleak_pct, 1e-6);
          if (score > local.best.score) {
            local.best = MoveCandidate{score, id, step + 1, false, 0.0};
          }
        }
        shards_[static_cast<std::size_t>(worker)] = local;
      });

  MoveCandidate best;
  for (const Shard& shard : shards_) {
    blocks_ += count_blocks(shard.legal);
    if (shard.best.score > best.score) best = shard.best;
  }
  return best;
}

double BatchScorer::slot_key(std::size_t s, double crit,
                             unsigned char lock) const {
  // Branch-free: a dead slot's lanes hold stale but finite-or-inf values.
  const double dm = sl_dm_[s];
  const double dv = sl_dv_[s];
  // The scan's denominator expression (same subterms, same bits).
  const double denom =
      std::max(crit, floor_seen_) * std::max(sl_dd_[s], eps_seen_) + eps_seen_;
  const double key = (p0_ * dm + q0_ * dv) / denom;
  const bool live = sl_alive_[s] != 0 && ((lock >> (s & 1u)) & 1u) == 0;
  const bool bounded = dm >= 0.0 && dv >= 0.0 && !std::isnan(key);
  return live ? (bounded ? key : kInf) : -kInf;
}

bool BatchScorer::rekey_gate(GateId id, double crit, unsigned char lock) {
  const std::size_t s0 = 2 * static_cast<std::size_t>(id);
  // The block maximum follows a key that rises; only a maximal key that
  // falls leaves it to be recomputed from the whole block.
  double& top = bmax_[s0 / kKeyBlock];
  bool fell = false;
  for (std::size_t s = s0; s < s0 + 2; ++s) {
    const double key = slot_key(s, crit, lock);
    live_slots_ += static_cast<std::int64_t>(key != -kInf) -
                   static_cast<std::int64_t>(key_[s] != -kInf);
    fell = fell || (key < key_[s] && key_[s] == top);
    key_[s] = key;
    top = std::max(top, key);
  }
  stats_.rekeys += 2;
  return fell;
}

void BatchScorer::refresh_block(std::size_t b) {
  const std::size_t lo = b * kKeyBlock;
  const std::size_t hi = std::min(lo + kKeyBlock, key_.size());
  double m = -kInf;
  for (std::size_t s = lo; s < hi; ++s) m = std::max(m, key_[s]);
  bmax_[b] = m;
}

bool BatchScorer::patch_keys(std::span<const double> criticality,
                             const CriticalityChanges& changed,
                             std::span<const unsigned char> locked) {
  const std::size_t n = kind_.size();
  const double floor = floor_seen_;
  const double* STATLEAK_RESTRICT crit = criticality.data();
  double* STATLEAK_RESTRICT seen = crit_seen_.data();
  std::uint8_t* STATLEAK_RESTRICT flag = dirty_flag_.data();
  const auto moved = [&](std::size_t g) {
    return bits(std::max(crit[g], floor)) ^ bits(seen[g]);
  };
  // An unlisted gate still has the criticality its keys were built from:
  // flag the listed ones whose clamped value moved. When the feed reads
  // "all", the word loop below diffs every gate instead.
  if (changed.all) {
    ++stats_.full_diffs;
  } else {
    for (GateId g : changed.gates) flag[g] |= moved(g) != 0 ? 1 : 0;
  }
  // Words of eight gates: most have no flag, no changed lock byte and (on
  // a full diff) no moved criticality. The gates to re-key are collected
  // first, so a dense scan re-keys nothing twice and the re-key loop can
  // fetch its slots ahead.
  rekey_.clear();
  const std::size_t whole = n - n % 8;  // the tail word is checked per gate
  for (std::size_t lo = 0; lo < n; lo += 8) {
    if (lo < whole) {
      std::uint64_t diff = 0;
      if (changed.all) {
        for (std::size_t k = 0; k < 8; ++k) diff |= moved(lo + k);
      }
      std::uint64_t f = 0, a = 0, b = 0;
      std::memcpy(&f, flag + lo, 8);
      std::memcpy(&a, locked.data() + lo, 8);
      std::memcpy(&b, lock_seen_.data() + lo, 8);
      if ((diff | f | (a ^ b)) == 0) continue;
    }
    for (std::size_t g = lo; g < std::min(lo + 8, n); ++g) {
      if (moved(g) != 0 || flag[g] != 0 || locked[g] != lock_seen_[g]) {
        rekey_.push_back(static_cast<GateId>(g));
      }
    }
    // Dense: a straight pass re-keys everything.
    if (rekey_.size() > n / 8) return false;
  }
  constexpr std::size_t kGates = kKeyBlock / 2;  // gates per key block
  constexpr std::size_t kNoBlock = ~std::size_t{0};
  constexpr std::size_t kAhead = 8;  // gates fetched ahead of the re-key
  std::size_t block = kNoBlock;  // key block whose maximum is to recompute
  for (std::size_t i = 0; i < rekey_.size(); ++i) {
    if (i + kAhead < rekey_.size()) {
      const std::size_t s = 2 * static_cast<std::size_t>(rekey_[i + kAhead]);
      __builtin_prefetch(&sl_dm_[s]);
      __builtin_prefetch(&sl_dv_[s]);
      __builtin_prefetch(&sl_dd_[s]);
      __builtin_prefetch(&sl_alive_[s]);
      __builtin_prefetch(&key_[s], 1);
    }
    const GateId g = rekey_[i];
    const double c = std::max(crit[g], floor);
    seen[g] = c;
    lock_seen_[g] = locked[g];
    flag[g] = 0;
    if (rekey_gate(g, c, locked[g]) && g / kGates != block) {
      if (block != kNoBlock) refresh_block(block);
      block = g / kGates;
    }
  }
  if (block != kNoBlock) refresh_block(block);
  return true;
}

void BatchScorer::recompute_maxima() {
  dm_hi_ = dv_hi_ = vexb_hi_ = 0.0;
  for (std::size_t s = 0; s < key_.size(); ++s) {
    if (sl_alive_[s] != 0 && sl_dm_[s] >= 0.0 && sl_dv_[s] >= 0.0) {
      dm_hi_ = std::max(dm_hi_, sl_dm_[s]);
      dv_hi_ = std::max(dv_hi_, sl_dv_[s]);
      vexb_hi_ = std::max(vexb_hi_, sl_vexb_[s]);
    }
  }
}

void BatchScorer::rekey_all(const AssignBound& bound,
                            std::span<const double> criticality,
                            std::span<const unsigned char> locked,
                            double crit_floor, double eps) {
  const std::size_t n = kind_.size();
  p0_ = bound.p;
  q0_ = bound.q;
  floor_seen_ = crit_floor;
  eps_seen_ = eps;
  for (std::size_t g = 0; g < n; ++g) {
    crit_seen_[g] = std::max(criticality[g], crit_floor);
  }
  std::copy(locked.begin(), locked.end(), lock_seen_.begin());
  std::fill(dirty_flag_.begin(), dirty_flag_.end(), std::uint8_t{0});
  // The maxima are recomputed in the same pass: the keys carry the bound of
  // the old (over-estimated) rectangle, which covers the new one, and the
  // next scan's constants come from the tighter one.
  double dm_hi = 0.0, dv_hi = 0.0, vexb_hi = 0.0;
  std::int64_t live = 0;
  for (std::size_t b = 0; b < bmax_.size(); ++b) {
    const std::size_t lo = b * kKeyBlock;
    const std::size_t hi = std::min(lo + kKeyBlock, key_.size());
    double m = -kInf;
    for (std::size_t s = lo; s < hi; ++s) {
      const double key = slot_key(s, crit_seen_[s >> 1], locked[s >> 1]);
      key_[s] = key;
      m = std::max(m, key);
      live += static_cast<std::int64_t>(key != -kInf);
      const bool eligible =
          sl_alive_[s] != 0 && sl_dm_[s] >= 0.0 && sl_dv_[s] >= 0.0;
      dm_hi = std::max(dm_hi, eligible ? sl_dm_[s] : 0.0);
      dv_hi = std::max(dv_hi, eligible ? sl_dv_[s] : 0.0);
      vexb_hi = std::max(vexb_hi, eligible ? sl_vexb_[s] : 0.0);
    }
    bmax_[b] = m;
  }
  dm_hi_ = dm_hi;
  dv_hi_ = dv_hi;
  vexb_hi_ = vexb_hi;
  live_slots_ = live;
  keyed_ = true;
  stats_.rekeys += static_cast<std::int64_t>(2 * n);
  ++stats_.full_rekeys;
}

/// Lazy evaluation (CELF, Leskovec et al. 2007) of the greedy assign scan.
/// Each live slot carries key = (p0 * dm + q0 * dv) / denom, with denom the
/// scan's exact denominator and p0, q0 the bound constants of the scan that
/// last re-keyed everything (assign_bound()). For this scan's constants
/// p, q and dm, dv >= 0, benefit <= p * dm + q * dv <= r * (p0 * dm + q0 *
/// dv) with r = max(p / p0, q / q0), so score <= r * key. A key stays valid
/// as long as dm, dv, the clamped criticality max(crit, floor), the lock
/// byte, floor and eps it was built from do (the key and the denominator
/// read criticality only through that clamp, so a gate whose criticality
/// moves below the floor keeps its key bits). Each scan therefore re-keys
/// the slots whose lanes were rebuilt or whose lock byte changed (a byte
/// diff against lock_seen_) or whose clamped criticality changed (checked
/// for the gates the change feed lists, or for every gate against
/// crit_seen_ when it reads "all"), and re-keys everything —
/// recomputing the rectangle maxima and resetting p0, q0 — on the first
/// scan, on a floor/eps change, when r leaves [., kMaxDrift], when the
/// aggregate guard fails on stale maxima, or when more than n/8 gates
/// changed (one straight pass then beats diff-and-patch).
///
/// The query seeds a threshold with the exact score of the max-key slot
/// (a real candidate's score, with a 1e-9 haircut so ties against it stay
/// unpruned), then walks 64-slot blocks and slots in slot order, skipping
/// a block or slot only when r * key * (1 + 1e-6) <= thresh — the
/// inflation swallows the rounding of the key arithmetic. thresh tracks
/// the running best. Every slot that could attain the maximum score is
/// visited, in slot order, under the serial rule "first strictly-greater
/// score wins", so the chosen gate, move and score bits are the reference
/// scan's (pinned by tests/batch_score_test.cpp). Dead or locked slots key
/// -inf; live slots outside the bound key +inf and are always exact-scored.
/// When the bound is unusable on a scan, the same loop exact-scores every
/// live slot and the keys are rebuilt on the next bounded scan.
MoveCandidate BatchScorer::best_assign(std::span<const double> criticality,
                                       CriticalityChanges changed,
                                       std::span<const unsigned char> locked,
                                       double q_now, double pct,
                                       double crit_floor, double eps) {
  ++passes_;
  rebuild_dirty_slots();
  const LeakDeltaPricer pricer = leak_.delta_pricer(pct);
  AssignBound bound = assign_bound(pricer, q_now);
  const bool drifted = keyed_ && bound.ok && key_drift(bound) > kMaxDrift;
  stats_.drift_rekeys += drifted ? 1 : 0;
  if (!keyed_ || !bound.ok || drifted || crit_floor != floor_seen_ ||
      eps != eps_seen_ || !patch_keys(criticality, changed, locked)) {
    if (!bound.ok) {
      // Stale maxima may be all that fails the guard.
      recompute_maxima();
      bound = assign_bound(pricer, q_now);
    }
    if (bound.ok) {
      rekey_all(bound, criticality, locked, crit_floor, eps);
    } else {
      keyed_ = false;
      std::fill(dirty_flag_.begin(), dirty_flag_.end(), std::uint8_t{0});
    }
  }
  key_ratio_ = bound.ok ? key_drift(bound) : 0.0;
  const double scale = key_ratio_ * kInflate;
  stats_.unbounded += bound.ok ? 0 : 1;

  MoveCandidate best;
  double thresh = 0.0;
  std::int64_t live = 0;
  std::int64_t exact = 0;
  const auto exact_benefit = [&](std::size_t s) {
    ++exact;
    const GateLeakMoments old_m{sl_om_[s], sl_ov_[s]};
    const GateLeakMoments now_m{sl_nmean_[s], sl_nvar_[s]};
    return q_now - pricer.quantile_na(old_m, now_m);
  };
  const auto denom_of = [&](std::size_t s) {
    const double crit = std::max(criticality[s >> 1], crit_floor);
    return crit * std::max(sl_dd_[s], eps) + eps;
  };

  // Seed: the max-key slot's exact score bounds the best from below.
  std::size_t seed = key_.size();
  double seed_benefit = 0.0;
  if (bound.ok) {
    live = live_slots_;
    const auto top = std::max_element(bmax_.begin(), bmax_.end());
    if (top != bmax_.end() && *top != -kInf) {
      const std::size_t lo =
          static_cast<std::size_t>(top - bmax_.begin()) * kKeyBlock;
      seed = static_cast<std::size_t>(
          std::find(key_.begin() + static_cast<std::ptrdiff_t>(lo),
                    key_.end(), *top) -
          key_.begin());
      seed_benefit = exact_benefit(seed);
      if (seed_benefit > 0.0) {
        thresh = (seed_benefit / denom_of(seed)) * (1.0 - 1e-9);
      }
    }
  }

  for (std::size_t b = 0; b < bmax_.size(); ++b) {
    if (bound.ok && scale * bmax_[b] <= thresh) continue;
    const std::size_t lo = b * kKeyBlock;
    const std::size_t hi = std::min(lo + kKeyBlock, key_.size());
    for (std::size_t s = lo; s < hi; ++s) {
      if (bound.ok) {
        if (scale * key_[s] <= thresh) continue;
      } else {
        if (sl_alive_[s] == 0 || ((locked[s >> 1] >> (s & 1u)) & 1u) != 0) {
          continue;
        }
        ++live;
      }
      const double benefit = s == seed ? seed_benefit : exact_benefit(s);
      if (benefit > 0.0) {
        const double score = benefit / denom_of(s);
        if (score > best.score) {
          const bool hvt = (s & 1u) == 0;
          best = MoveCandidate{score, static_cast<GateId>(s >> 1), 0, hvt,
                               hvt ? 0.0 : sl_tgt_[s]};
          thresh = std::max(thresh, score);
        }
      }
    }
  }
  stats_.exact += exact;
  pruned_ += live - exact;
  blocks_ += count_blocks(live);
  return best;
}

}  // namespace statleak
