#include "abb/abb.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "mc/arena.hpp"
#include "mc/lane_draw.hpp"
#include "util/error.hpp"
#include "util/health.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace statleak {

void BodyBiasConfig::validate() const {
  STATLEAK_CHECK(k_body_v_per_v > 0.0, "body-effect strength must be > 0");
  STATLEAK_CHECK(vbb_step_v > 0.0, "bias step must be positive");
  STATLEAK_CHECK(vbb_min_v <= 0.0 && vbb_max_v >= 0.0,
                 "bias ladder must include zero bias");
}

std::vector<double> BodyBiasConfig::ladder() const {
  validate();
  std::vector<double> steps;
  for (double v = vbb_min_v; v <= vbb_max_v + 1e-12; v += vbb_step_v) {
    // Snap near-zero entries to exactly zero so the unbiased setting is in
    // the ladder.
    steps.push_back(std::abs(v) < 1e-12 ? 0.0 : v);
  }
  return steps;
}

double AbbResult::reverse_fraction() const {
  if (bias_v.empty()) return 0.0;
  std::size_t n = 0;
  for (double v : bias_v) {
    if (v < -1e-12) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(bias_v.size());
}

double AbbResult::forward_fraction() const {
  if (bias_v.empty()) return 0.0;
  std::size_t n = 0;
  for (double v : bias_v) {
    if (v > 1e-12) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(bias_v.size());
}

AbbResult run_abb_experiment(const Circuit& circuit, const CellLibrary& lib,
                             const VariationModel& var,
                             const BodyBiasConfig& abb, const McConfig& mc,
                             double t_max_ps, obs::Registry* obs) {
  abb.validate();
  var.validate();
  STATLEAK_CHECK(mc.num_samples > 0, "need at least one sample");
  STATLEAK_CHECK(t_max_ps > 0.0, "delay target must be positive");
  require_plain_mc_config(mc, "the ABB experiment");
  obs::ScopedTimer timer(obs, "abb.sweep");

  const std::vector<double> ladder = abb.ladder();
  const std::size_t n = circuit.num_gates();
  const IntraDieSigmas sigmas(var, mc_device_widths(circuit, lib));

  const auto num_samples = static_cast<std::size_t>(mc.num_samples);
  AbbResult result;
  result.dies_requested = num_samples;
  result.baseline.delay_ps.assign(num_samples, 0.0);
  result.baseline.leakage_na.assign(num_samples, 0.0);
  result.compensated.delay_ps.assign(num_samples, 0.0);
  result.compensated.leakage_na.assign(num_samples, 0.0);
  result.bias_v.assign(num_samples, 0.0);

  const int workers = resolve_num_threads(mc.num_threads);
  McArena arena;
  arena.prepare(circuit, lib, workers, obs);
  const BatchDelayKernel& delay_kernel = *arena.delay;
  const BatchLeakageKernel& leak_kernel = *arena.leak;
  const std::size_t block = resolve_batch_size(mc.batch_size, n);
  if (obs != nullptr) obs->note_config("mc.kernel_isa", to_string(arena.isa));

  // Fault-tolerance plumbing (deadline at block boundaries, per-die health
  // checks, serial compaction of partial populations) mirrors
  // run_monte_carlo; checkpointing stays a flat-MC feature.
  const Deadline deadline(mc.deadline_ms);
  std::atomic<bool> stop{false};
  const bool fail_fast = mc.health_policy == HealthPolicy::kFail;
  using SlotRun = std::pair<std::size_t, std::size_t>;
  std::vector<std::vector<SlotRun>> computed_runs(
      static_cast<std::size_t>(workers));
  // A die is healthy only when all four of its paired values are finite.
  const auto die_health = [&result](std::size_t s) -> std::uint8_t {
    return static_cast<std::uint8_t>(
        classify_health(result.baseline.delay_ps[s],
                        result.baseline.leakage_na[s]) |
        classify_health(result.compensated.delay_ps[s],
                        result.compensated.leakage_na[s]));
  };

  // Die i reuses the Monte-Carlo engine's counter-derived stream i, so the
  // baseline population is bit-identical to run_monte_carlo with the same
  // config (the experiment is paired) — for any thread count or batch size
  // of either.
  parallel_for(
      mc.num_threads, num_samples,
      [&](std::size_t begin, std::size_t end, int worker) {
        obs::LocalCounter evals(obs, "abb.sta_evals");
        obs::LocalCounter batches(obs, "abb.batches");
        obs::LocalPhase draw_time(obs, "mc.draw");
        obs::LocalPhase delay_time(obs, "mc.delay_kernel");
        obs::LocalPhase leak_time(obs, "mc.leak_kernel");
        BatchScratch& sc = arena.scratch[static_cast<std::size_t>(worker)];
        sc.resize(n, block);
        // Per-lane ladder-selection state, reused across blocks.
        std::vector<double> best_bias(block), best_leak(block),
            best_delay(block), fastest_delay(block), fastest_bias(block),
            fastest_leak(block);
        std::vector<char> any_feasible(block);
        std::size_t covered = begin;
        for (std::size_t s0 = begin; s0 < end; s0 += block) {
          if (stop.load(std::memory_order_relaxed)) break;
          if (deadline.expired()) {
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          const std::size_t lanes = std::min(block, end - s0);
          evals.add(static_cast<double>(lanes) *
                    (1.0 + static_cast<double>(ladder.size())));
          batches.add();
          draw_time.start();
          draw_block(
              arena.isa, mc.seed, s0, lanes,
              [&var](std::size_t, Rng& rng) { return sample_global(var, rng); },
              sigmas, sc.dl.data(), sc.dv.data(), block);
          draw_time.stop();
          delay_time.start();
          delay_kernel.critical_delay_block(
              sc.dl.data(), sc.dv.data(), block, lanes, mc.exact_delay,
              nullptr, sc.arrival.data(), sc.delay_out.data());
          delay_time.stop();
          leak_time.start();
          leak_kernel.total_block(sc.dl.data(), sc.dv.data(), block, lanes,
                                  nullptr, sc.leak_out.data());
          leak_time.stop();
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            result.baseline.delay_ps[s0 + lane] = sc.delay_out[lane];
            result.baseline.leakage_na[s0 + lane] = sc.leak_out[lane];
            best_bias[lane] = ladder.front();
            best_leak[lane] = std::numeric_limits<double>::infinity();
            best_delay[lane] = std::numeric_limits<double>::infinity();
            any_feasible[lane] = 0;
            fastest_delay[lane] = std::numeric_limits<double>::infinity();
            fastest_bias[lane] = 0.0;
            fastest_leak[lane] = 0.0;
          }
          // Sweep the ladder: min leakage subject to delay <= T; if nothing
          // meets T, the fastest (most forward) setting. The whole block
          // shares each ladder step, applied as a uniform dVth shift inside
          // the kernels.
          for (double vbb : ladder) {
            const double dvth = -abb.k_body_v_per_v * vbb;
            delay_time.start();
            delay_kernel.critical_delay_block(
                sc.dl.data(), sc.dv.data(), block, lanes, mc.exact_delay,
                &dvth, sc.arrival.data(), sc.delay_out.data());
            delay_time.stop();
            leak_time.start();
            leak_kernel.total_block(sc.dl.data(), sc.dv.data(), block, lanes,
                                    &dvth, sc.leak_out.data());
            leak_time.stop();
            for (std::size_t lane = 0; lane < lanes; ++lane) {
              const double delay = sc.delay_out[lane];
              const double leak = sc.leak_out[lane];
              if (delay < fastest_delay[lane]) {
                fastest_delay[lane] = delay;
                fastest_bias[lane] = vbb;
                fastest_leak[lane] = leak;
              }
              if (delay <= t_max_ps && leak < best_leak[lane]) {
                any_feasible[lane] = 1;
                best_leak[lane] = leak;
                best_bias[lane] = vbb;
                best_delay[lane] = delay;
              }
            }
          }
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            if (!any_feasible[lane]) {
              best_bias[lane] = fastest_bias[lane];
              best_delay[lane] = fastest_delay[lane];
              best_leak[lane] = fastest_leak[lane];
            }
            result.compensated.delay_ps[s0 + lane] = best_delay[lane];
            result.compensated.leakage_na[s0 + lane] = best_leak[lane];
            result.bias_v[s0 + lane] = best_bias[lane];
            if (fail_fast) {
              const std::uint8_t cause = die_health(s0 + lane);
              if (cause != 0) {
                stop.store(true, std::memory_order_relaxed);
                throw_sample_health(s0 + lane, cause);
              }
            }
          }
          covered = s0 + lanes;
        }
        if (covered > begin) {
          computed_runs[static_cast<std::size_t>(worker)].emplace_back(
              begin, covered);
        }
        draw_time.flush();
        delay_time.flush();
        leak_time.flush();
      });

  // Serial finalize: paired compaction — a die survives into baseline,
  // compensated and bias arrays together or not at all.
  std::vector<std::uint8_t> done(num_samples, 0);
  for (const auto& runs : computed_runs) {
    for (const SlotRun& r : runs) {
      std::fill(done.begin() + static_cast<std::ptrdiff_t>(r.first),
                done.begin() + static_cast<std::ptrdiff_t>(r.second), 1);
    }
  }
  std::size_t done_count = 0;
  for (std::uint8_t d : done) done_count += d;
  result.dies_done = done_count;
  result.completed = done_count == num_samples;
  result.baseline.samples_requested = num_samples;
  result.compensated.samples_requested = num_samples;
  std::vector<QuarantinedSample> quarantined;
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (done[s] == 0) continue;
    const std::uint8_t cause = die_health(s);
    if (cause == 0) continue;
    if (fail_fast) throw_sample_health(s, cause);
    quarantined.push_back(
        {static_cast<std::uint64_t>(s), static_cast<HealthCause>(cause)});
  }
  if (!result.completed || !quarantined.empty()) {
    std::size_t q = 0;
    std::size_t out = 0;
    for (std::size_t s = 0; s < num_samples; ++s) {
      if (done[s] == 0) continue;
      if (q < quarantined.size() && quarantined[q].slot == s) {
        ++q;
        continue;
      }
      result.baseline.delay_ps[out] = result.baseline.delay_ps[s];
      result.baseline.leakage_na[out] = result.baseline.leakage_na[s];
      result.compensated.delay_ps[out] = result.compensated.delay_ps[s];
      result.compensated.leakage_na[out] = result.compensated.leakage_na[s];
      result.bias_v[out] = result.bias_v[s];
      ++out;
    }
    result.baseline.delay_ps.resize(out);
    result.baseline.leakage_na.resize(out);
    result.compensated.delay_ps.resize(out);
    result.compensated.leakage_na.resize(out);
    result.bias_v.resize(out);
  }
  result.baseline.completed = result.completed;
  result.compensated.completed = result.completed;
  result.baseline.samples_done = done_count;
  result.compensated.samples_done = done_count;
  result.baseline.quarantined = quarantined;
  result.compensated.quarantined = std::move(quarantined);

  if (obs != nullptr) {
    obs->add("abb.dies", static_cast<double>(result.bias_v.size()));
    if (!result.compensated.quarantined.empty()) {
      obs->add("abb.quarantined",
               static_cast<double>(result.compensated.quarantined.size()));
    }
    if (!result.completed) {
      obs->add("abb.dies_done", static_cast<double>(result.dies_done));
      obs->mark_incomplete("deadline");
    }
  }
  return result;
}

}  // namespace statleak
