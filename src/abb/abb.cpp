#include "abb/abb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mc/sample_loop.hpp"
#include "util/error.hpp"
#include "util/health.hpp"

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
  const auto num_samples = static_cast<std::size_t>(mc.num_samples);
  AbbResult result;
  McResult& base = result.baseline;
  McResult& comp = result.compensated;
  base.delay_ps.assign(num_samples, 0.0);
  base.leakage_na.assign(num_samples, 0.0);
  comp.delay_ps.assign(num_samples, 0.0);
  comp.leakage_na.assign(num_samples, 0.0);
  result.bias_v.assign(num_samples, 0.0);
  std::vector<std::uint8_t> done(num_samples, 0);

  // Sweeps the ladder over a block: per die, the minimum-leakage setting
  // with delay <= T; if no setting meets T, the fastest one. The whole
  // block shares each ladder step, applied as a uniform dVth shift inside
  // the kernels. The running pick lives in the compensated arrays. It is
  // feasible exactly when its delay meets T with finite leakage (a pick is
  // only replaced by a feasible step or, while none was, by a faster one),
  // so the sweep needs no other per-die state.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto feasible = [t_max_ps](double delay, double leak) {
    return delay <= t_max_ps && leak < kInf;
  };
  const auto sweep_ladder = [&](const McBlock& b) {
    const std::size_t s0 = b.local;
    std::fill_n(comp.delay_ps.begin() + s0, b.lanes, kInf);
    std::fill_n(comp.leakage_na.begin() + s0, b.lanes, 0.0);
    std::fill_n(result.bias_v.begin() + s0, b.lanes, 0.0);
    for (double vbb : ladder) {
      const double dvth = -abb.k_body_v_per_v * vbb;
      b.evaluate(&dvth);
      for (std::size_t lane = 0; lane < b.lanes; ++lane) {
        const std::size_t s = s0 + lane;
        const double delay = b.sc.delay_out[lane];
        const double leak = b.sc.leak_out[lane];
        const bool have = feasible(comp.delay_ps[s], comp.leakage_na[s]);
        if (feasible(delay, leak) ? !have || leak < comp.leakage_na[s]
                                  : !have && delay < comp.delay_ps[s]) {
          comp.delay_ps[s] = delay;
          comp.leakage_na[s] = leak;
          result.bias_v[s] = vbb;
        }
      }
    }
  };
  // A die is healthy only when all four of its paired values are finite.
  const auto die_health = [&base, &comp](std::size_t s) -> std::uint8_t {
    return static_cast<std::uint8_t>(
        classify_health(base.delay_ps[s], base.leakage_na[s]) |
        classify_health(comp.delay_ps[s], comp.leakage_na[s]));
  };

  // Die i is the Monte-Carlo engine's die i (same draw, same stream), so the
  // baseline population is bit-identical to run_monte_carlo with the same
  // config (the experiment is paired) — for any thread count or batch size
  // of either.
  run_mc_blocks(circuit, lib, mc,
                {0, num_samples, base.delay_ps.data(), base.leakage_na.data(),
                 done.data()},
                {.batches = "abb.batches",
                 .evals = "abb.sta_evals",
                 .evals_per_lane = 1.0 + static_cast<double>(ladder.size())},
                FlatDraw(circuit, lib, var, mc), sweep_ladder, die_health, {},
                obs);

  // A die survives into baseline, compensated and bias together or not at
  // all; the compensated population shares the baseline's accounting.
  settle_population(done, mc.health_policy, die_health, base,
                    {&comp.delay_ps, &comp.leakage_na, &result.bias_v});
  comp.samples_requested = base.samples_requested;
  comp.samples_done = base.samples_done;
  comp.completed = base.completed;
  comp.quarantined = base.quarantined;
  result.completed = base.completed;
  result.dies_requested = base.samples_requested;
  result.dies_done = base.samples_done;

  if (obs != nullptr) {
    obs->add("abb.dies", static_cast<double>(result.bias_v.size()));
    if (!comp.quarantined.empty()) {
      obs->add("abb.quarantined",
               static_cast<double>(comp.quarantined.size()));
    }
    if (!result.completed) {
      obs->add("abb.dies_done", static_cast<double>(result.dies_done));
      obs->mark_incomplete("deadline");
    }
  }
  return result;
}

}  // namespace statleak
