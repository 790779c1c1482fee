#include "mc/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "mc/checkpoint.hpp"
#include "mc/sample_loop.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sobol.hpp"

namespace statleak {

const char* to_string(McSampler sampler) {
  switch (sampler) {
    case McSampler::kPseudo: return "pseudo";
    case McSampler::kSobol: return "sobol";
  }
  return "unknown";
}

double McResult::ess() const {
  if (weights.empty()) return static_cast<double>(delay_ps.size());
  return effective_sample_size(weights);
}

double McResult::timing_yield(double t_max_ps) const {
  STATLEAK_CHECK(!delay_ps.empty(), "no samples");
  if (!weights.empty()) {
    return weighted_fraction_below(delay_ps, weights, t_max_ps);
  }
  std::size_t pass = 0;
  for (double d : delay_ps) {
    if (d <= t_max_ps) ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(delay_ps.size());
}

double McResult::combined_yield(double t_max_ps, double leak_cap_na) const {
  STATLEAK_CHECK(!delay_ps.empty(), "no samples");
  STATLEAK_CHECK(delay_ps.size() == leakage_na.size(),
                 "delay/leakage sample mismatch");
  if (!weights.empty()) {
    // Encode the joint indicator (pass = 0, fail = 1) and reuse the
    // lower-variance-side unnormalized fraction estimator.
    std::vector<double> fail(delay_ps.size());
    for (std::size_t i = 0; i < delay_ps.size(); ++i) {
      fail[i] = delay_ps[i] <= t_max_ps && leakage_na[i] <= leak_cap_na
                    ? 0.0
                    : 1.0;
    }
    return weighted_fraction_below(fail, weights, 0.5);
  }
  std::size_t pass = 0;
  for (std::size_t i = 0; i < delay_ps.size(); ++i) {
    if (delay_ps[i] <= t_max_ps && leakage_na[i] <= leak_cap_na) ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(delay_ps.size());
}

double McResult::yield_stderr(double t_max_ps) const {
  if (!weights.empty()) {
    // Standard error of the unnormalized estimator on its quieter side —
    // the same side timing_yield() reports.
    return weighted_fraction_below_est(delay_ps, weights, t_max_ps)
        .std_error;
  }
  const double y = timing_yield(t_max_ps);
  const auto n = static_cast<double>(delay_ps.size());
  return std::sqrt(std::max(0.0, y * (1.0 - y) / n));
}

double McResult::leakage_quantile_na(double p) const {
  if (!weights.empty()) return weighted_quantile(leakage_na, weights, p);
  return quantile(leakage_na, p);
}

double McResult::delay_quantile_ps(double p) const {
  if (!weights.empty()) return weighted_quantile(delay_ps, weights, p);
  return quantile(delay_ps, p);
}

double McResult::leakage_mean_ci_na(double confidence) const {
  if (!weights.empty()) {
    return weighted_mean_ci_halfwidth(leakage_na, weights, confidence);
  }
  return mean_ci_halfwidth(leakage_na, confidence);
}

double McResult::delay_mean_ci_ps(double confidence) const {
  if (!weights.empty()) {
    return weighted_mean_ci_halfwidth(delay_ps, weights, confidence);
  }
  return mean_ci_halfwidth(delay_ps, confidence);
}

double McResult::cv_beta() const {
  STATLEAK_CHECK(!cv_proxy_na.empty(),
                 "control variate was not enabled for this run");
  STATLEAK_CHECK(cv_proxy_na.size() == leakage_na.size(),
                 "proxy/sample mismatch");
  const std::size_t m = leakage_na.size();
  if (m < 2) return 0.0;
  const double ly = mean_of(leakage_na);
  const double lx = mean_of(cv_proxy_na);
  double cov = 0.0;
  double var = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double dx = cv_proxy_na[i] - lx;
    cov += dx * (leakage_na[i] - ly);
    var += dx * dx;
  }
  if (var <= 0.0) return 0.0;
  return cov / var;
}

double McResult::cv_leakage_mean_na() const {
  const double beta = cv_beta();
  return mean_of(leakage_na) - beta * (mean_of(cv_proxy_na) -
                                       cv_proxy_mean_na);
}

double McResult::cv_leakage_quantile_na(double p) const {
  const double beta = cv_beta();
  std::vector<double> corrected(leakage_na.size());
  for (std::size_t i = 0; i < leakage_na.size(); ++i) {
    corrected[i] =
        leakage_na[i] - beta * (cv_proxy_na[i] - cv_proxy_mean_na);
  }
  return quantile(corrected, p);
}

namespace {

/// Entry validation shared by the full-run, shard and finalize paths.
void validate_mc_config(const VariationModel& var, const McConfig& config) {
  STATLEAK_CHECK(config.num_samples > 0, "need at least one sample");
  var.validate();
  STATLEAK_CHECK(!(config.control_variate && config.is_shift.active()),
                 "control variate and importance sampling cannot be "
                 "combined: the conditional-mean proxy assumes the nominal "
                 "global distribution");
  STATLEAK_CHECK(std::isfinite(config.is_shift.l_sigma) &&
                     std::isfinite(config.is_shift.v_sigma),
                 "importance shift must be finite");
  if (config.is_shift.l_sigma != 0.0) {
    STATLEAK_CHECK(var.sigma_l_inter_nm > 0.0,
                   "importance shift on dL requires a nonzero inter-die "
                   "length sigma");
  }
  if (config.is_shift.v_sigma != 0.0) {
    STATLEAK_CHECK(var.sigma_vth_inter_v > 0.0,
                   "importance shift on dVth requires a nonzero inter-die "
                   "Vth sigma");
  }
}

/// Computes the slots of `range` with the flat engine's draw (see
/// run_mc_blocks), reporting computed runs to `sink`.
void run_sample_range(const Circuit& circuit, const CellLibrary& lib,
                      const VariationModel& var, const McConfig& config,
                      const McSlotRange& range, const McBlockSink& sink,
                      obs::Registry* obs, McArena* arena = nullptr) {
  run_mc_blocks(
      circuit, lib, config, range,
      {.batches = "mc.batches", .evals = "mc.sta_evals"},
      FlatDraw(circuit, lib, var, config), [](const McBlock&) {},
      [&range](std::size_t i) {
        return classify_health(range.delay[i], range.leak[i]);
      },
      sink, obs, arena);
}

}  // namespace

std::vector<double> mc_device_widths(const Circuit& circuit,
                                     const CellLibrary& lib) {
  const std::size_t n = circuit.num_gates();
  std::vector<double> widths(n, -1.0);
  for (std::size_t id = 0; id < n; ++id) {
    const Gate& g = circuit.gate(static_cast<GateId>(id));
    if (g.kind != CellKind::kInput) widths[id] = lib.area_um(g.kind, g.size);
  }
  return widths;
}

void require_plain_mc_config(const McConfig& config, const char* engine) {
  const std::string who(engine);
  STATLEAK_CHECK(config.sampler == McSampler::kPseudo,
                 who + " supports only the pseudo-random sampler");
  STATLEAK_CHECK(!config.is_shift.active(),
                 who + " does not support importance sampling");
  STATLEAK_CHECK(!config.control_variate,
                 who + " does not support the control variate");
  STATLEAK_CHECK(config.checkpoint_path.empty(),
                 who + " does not support checkpointing");
}

McResult run_monte_carlo(const Circuit& circuit, const CellLibrary& lib,
                         const VariationModel& var, const McConfig& config,
                         obs::Registry* obs, McArena* arena) {
  validate_mc_config(var, config);
  obs::ScopedTimer timer(obs, "mc.samples");

  const auto num_samples = static_cast<std::size_t>(config.num_samples);
  McPopulation pop;
  pop.delay_ps.assign(num_samples, 0.0);
  pop.leakage_na.assign(num_samples, 0.0);
  pop.done.assign(num_samples, 0);

  // --- checkpoint restore ---------------------------------------------------
  // Slots marked done on entry came from the checkpoint; the loop skips
  // them. Restored values are bitwise what this run would compute (the
  // config hash pins every input to the sample), so a resumed run equals an
  // uninterrupted one exactly.
  std::unique_ptr<CheckpointWriter> writer;
  if (!config.checkpoint_path.empty()) {
    const std::vector<double> widths = mc_device_widths(circuit, lib);
    const std::uint64_t hash =
        mc_checkpoint_hash(circuit, var, config, widths, lib.node());
    if (checkpoint_exists(config.checkpoint_path)) {
      CheckpointData data =
          load_checkpoint(config.checkpoint_path, hash, num_samples);
      pop.done = std::move(data.done);
      pop.delay_ps = std::move(data.delay_ps);
      pop.leakage_na = std::move(data.leakage_na);
      pop.samples_restored = data.done_count;
      writer = CheckpointWriter::resume(config.checkpoint_path, hash,
                                        num_samples);
    } else {
      writer = CheckpointWriter::create(config.checkpoint_path, hash,
                                        num_samples);
    }
  }

  // Computed runs go to the checkpoint file. Spans point into the
  // slot-indexed population vectors, which stay full-size until finalize
  // compacts them.
  McBlockSink sink;
  if (writer != nullptr) {
    sink = [&writer](std::uint64_t begin, std::span<const double> delay,
                     std::span<const double> leak) {
      writer->append(begin, delay, leak);
    };
  }
  run_sample_range(circuit, lib, var, config,
                   {0, num_samples, pop.delay_ps.data(),
                    pop.leakage_na.data(), pop.done.data()},
                   sink, obs, arena);
  return finalize_mc_population(circuit, lib, var, config, std::move(pop),
                                obs);
}

McShardResult run_monte_carlo_shard(const Circuit& circuit,
                                    const CellLibrary& lib,
                                    const VariationModel& var,
                                    const McConfig& config,
                                    std::uint64_t begin, std::uint64_t end,
                                    const McBlockSink& sink,
                                    obs::Registry* obs) {
  validate_mc_config(var, config);
  const auto num_samples = static_cast<std::uint64_t>(config.num_samples);
  STATLEAK_CHECK(begin < end && end <= num_samples,
                 "shard range [" + std::to_string(begin) + ", " +
                     std::to_string(end) + ") must be a non-empty range in " +
                     std::to_string(num_samples) + " samples");
  obs::ScopedTimer timer(obs, "mc.samples");

  McShardResult res;
  res.begin = begin;
  res.end = end;
  const std::size_t range = static_cast<std::size_t>(end - begin);
  res.delay_ps.assign(range, 0.0);
  res.leakage_na.assign(range, 0.0);
  res.done.assign(range, 0);

  run_sample_range(circuit, lib, var, config,
                   {static_cast<std::size_t>(begin),
                    static_cast<std::size_t>(end), res.delay_ps.data(),
                    res.leakage_na.data(), res.done.data()},
                   sink, obs);

  res.samples_done = static_cast<std::uint64_t>(
      std::count(res.done.begin(), res.done.end(), std::uint8_t{1}));
  res.completed = res.samples_done == range;
  return res;
}

McResult finalize_mc_population(const Circuit& circuit, const CellLibrary& lib,
                                const VariationModel& var,
                                const McConfig& config, McPopulation&& pop,
                                obs::Registry* obs) {
  validate_mc_config(var, config);
  const auto num_samples = static_cast<std::size_t>(config.num_samples);
  STATLEAK_CHECK(pop.delay_ps.size() == num_samples &&
                     pop.leakage_na.size() == num_samples &&
                     pop.done.size() == num_samples,
                 "population vectors must be slot-indexed over num_samples");

  McResult result;
  result.samples_restored = pop.samples_restored;
  result.delay_ps = std::move(pop.delay_ps);
  result.leakage_na = std::move(pop.leakage_na);
  const std::vector<std::uint8_t> done = std::move(pop.done);

  // The health scan covers restored values too (a checkpoint may carry
  // poisoned samples from a quarantining producer). Under kFail the sample
  // loop already threw for freshly computed samples, so it only fires for
  // restored or merged-in ones.
  settle_population(
      done, config.health_policy,
      [&result](std::size_t s) {
        return classify_health(result.delay_ps[s], result.leakage_na[s]);
      },
      result);

  // --- estimator side-channels ---------------------------------------------
  // Importance weights and control-variate proxies are recomputed here,
  // serially, from the slot index alone: either sampler makes the global
  // deviates of slot s a pure function of (seed, s). That keeps the hot
  // loops untouched, makes this pass bit-identical for any thread count,
  // batch size, or resume history, and spares the checkpoint format from
  // storing weights at all. Both vectors are built survivor-aligned.
  const IsShift shift = config.is_shift;
  if (shift.active() || config.control_variate) {
    std::optional<SobolSequence> sobol_seq;
    if (config.sampler == McSampler::kSobol) sobol_seq.emplace(config.seed);
    const SobolSequence* qmc = sobol_seq ? &*sobol_seq : nullptr;
    std::optional<CvLeakageModel> cv;
    if (config.control_variate) {
      cv.emplace(circuit, lib, var);
      result.cv_proxy_mean_na = cv->analytic_mean_na();
      result.cv_proxy_na.reserve(result.samples_done);
    }
    if (shift.active()) result.weights.reserve(result.samples_done);
    for_each_survivor(done, result.quarantined, [&](std::size_t s) {
      double zl;
      double zv;
      if (qmc != nullptr) {
        zl = qmc->normal(s, 0);
        zv = qmc->normal(s, 1);
      } else {
        Rng rng = Rng::stream(config.seed, s);
        zl = rng.normal();
        zv = rng.normal();
      }
      if (shift.active()) {
        result.weights.push_back(std::exp(shift.log_weight(zl, zv)));
      }
      if (cv) {
        // No shift here — CV excludes IS — so the physical draw is just
        // the scaled deviate.
        const GlobalSample g{var.sigma_l_inter_nm * zl,
                             var.sigma_vth_inter_v * zv};
        result.cv_proxy_na.push_back(cv->proxy_na(g));
      }
    });
  }

  if (obs != nullptr) {
    obs->add("mc.samples", static_cast<double>(result.delay_ps.size()));
    obs->note_config("mc.sampler", to_string(config.sampler));
    if (!result.delay_ps.empty()) {
      obs->set_gauge("mc.ess", result.ess());
      obs->set_gauge("mc.leakage_mean_ci_na", result.leakage_mean_ci_na());
      obs->set_gauge("mc.delay_mean_ci_ps", result.delay_mean_ci_ps());
      if (config.control_variate) {
        obs->set_gauge("mc.cv_beta", result.cv_beta());
        obs->set_gauge("mc.cv_leakage_mean_na", result.cv_leakage_mean_na());
      }
    }
    if (!result.quarantined.empty()) {
      std::size_t bad_delay = 0;
      std::size_t bad_leak = 0;
      for (const QuarantinedSample& qs : result.quarantined) {
        const auto bits = static_cast<std::uint8_t>(qs.cause);
        if ((bits &
             static_cast<std::uint8_t>(HealthCause::kNonFiniteDelay)) != 0) {
          ++bad_delay;
        }
        if ((bits &
             static_cast<std::uint8_t>(HealthCause::kNonFiniteLeakage)) !=
            0) {
          ++bad_leak;
        }
      }
      obs->add("mc.quarantined",
               static_cast<double>(result.quarantined.size()));
      obs->add("mc.quarantined.nonfinite_delay",
               static_cast<double>(bad_delay));
      obs->add("mc.quarantined.nonfinite_leakage",
               static_cast<double>(bad_leak));
    }
    if (!result.completed) {
      obs->add("mc.samples_done", static_cast<double>(result.samples_done));
      obs->mark_incomplete("deadline");
    }
    // Progress milestones, reconstructed serially from the (already
    // deterministic) surviving samples with running sums: identical for
    // any thread count or batch size.
    const std::size_t survivors = result.delay_ps.size();
    if (survivors > 0) {
      const std::size_t stride = std::max<std::size_t>(1, survivors / 16);
      double delay_sum = 0.0;
      double leak_sum = 0.0;
      for (std::size_t s = 0; s < survivors; ++s) {
        delay_sum += result.delay_ps[s];
        leak_sum += result.leakage_na[s];
        if ((s + 1) % stride == 0 || s + 1 == survivors) {
          obs::TraceEvent e;
          e.step = static_cast<std::int64_t>(s + 1);
          e.phase = "samples";
          e.objective = leak_sum / static_cast<double>(s + 1);
          e.delay_ps = delay_sum / static_cast<double>(s + 1);
          obs->trace("mc", std::move(e));
        }
      }
    }
  }
  return result;
}

}  // namespace statleak
