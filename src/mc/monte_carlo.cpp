#include "mc/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "leakage/batch_leakage.hpp"
#include "mc/arena.hpp"
#include "mc/batch.hpp"
#include "mc/checkpoint.hpp"
#include "mc/lane_draw.hpp"
#include "sta/batch_delay.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
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

/// Contiguous range of slots one worker computed, in shard order.
using SlotRun = std::pair<std::size_t, std::size_t>;  // [begin, end)

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

/// Computes slots [first, last) of the population, writing slot s to
/// delay_out[s - first] / leak_out[s - first]. `restored` (nullable,
/// local-indexed like the outputs) marks slots to skip. `flush(worker,
/// begin, end)` reports computed *global*-slot runs at
/// McConfig::checkpoint_every cadence and at shard boundaries; the range
/// is itself sharded over config.num_threads. Slot values depend only on
/// (seed, slot), never on the range cut, thread count or batch size — the
/// property every distributed-merge guarantee rests on.
void run_sample_range(
    const Circuit& circuit, const CellLibrary& lib, const VariationModel& var,
    const McConfig& config, std::size_t first, std::size_t last,
    const std::uint8_t* restored, double* delay_out, double* leak_out,
    const std::function<void(int, std::size_t, std::size_t)>& flush,
    obs::Registry* obs, McArena* arena = nullptr) {
  // Scrambled-Sobol points for the two global dimensions; the intra-die
  // draws always stay on the per-sample pseudo-random streams. Point s is a
  // pure function of (seed, s), same determinism contract as Rng::stream.
  std::optional<SobolSequence> sobol_seq;
  if (config.sampler == McSampler::kSobol) sobol_seq.emplace(config.seed);
  const SobolSequence* qmc = sobol_seq ? &*sobol_seq : nullptr;

  // One global draw for slot s. The historical pseudo path must keep the
  // exact sample_global() call so existing seeds reproduce bit-for-bit;
  // the general path draws standardized deviates (Sobol point or the same
  // two stream normals), applies the standardized importance shift, and
  // scales. With pseudo + shift the stream consumes the same two normals
  // as before, so the per-gate draws that follow are unchanged. The
  // kNanDeviate fault point poisons the die's dVth.
  const IsShift shift = config.is_shift;
  const bool legacy_draw = qmc == nullptr && !shift.active();
  const auto draw_global = [&var, &shift, qmc, legacy_draw](
                               std::size_t s, Rng& rng) -> GlobalSample {
    GlobalSample die;
    if (legacy_draw) {
      die = sample_global(var, rng);
    } else {
      const double zl = qmc != nullptr ? qmc->normal(s, 0) : rng.normal();
      const double zv = qmc != nullptr ? qmc->normal(s, 1) : rng.normal();
      die = {var.sigma_l_inter_nm * (zl + shift.l_sigma),
             var.sigma_vth_inter_v * (zv + shift.v_sigma)};
    }
    if (STATLEAK_FAULT_FIRES(fault::Point::kNanDeviate, s)) {
      die.dvth_v = std::numeric_limits<double>::quiet_NaN();
    }
    return die;
  };

  const std::size_t n = circuit.num_gates();
  const IntraDieSigmas sigmas(var, mc_device_widths(circuit, lib));
  const std::size_t range = last - first;
  const std::size_t flush_every = static_cast<std::size_t>(
      std::max(1, config.checkpoint_every));
  const int workers = resolve_num_threads(config.num_threads);

  // --- fault-tolerant loop plumbing ----------------------------------------
  const Deadline deadline(config.deadline_ms);
  std::atomic<bool> stop{false};
  const bool fail_fast = config.health_policy == HealthPolicy::kFail;

  // Reports [run_begin, run_end) (in local coordinates) as global slots.
  const auto flush_run = [&flush, first](int worker, std::size_t run_begin,
                                         std::size_t run_end) {
    if (run_end <= run_begin) return;
    flush(worker, first + run_begin, first + run_end);
  };

  // Freeze the implementation point into SoA form and hoist every per-gate
  // model constant out of the sample loop. With a caller-owned arena the
  // snapshot survives across calls: the FlatCircuit is rebuilt only when
  // the circuit changes, and the kernels are rebind()-ed — constants
  // recomputed from the current library, table allocations kept. A
  // rebind()-ed kernel computes the exact bits of a fresh one, so arena
  // reuse is invisible in the output.
  McArena local_arena;
  McArena& ar = arena != nullptr ? *arena : local_arena;
  ar.prepare(circuit, lib, workers, obs);
  const BatchDelayKernel& delay_kernel = *ar.delay;
  const BatchLeakageKernel& leak_kernel = *ar.leak;
  const std::size_t block = resolve_batch_size(config.batch_size, n);
  if (obs != nullptr) obs->note_config("mc.kernel_isa", to_string(ar.isa));

  // Sample i draws exclusively from its counter-derived stream and writes
  // slot i of the output arrays, so shard boundaries (and hence the
  // thread count) cannot change a single bit of the output. Lanes of one
  // block are just consecutive samples evaluated together — they never
  // interact — so the batch size cannot either.
  parallel_for(
      config.num_threads, range,
      [&](std::size_t begin, std::size_t end, int worker) {
        // Per-thread accumulation: one registry merge per shard, so the
        // workers never contend on the registry mutex inside the loop.
        obs::LocalCounter evals(obs, "mc.sta_evals");
        obs::LocalCounter batches(obs, "mc.batches");
        obs::LocalPhase draw_time(obs, "mc.draw");
        obs::LocalPhase delay_time(obs, "mc.delay_kernel");
        obs::LocalPhase leak_time(obs, "mc.leak_kernel");
        BatchScratch& sc = ar.scratch[static_cast<std::size_t>(worker)];
        sc.resize(n, block);
        std::size_t run_begin = begin;  // first unflushed computed slot
        std::size_t covered = begin;    // end of processed region
        for (std::size_t s0 = begin; s0 < end; s0 += block) {
          if (stop.load(std::memory_order_relaxed)) break;
          if (deadline.expired()) {
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          const std::size_t lanes = std::min(block, end - s0);
          // A fully restored block is skipped outright. Partially restored
          // blocks (possible when a checkpoint record ends mid-block) are
          // recomputed whole — the recomputed values are bitwise identical,
          // so correctness never depends on the cut. With batch_size = 1
          // every restored slot is skipped on its own.
          bool all_restored = restored != nullptr;
          for (std::size_t lane = 0; lane < lanes && all_restored; ++lane) {
            all_restored = restored[s0 + lane] != 0;
          }
          if (all_restored) {
            flush_run(worker, run_begin, s0);
            run_begin = s0 + lanes;
            covered = s0 + lanes;
            continue;
          }
          STATLEAK_FAULT_STALL(fault::Point::kShardStall, first + s0);
          draw_time.start();
          draw_block(ar.isa, config.seed, first + s0, lanes, draw_global,
                     sigmas, sc.dl.data(), sc.dv.data(), block);
          draw_time.stop();
          delay_time.start();
          delay_kernel.critical_delay_block(
              sc.dl.data(), sc.dv.data(), block, lanes, config.exact_delay,
              nullptr, sc.arrival.data(), sc.delay_out.data());
          delay_time.stop();
          leak_time.start();
          leak_kernel.total_block(sc.dl.data(), sc.dv.data(), block, lanes,
                                  nullptr, sc.leak_out.data());
          leak_time.stop();
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            delay_out[s0 + lane] = sc.delay_out[lane];
            leak_out[s0 + lane] = sc.leak_out[lane];
            if (fail_fast) {
              const std::uint8_t cause =
                  classify_health(sc.delay_out[lane], sc.leak_out[lane]);
              if (cause != 0) {
                stop.store(true, std::memory_order_relaxed);
                throw_sample_health(first + s0 + lane, cause);
              }
            }
          }
          evals.add(static_cast<double>(lanes));
          batches.add();
          covered = s0 + lanes;
          if (covered - run_begin >= flush_every) {
            flush_run(worker, run_begin, covered);
            run_begin = covered;
          }
        }
        flush_run(worker, run_begin, covered);
        // Merged in pipeline order, so the report lists them that way.
        draw_time.flush();
        delay_time.flush();
        leak_time.flush();
      });
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

  // --- checkpoint restore ---------------------------------------------------
  // `restored[s] != 0` marks slots whose values came from the checkpoint;
  // the loop skips them and the finalize pass counts them as done. Restored
  // values are bitwise what this run would compute (the config hash pins
  // every input to the sample), so a resumed run equals an uninterrupted
  // one exactly.
  std::vector<std::uint8_t> restored(num_samples, 0);
  std::unique_ptr<CheckpointWriter> writer;
  if (!config.checkpoint_path.empty()) {
    const std::vector<double> widths = mc_device_widths(circuit, lib);
    const std::uint64_t hash =
        mc_checkpoint_hash(circuit, var, config, widths, lib.node());
    if (checkpoint_exists(config.checkpoint_path)) {
      CheckpointData data =
          load_checkpoint(config.checkpoint_path, hash, num_samples);
      restored = std::move(data.done);
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

  const int workers = resolve_num_threads(config.num_threads);

  // Each worker records the contiguous slot ranges it actually computed
  // (restored slots break ranges); the same ranges drive checkpoint record
  // appends. Indexed by worker — no locking.
  std::vector<std::vector<SlotRun>> computed_runs(
      static_cast<std::size_t>(workers));

  // Appends [run_begin, run_end) to the worker's log and — when
  // checkpointing — to the file. Spans point into the slot-indexed
  // population vectors, which stay full-size until finalize compacts them.
  const auto flush_run = [&](int worker, std::size_t run_begin,
                             std::size_t run_end) {
    computed_runs[static_cast<std::size_t>(worker)].emplace_back(run_begin,
                                                                 run_end);
    if (writer != nullptr) {
      const std::size_t count = run_end - run_begin;
      writer->append(run_begin,
                     std::span<const double>(pop.delay_ps)
                         .subspan(run_begin, count),
                     std::span<const double>(pop.leakage_na)
                         .subspan(run_begin, count));
    }
  };

  run_sample_range(circuit, lib, var, config, 0, num_samples, restored.data(),
                   pop.delay_ps.data(), pop.leakage_na.data(), flush_run, obs,
                   arena);

  // Done mask = restored slots + everything the workers logged. Ranges may
  // overlap restored slots (recomputed partial blocks); the mask dedups.
  pop.done = std::move(restored);
  for (const auto& runs : computed_runs) {
    for (const SlotRun& r : runs) {
      std::fill(pop.done.begin() + static_cast<std::ptrdiff_t>(r.first),
                pop.done.begin() + static_cast<std::ptrdiff_t>(r.second), 1);
    }
  }
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

  // Concurrent flushes touch disjoint slot ranges of `done` and the value
  // arrays, so no lock is needed for them; only the caller's sink must be
  // thread-safe (documented on McBlockSink).
  const auto flush_run = [&](int /*worker*/, std::size_t gbegin,
                             std::size_t gend) {
    const std::size_t lo = static_cast<std::size_t>(gbegin - begin);
    const std::size_t count = gend - gbegin;
    std::fill(res.done.begin() + static_cast<std::ptrdiff_t>(lo),
              res.done.begin() + static_cast<std::ptrdiff_t>(lo + count), 1);
    if (sink) {
      sink(gbegin,
           std::span<const double>(res.delay_ps).subspan(lo, count),
           std::span<const double>(res.leakage_na).subspan(lo, count));
    }
  };

  run_sample_range(circuit, lib, var, config, begin, end, nullptr,
                   res.delay_ps.data(), res.leakage_na.data(), flush_run,
                   obs);

  std::size_t done_count = 0;
  for (std::uint8_t d : res.done) done_count += d;
  res.samples_done = done_count;
  res.completed = done_count == range;
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
  result.samples_requested = num_samples;
  result.samples_restored = pop.samples_restored;
  result.delay_ps = std::move(pop.delay_ps);
  result.leakage_na = std::move(pop.leakage_na);
  const std::vector<std::uint8_t> done = std::move(pop.done);

  std::size_t done_count = 0;
  for (std::uint8_t d : done) done_count += d;
  result.samples_done = done_count;
  result.completed = done_count == num_samples;

  // Health scan over every done slot — covers restored values too (a
  // checkpoint may carry poisoned samples from a quarantining producer).
  // Under kFail the sample loop already threw for freshly computed samples,
  // so this only fires for restored or merged-in ones.
  const bool fail_fast = config.health_policy == HealthPolicy::kFail;
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (done[s] == 0) continue;
    const std::uint8_t cause =
        classify_health(result.delay_ps[s], result.leakage_na[s]);
    if (cause == 0) continue;
    if (fail_fast) throw_sample_health(s, cause);
    result.quarantined.push_back(
        {static_cast<std::uint64_t>(s), static_cast<HealthCause>(cause)});
  }

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
    std::size_t q = 0;  // cursor into the slot-ordered quarantine list
    for (std::size_t s = 0; s < num_samples; ++s) {
      if (done[s] == 0) continue;
      if (q < result.quarantined.size() && result.quarantined[q].slot == s) {
        ++q;
        continue;
      }
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
    }
  }

  // Compact the slot-indexed vectors down to surviving samples. The common
  // complete-and-healthy case keeps the full vectors untouched.
  if (!result.completed || !result.quarantined.empty()) {
    std::size_t q = 0;  // cursor into the slot-ordered quarantine list
    std::size_t out = 0;
    for (std::size_t s = 0; s < num_samples; ++s) {
      if (done[s] == 0) continue;
      if (q < result.quarantined.size() && result.quarantined[q].slot == s) {
        ++q;
        continue;
      }
      result.delay_ps[out] = result.delay_ps[s];
      result.leakage_na[out] = result.leakage_na[s];
      ++out;
    }
    result.delay_ps.resize(out);
    result.leakage_na.resize(out);
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
