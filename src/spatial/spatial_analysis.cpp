#include "spatial/spatial_analysis.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "mc/arena.hpp"
#include "util/error.hpp"
#include "util/health.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace statleak {

LeakageDistribution spatial_leakage_distribution(
    const Circuit& circuit, const CellLibrary& lib,
    const SpatialVariationModel& model, const std::vector<Point>& placement) {
  model.validate();
  STATLEAK_CHECK(placement.size() == circuit.num_gates(),
                 "one placement point per gate");
  // Marginal moments are those of the flat model (variance budget is
  // preserved by the spatial split).
  const LeakageModel margins(lib, model.base);
  const auto& sens = lib.sensitivities(Vth::kLow);
  const double cl = sens.leak_cl_per_nm;
  const double cv = sens.leak_cv_per_v;

  const double cov_global =
      cl * cl * model.base.sigma_l_inter_nm * model.base.sigma_l_inter_nm +
      cv * cv * model.base.sigma_vth_inter_v * model.base.sigma_vth_inter_v;
  const double cov_region =
      cl * cl * model.sigma_l_region_nm() * model.sigma_l_region_nm() +
      cv * cv * model.sigma_vth_region_v() * model.sigma_vth_region_v();

  double sum_mean = 0.0;
  double sum_mean_sq = 0.0;
  double sum_var = 0.0;
  std::vector<double> region_mean(
      static_cast<std::size_t>(model.num_regions()), 0.0);
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    if (g.kind == CellKind::kInput) continue;
    const GateLeakMoments m = margins.gate_moments(g.kind, g.vth, g.size);
    sum_mean += m.mean_na;
    sum_mean_sq += m.mean_na * m.mean_na;
    sum_var += m.var_na2;
    region_mean[static_cast<std::size_t>(model.region_of(placement[id]))] +=
        m.mean_na;
  }
  double sum_region_sq = 0.0;
  for (double a : region_mean) sum_region_sq += a * a;

  const double k_global = std::exp(cov_global) - 1.0;
  const double k_same = std::exp(cov_global + cov_region) - 1.0;
  const double cross_region =
      k_global * std::max(0.0, sum_mean * sum_mean - sum_region_sq);
  const double same_region =
      k_same * std::max(0.0, sum_region_sq - sum_mean_sq);

  LeakageDistribution dist;
  dist.mean_na = sum_mean;
  dist.var_na2 = sum_var + cross_region + same_region;
  dist.fitted =
      Lognormal::from_moments(std::max(sum_mean, 1e-12), dist.var_na2);
  return dist;
}

McResult run_monte_carlo_spatial(const Circuit& circuit,
                                 const CellLibrary& lib,
                                 const SpatialVariationModel& model,
                                 const std::vector<Point>& placement,
                                 const McConfig& config,
                                 obs::Registry* obs) {
  model.validate();
  STATLEAK_CHECK(config.num_samples > 0, "need at least one sample");
  STATLEAK_CHECK(placement.size() == circuit.num_gates(),
                 "one placement point per gate");
  require_plain_mc_config(config, "spatial Monte-Carlo");
  obs::ScopedTimer timer(obs, "mc.spatial_samples");

  const std::size_t n = circuit.num_gates();
  std::vector<int> regions(n);
  for (std::size_t id = 0; id < n; ++id) {
    regions[id] = model.region_of(placement[id]);
  }

  const auto num_samples = static_cast<std::size_t>(config.num_samples);
  McResult result;
  result.samples_requested = num_samples;
  result.delay_ps.assign(num_samples, 0.0);
  result.leakage_na.assign(num_samples, 0.0);

  const int workers = resolve_num_threads(config.num_threads);
  McArena arena;
  arena.prepare(circuit, lib, workers, obs);
  const BatchDelayKernel& delay_kernel = *arena.delay;
  const BatchLeakageKernel& leak_kernel = *arena.leak;
  const std::size_t block = resolve_batch_size(config.batch_size, n);

  // Fault-tolerance plumbing mirrors the flat run_monte_carlo: deadline
  // checks at block boundaries, health classification per sample, and a
  // serial finalize pass that compacts partial/quarantined populations.
  // Checkpointing is a flat-MC feature only (see docs/ROBUSTNESS.md).
  const Deadline deadline(config.deadline_ms);
  std::atomic<bool> stop{false};
  const bool fail_fast = config.health_policy == HealthPolicy::kFail;
  using SlotRun = std::pair<std::size_t, std::size_t>;
  std::vector<std::vector<SlotRun>> computed_runs(
      static_cast<std::size_t>(workers));

  // Same counter-based sharding as the flat run_monte_carlo: sample i owns
  // stream i and slot i, so output is bit-identical for any thread count
  // and any batch size — lanes are just consecutive samples that never
  // interact.
  parallel_for(
      config.num_threads, num_samples,
      [&](std::size_t begin, std::size_t end, int worker) {
        obs::LocalCounter batches(obs, "mc.spatial_batches");
        BatchScratch& sc = arena.scratch[static_cast<std::size_t>(worker)];
        sc.resize(n, block);
        SpatialDieSample die;  // region buffers reused across lanes
        std::size_t covered = begin;
        for (std::size_t s0 = begin; s0 < end; s0 += block) {
          if (stop.load(std::memory_order_relaxed)) break;
          if (deadline.expired()) {
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          const std::size_t lanes = std::min(block, end - s0);
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            Rng rng = Rng::stream(config.seed, s0 + lane);
            sample_spatial_die(model, rng, die);
            for (std::size_t id = 0; id < n; ++id) {
              const ParamSample ps =
                  sample_spatial_gate(model, die, regions[id], rng);
              sc.dl[id * block + lane] = ps.dl_nm;
              sc.dv[id * block + lane] = ps.dvth_v;
            }
          }
          delay_kernel.critical_delay_block(
              sc.dl.data(), sc.dv.data(), block, lanes, config.exact_delay,
              nullptr, sc.arrival.data(), sc.delay_out.data());
          leak_kernel.total_block(sc.dl.data(), sc.dv.data(), block, lanes,
                                  nullptr, sc.leak_out.data());
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            result.delay_ps[s0 + lane] = sc.delay_out[lane];
            result.leakage_na[s0 + lane] = sc.leak_out[lane];
            if (fail_fast) {
              const std::uint8_t cause =
                  classify_health(sc.delay_out[lane], sc.leak_out[lane]);
              if (cause != 0) {
                stop.store(true, std::memory_order_relaxed);
                throw_sample_health(s0 + lane, cause);
              }
            }
          }
          batches.add();
          covered = s0 + lanes;
        }
        if (covered > begin) {
          computed_runs[static_cast<std::size_t>(worker)].emplace_back(
              begin, covered);
        }
      });

  // Serial finalize: done mask, health scan (quarantine policy), and
  // compaction of partial populations — same semantics as run_monte_carlo.
  std::vector<std::uint8_t> done(num_samples, 0);
  for (const auto& runs : computed_runs) {
    for (const SlotRun& r : runs) {
      std::fill(done.begin() + static_cast<std::ptrdiff_t>(r.first),
                done.begin() + static_cast<std::ptrdiff_t>(r.second), 1);
    }
  }
  std::size_t done_count = 0;
  for (std::uint8_t d : done) done_count += d;
  result.samples_done = done_count;
  result.completed = done_count == num_samples;
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (done[s] == 0) continue;
    const std::uint8_t cause =
        classify_health(result.delay_ps[s], result.leakage_na[s]);
    if (cause == 0) continue;
    if (fail_fast) throw_sample_health(s, cause);
    result.quarantined.push_back(
        {static_cast<std::uint64_t>(s), static_cast<HealthCause>(cause)});
  }
  if (!result.completed || !result.quarantined.empty()) {
    std::size_t q = 0;
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
    obs->add("mc.spatial_samples", static_cast<double>(result.delay_ps.size()));
    if (!result.quarantined.empty()) {
      obs->add("mc.quarantined",
               static_cast<double>(result.quarantined.size()));
    }
    if (!result.completed) {
      obs->add("mc.samples_done", static_cast<double>(result.samples_done));
      obs->mark_incomplete("deadline");
    }
  }
  return result;
}

}  // namespace statleak
