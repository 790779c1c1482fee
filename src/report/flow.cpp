#include "report/flow.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "mc/monte_carlo.hpp"
#include "obs/snapshot.hpp"
#include "opt/deterministic.hpp"
#include "opt/statistical.hpp"
#include "sta/sta.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace statleak {

namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

McCheck run_mc_check(const Circuit& circuit, const CellLibrary& lib,
                     const VariationModel& var, double t_max_ps,
                     const FlowConfig& config, std::uint64_t seed,
                     std::int64_t deadline_ms, obs::Registry* obs) {
  obs::ScopedTimer timer(obs, "flow.mc_check");
  McConfig mc;
  mc.num_samples = config.mc_samples;
  mc.batch_size = config.mc_batch_size;
  mc.seed = seed;
  mc.num_threads = config.num_threads;
  mc.deadline_ms = deadline_ms;
  const McResult res = run_monte_carlo(circuit, lib, var, mc, obs);
  McCheck check;
  check.completed = res.completed;
  if (!res.delay_ps.empty()) {
    check.timing_yield = res.timing_yield(t_max_ps);
    check.leakage_mean_na = res.leakage_summary().mean;
    check.leakage_p99_na = res.leakage_quantile_na(0.99);
  }
  return check;
}

}  // namespace

double FlowOutcome::p99_saving() const {
  if (det_metrics.leakage_p99_na <= 0.0) return 0.0;
  return (det_metrics.leakage_p99_na - stat_metrics.leakage_p99_na) /
         det_metrics.leakage_p99_na;
}

double FlowOutcome::mean_saving() const {
  if (det_metrics.leakage_mean_na <= 0.0) return 0.0;
  return (det_metrics.leakage_mean_na - stat_metrics.leakage_mean_na) /
         det_metrics.leakage_mean_na;
}

double min_achievable_delay_ps(const Circuit& circuit,
                               const CellLibrary& lib) {
  // Run the deterministic sizer against an unreachable target: phase 1 then
  // upsizes until no move helps, i.e. to the minimum-delay sizing. Work on a
  // copy so the caller's implementation is untouched.
  Circuit scratch = circuit;
  OptConfig cfg;
  cfg.t_max_ps = 1e-3;  // unreachable: forces full upsizing
  // Named: the optimizer keeps a reference, so a temporary would dangle.
  const VariationModel no_var = VariationModel::none();
  DeterministicOptimizer sizer(lib, no_var, cfg);
  (void)sizer.run(scratch);
  return StaEngine(scratch, lib).critical_delay_ps();
}

FlowOutcome run_flow(Circuit& circuit, const CellLibrary& lib,
                     const VariationModel& var, const FlowConfig& config,
                     obs::Registry* obs) {
  STATLEAK_CHECK(config.t_max_factor > 1.0,
                 "t_max factor must exceed 1 (D_min is the floor)");
  FlowOutcome out;
  out.circuit_name = circuit.name();

  // One wall-clock budget for the whole flow: each phase is handed whatever
  // remains (floored at 1 ms so an already-expired budget still produces a
  // clean stop at the phase's first boundary instead of skipping it UB-ish).
  const auto flow_start = std::chrono::steady_clock::now();
  const auto remaining_ms = [&]() -> std::int64_t {
    if (config.deadline_ms <= 0) return 0;  // unarmed
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - flow_start)
            .count();
    return std::max<std::int64_t>(1, config.deadline_ms - elapsed);
  };

  {
    obs::ScopedTimer timer(obs, "flow.d_min");
    out.d_min_ps = min_achievable_delay_ps(circuit, lib);
  }
  out.t_max_ps = config.t_max_factor * out.d_min_ps;

  OptConfig base;
  base.t_max_ps = out.t_max_ps;
  base.yield_target = config.yield_target;
  base.leakage_percentile = config.leakage_percentile;

  // The two branches share only the input circuit and T, so they run side
  // by side: the serial deterministic sizer takes one thread and the
  // statistical optimizer the rest of the budget (its trajectory is
  // thread-invariant). The statistical branch mutates `circuit` in place,
  // so the deterministic branch copies only from `pristine`, and the
  // branches write disjoint FlowOutcome fields and their own registries.
  const int threads = resolve_num_threads(config.num_threads);
  const Circuit pristine = circuit;
  Circuit det = pristine;
  obs::Registry det_obs;
  obs::Registry stat_obs;

  const auto run_det = [&] {
    obs::Registry* reg = obs != nullptr ? &det_obs : nullptr;
    obs::ScopedTimer timer(reg, "flow.det");
    const auto start = std::chrono::steady_clock::now();
    OptConfig cfg = base;
    cfg.num_threads = 1;
    if (config.det_auto_corner) {
      for (double k : {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
        cfg.corner_k_sigma = k;
        cfg.deadline_ms = remaining_ms();
        det = pristine;
        out.det_result = DeterministicOptimizer(lib, var, cfg).run(det, reg);
        out.det_corner_k = k;
        out.det_metrics = measure_metrics(det, lib, var, out.t_max_ps);
        if (out.det_metrics.timing_yield >= config.yield_target) break;
      }
    } else {
      cfg.corner_k_sigma = config.det_corner_k;
      cfg.deadline_ms = remaining_ms();
      out.det_result = DeterministicOptimizer(lib, var, cfg).run(det, reg);
      out.det_corner_k = config.det_corner_k;
      out.det_metrics = measure_metrics(det, lib, var, out.t_max_ps);
    }
    out.det_runtime_s = seconds_since(start);
  };

  const auto run_stat = [&] {
    obs::Registry* reg = obs != nullptr ? &stat_obs : nullptr;
    obs::ScopedTimer timer(reg, "flow.stat");
    const auto start = std::chrono::steady_clock::now();
    OptConfig cfg = base;
    cfg.num_threads = std::max(1, threads - 1);
    cfg.deadline_ms = remaining_ms();
    cfg.checkpoint_path = config.opt_checkpoint_path;
    cfg.checkpoint_every = config.opt_checkpoint_every;
    out.stat_result = StatisticalOptimizer(lib, var, cfg).run(circuit, reg);
    out.stat_runtime_s = seconds_since(start);
    out.stat_metrics = measure_metrics(circuit, lib, var, out.t_max_ps);
  };

  // Shard 0 is the deterministic branch, shard 1 the statistical one; a
  // one-thread pool runs them inline in that order. Each branch keeps its
  // own exception, so which one is rethrown never depends on timing.
  std::exception_ptr errors[2];
  ThreadPool(std::min(threads, 2))
      .parallel_for(2, [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t branch = begin; branch < end; ++branch) {
          try {
            if (branch == 0) {
              run_det();
            } else {
              run_stat();
            }
          } catch (...) {
            errors[branch] = std::current_exception();
          }
        }
      });
  // Deterministic first, then statistical: the merged report's phase
  // order, trace streams and first incomplete_reason match a serial run.
  if (obs != nullptr) {
    obs::merge_registry_snapshot(*obs, obs::registry_snapshot(det_obs));
    obs::merge_registry_snapshot(*obs, obs::registry_snapshot(stat_obs));
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  if (config.mc_samples > 0) {
    out.has_mc = true;
    out.det_mc = run_mc_check(det, lib, var, out.t_max_ps, config,
                              config.seed, remaining_ms(), obs);
    out.stat_mc = run_mc_check(circuit, lib, var, out.t_max_ps, config,
                               config.seed + 1, remaining_ms(), obs);
  }

  out.completed = out.det_result.completed && out.stat_result.completed &&
                  (!out.has_mc ||
                   (out.det_mc.completed && out.stat_mc.completed));

  if (obs != nullptr) {
    obs->set_gauge("flow.d_min_ps", out.d_min_ps);
    obs->set_gauge("flow.t_max_ps", out.t_max_ps);
    obs->set_gauge("flow.det_corner_k", out.det_corner_k);
    obs->set_gauge("flow.det_runtime_s", out.det_runtime_s);
    obs->set_gauge("flow.stat_runtime_s", out.stat_runtime_s);
    obs->set_gauge("flow.det_leakage_p99_na", out.det_metrics.leakage_p99_na);
    obs->set_gauge("flow.stat_leakage_p99_na",
                   out.stat_metrics.leakage_p99_na);
    obs->set_gauge("flow.det_timing_yield", out.det_metrics.timing_yield);
    obs->set_gauge("flow.stat_timing_yield", out.stat_metrics.timing_yield);
    obs->set_gauge("flow.p99_saving", out.p99_saving());
    obs->set_gauge("flow.mean_saving", out.mean_saving());
  }
  return out;
}

}  // namespace statleak
