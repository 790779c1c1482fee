#include "api/driver.hpp"

#include <sstream>
#include <utility>

#include "netlist/bench_io.hpp"
#include "netlist/impl_io.hpp"
#include "opt/deterministic.hpp"
#include "opt/statistical.hpp"
#include "sta/sta.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/health.hpp"
#include "util/table.hpp"

namespace statleak::api {

namespace {

/// Records the headline mc.* gauges both MC paths publish. Gauge values
/// are pure functions of the (deterministic) result, so the single-host
/// and distributed reports agree bit-for-bit.
void publish_mc_gauges(const McResult& res, double t_max_ps,
                       obs::Registry* obs) {
  if (obs == nullptr || res.delay_ps.empty()) return;
  const SampleSummary d = res.delay_summary();
  const SampleSummary l = res.leakage_summary();
  obs->set_gauge("mc.delay_mean_ps", d.mean);
  obs->set_gauge("mc.delay_p99_ps", d.p99);
  obs->set_gauge("mc.leakage_mean_na", l.mean);
  obs->set_gauge("mc.leakage_p99_na", l.p99);
  obs->set_gauge("mc.timing_yield", res.timing_yield(t_max_ps));
}

McCommandResult make_mc_result(const McStudy& study, McResult&& res,
                               obs::Registry* obs) {
  publish_mc_gauges(res, study.t_max_ps, obs);
  McCommandResult out;
  out.result = std::move(res);
  out.mc = study.mc;
  out.t_max_ps = study.t_max_ps;
  out.circuit_name = study.study.circuit.name();
  out.impl_entries = study.study.impl_entries;
  return out;
}

/// load_study timed as `netlist.load`, plus the `netlist.gates` gauge.
LoadedStudy timed_load(const StudyInput& input, obs::Registry* obs) {
  obs::ScopedTimer timer(obs, "netlist.load");
  LoadedStudy study = load_study(input);
  timer.stop();
  const auto gates = static_cast<double>(study.circuit.num_gates());
  if (obs != nullptr) obs->set_gauge("netlist.gates", gates);
  return study;
}

}  // namespace

LoadedStudy load_study(const StudyInput& input) {
  STATLEAK_CHECK(input.bench_path.empty() != input.bench_text.empty(),
                 "study input needs exactly one of bench_path / bench_text");
  ProcessNode node;
  if (!input.node_name.empty()) {
    node = process_node_by_name(input.node_name);
  } else {
    STATLEAK_CHECK(input.node_nm == 100 || input.node_nm == 70,
                   "technology node must be 100 or 70");
    node = input.node_nm == 100 ? generic_100nm() : generic_70nm();
  }
  // Same corner-resolution path as every sweep-grid cell (SweepCorner::
  // resolve_node/resolve_variation), so a standalone run at a corner and
  // the sweep cell at that corner build identical models.
  node = at_corner(std::move(node), input.temperature_k, input.vdd_v);
  VariationModel var = VariationModel::typical_100nm();
  STATLEAK_CHECK(input.sigma_scale > 0.0, "sigma scale must be positive");
  if (input.sigma_scale != 1.0) var = var.scaled(input.sigma_scale);
  LoadedStudy study{
      input.bench_path.empty()
          ? read_bench_string(input.bench_text, input.circuit_name)
          : read_bench_file(input.bench_path),
      CellLibrary(node), var};
  STATLEAK_CHECK(input.impl_path.empty() || input.impl_text.empty(),
                 "study input allows at most one of impl_path / impl_text");
  if (!input.impl_path.empty()) {
    study.impl_entries = read_impl_file(input.impl_path, study.circuit);
  } else if (!input.impl_text.empty()) {
    std::istringstream in(input.impl_text);
    study.impl_entries = read_impl(in, study.circuit);
  }
  return study;
}

// --- mc ---------------------------------------------------------------------

McStudy prepare_mc_study(const McCommandConfig& config, obs::Registry* obs) {
  McStudy study{timed_load(config.input, obs), config.mc, config.t_max_ps};
  if (study.t_max_ps <= 0.0) {
    study.t_max_ps =
        1.1 * StaEngine(study.study.circuit, study.study.lib)
                  .critical_delay_ps();
  }
  if (config.importance_auto) {
    // Shift the global distribution toward the timing-failure region at
    // the delay target; inactive (plain MC) when the target is not in the
    // tail. Exact likelihood weights keep every estimate unbiased.
    study.mc.is_shift =
        compute_timing_is_shift(study.study.circuit, study.study.lib,
                                study.study.var, study.t_max_ps);
  }
  return study;
}

McCommandResult run_mc_command(const McCommandConfig& config,
                               obs::Registry* obs) {
  const McStudy study = prepare_mc_study(config, obs);
  McResult res = run_monte_carlo(study.study.circuit, study.study.lib,
                                 study.study.var, study.mc, obs);
  return make_mc_result(study, std::move(res), obs);
}

McCommandResult finalize_mc_campaign(const McStudy& study, McPopulation&& pop,
                                     obs::Registry* obs) {
  McResult res =
      finalize_mc_population(study.study.circuit, study.study.lib,
                             study.study.var, study.mc, std::move(pop), obs);
  return make_mc_result(study, std::move(res), obs);
}

std::string mc_summary_text(const McCommandResult& r) {
  std::ostringstream out;
  const McResult& res = r.result;
  if (res.samples_restored > 0) {
    out << "resumed " << res.samples_restored << " of "
        << res.samples_requested << " samples from checkpoint "
        << r.mc.checkpoint_path << "\n";
  }
  if (!res.quarantined.empty()) {
    out << "quarantined " << res.quarantined.size()
        << " non-finite sample(s) (first: slot "
        << res.quarantined.front().slot << ", "
        << to_string(res.quarantined.front().cause) << ")\n";
  }
  if (res.delay_ps.empty()) {
    out << "no samples completed within the budget\n";
    return out.str();
  }
  const SampleSummary d = res.delay_summary();
  const SampleSummary l = res.leakage_summary();
  out << res.delay_ps.size() << " dies of " << r.circuit_name << ":\n"
      << "  delay   mean " << format_fixed(d.mean, 1) << " ps, sigma "
      << format_fixed(d.stddev, 1) << " ps, p99 "
      << format_fixed(d.p99, 1) << " ps\n"
      << "  leakage mean " << format_si(l.mean * 1e-9, "A")
      << ", p99 " << format_si(l.p99 * 1e-9, "A") << "\n"
      << "  timing yield at " << format_fixed(r.t_max_ps, 1) << " ps: "
      << format_fixed(res.timing_yield(r.t_max_ps), 4) << " +/- "
      << format_fixed(res.yield_stderr(r.t_max_ps), 4) << "\n"
      << "  mean 95% CI: delay +/- "
      << format_fixed(res.delay_mean_ci_ps(), 2) << " ps, leakage +/- "
      << format_si(res.leakage_mean_ci_na() * 1e-9, "A") << "\n";
  if (r.mc.sampler != McSampler::kPseudo) {
    out << "  sampler: " << to_string(r.mc.sampler) << "\n";
  }
  if (r.mc.is_shift.active()) {
    out << "  importance shift (" << format_fixed(r.mc.is_shift.l_sigma, 2)
        << ", " << format_fixed(r.mc.is_shift.v_sigma, 2)
        << ") sigma, effective samples " << format_fixed(res.ess(), 1)
        << " of " << res.delay_ps.size() << "\n";
  }
  if (r.mc.control_variate) {
    out << "  control variate: beta " << format_fixed(res.cv_beta(), 3)
        << ", corrected leakage mean "
        << format_si(res.cv_leakage_mean_na() * 1e-9, "A") << "\n";
  }
  if (!res.completed) {
    out << "deadline expired after " << res.samples_done << " of "
        << res.samples_requested << " samples"
        << (r.mc.checkpoint_path.empty()
                ? ""
                : "; progress saved, rerun to resume")
        << "\n";
  }
  return out.str();
}

// --- sweep ------------------------------------------------------------------

SweepCommandResult run_sweep_command(const SweepCommandConfig& config,
                                     obs::Registry* obs) {
  const LoadedStudy study = timed_load(config.input, obs);

  SweepCommandResult out;
  out.grid = config.grid;
  out.mc = config.mc;
  out.t_max_ps = config.t_max_ps;
  out.circuit_name = study.circuit.name();
  out.impl_entries = study.impl_entries;
  out.sweep = run_corner_sweep(study.circuit, config.grid, config.mc,
                               config.t_max_ps, obs);

  if (obs != nullptr) {
    obs->set_gauge("sweep.cells",
                   static_cast<double>(out.sweep.cells.size()));
    obs->set_gauge("sweep.cells_requested",
                   static_cast<double>(out.sweep.cells_requested));
    obs->set_gauge("sweep.grid_nodes",
                   static_cast<double>(config.grid.nodes.size()));
    obs->set_gauge("sweep.grid_temperatures",
                   static_cast<double>(config.grid.temperatures_k.size()));
    obs->set_gauge("sweep.grid_vdds",
                   static_cast<double>(config.grid.vdds_v.size()));
    obs->set_gauge("sweep.grid_sigma_scales",
                   static_cast<double>(config.grid.sigma_scales.size()));
    for (std::size_t i = 0; i < out.sweep.cells.size(); ++i) {
      const SweepCellResult& cell = out.sweep.cells[i];
      const std::string prefix = "sweep.cell" + std::to_string(i) + ".";
      obs->set_gauge(prefix + "t_max_ps", cell.t_max_ps);
      if (cell.result.delay_ps.empty()) continue;
      const SampleSummary d = cell.result.delay_summary();
      const SampleSummary l = cell.result.leakage_summary();
      obs->set_gauge(prefix + "delay_mean_ps", d.mean);
      obs->set_gauge(prefix + "delay_p99_ps", d.p99);
      obs->set_gauge(prefix + "leakage_mean_na", l.mean);
      obs->set_gauge(prefix + "leakage_p99_na", l.p99);
      obs->set_gauge(prefix + "timing_yield",
                     cell.result.timing_yield(cell.t_max_ps));
    }
    if (!out.sweep.completed) obs->mark_incomplete("deadline");
  }
  return out;
}

std::string sweep_summary_text(const SweepCommandResult& r) {
  std::ostringstream out;
  out << "sweep of " << r.circuit_name << ": " << r.sweep.cells.size()
      << " of " << r.sweep.cells_requested << " corners ("
      << r.grid.nodes.size() << " node x " << r.grid.temperatures_k.size()
      << " T x " << r.grid.vdds_v.size() << " Vdd x "
      << r.grid.sigma_scales.size() << " sigma)\n";
  for (std::size_t i = 0; i < r.sweep.cells.size(); ++i) {
    const SweepCellResult& cell = r.sweep.cells[i];
    out << "  [" << i << "] " << cell.corner.label() << ": ";
    if (cell.result.delay_ps.empty()) {
      out << "no samples completed within the budget\n";
      continue;
    }
    const SampleSummary d = cell.result.delay_summary();
    const SampleSummary l = cell.result.leakage_summary();
    out << cell.result.delay_ps.size() << " dies, delay mean "
        << format_fixed(d.mean, 1) << " ps, leakage mean "
        << format_si(l.mean * 1e-9, "A") << ", p99 "
        << format_si(l.p99 * 1e-9, "A") << ", yield at "
        << format_fixed(cell.t_max_ps, 1) << " ps "
        << format_fixed(cell.result.timing_yield(cell.t_max_ps), 4)
        << (cell.result.completed ? "" : " (partial)") << "\n";
  }
  if (!r.sweep.completed) {
    out << "deadline expired: surface is partial ("
        << r.sweep.cells.size() << " of " << r.sweep.cells_requested
        << " corners)"
        << (r.mc.checkpoint_path.empty() ? ""
                                         : "; progress saved, rerun to resume")
        << "\n";
  }
  return out.str();
}

// --- optimize ---------------------------------------------------------------

OptimizeCommandResult run_optimize_command(const OptimizeCommandConfig& config,
                                           obs::Registry* obs) {
  LoadedStudy study = timed_load(config.input, obs);

  OptConfig opt = config.opt;
  if (opt.t_max_ps <= 0.0) {
    opt.t_max_ps =
        config.t_max_factor * min_achievable_delay_ps(study.circuit,
                                                      study.lib);
  }

  OptimizeCommandResult out;
  out.t_max_ps = opt.t_max_ps;
  out.impl_entries = study.impl_entries;
  if (config.flow == OptimizeFlow::kStat) {
    out.result =
        StatisticalOptimizer(study.lib, study.var, opt).run(study.circuit,
                                                            obs);
  } else {
    out.result =
        DeterministicOptimizer(study.lib, study.var, opt).run(study.circuit,
                                                              obs);
  }
  out.metrics =
      measure_metrics(study.circuit, study.lib, study.var, opt.t_max_ps);
  out.circuit = std::move(study.circuit);
  return out;
}

// --- flow -------------------------------------------------------------------

FlowCommandResult run_flow_command(const FlowCommandConfig& config,
                                   obs::Registry* obs) {
  LoadedStudy study = timed_load(config.input, obs);
  FlowCommandResult out;
  out.impl_entries = study.impl_entries;
  out.outcome =
      run_flow(study.circuit, study.lib, study.var, config.flow, obs);
  return out;
}

}  // namespace statleak::api
