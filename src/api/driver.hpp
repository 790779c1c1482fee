/// \file driver.hpp
/// \brief The command facade: every statleak entry point as a library call.
///
/// One definition of each command's semantics — input loading, default
/// resolution (delay targets, importance shifts), engine invocation and
/// observability gauges — shared by every front end. The CLI
/// (tools/statleak_cli.cpp) is a thin flag-parsing adapter over these
/// functions, and the distributed worker (src/dist/) calls the same facade,
/// so the single-host and distributed paths cannot drift: a `statleak mc`
/// run and a coordinator merge both end in finalize_mc_campaign() on the
/// same resolved study.
///
/// Conventions:
///   * Configs carry resolved *values*, not flag spellings. Front ends own
///     string validation (bad spellings are usage errors there); the facade
///     validates semantics with statleak::Error.
///   * Every run function takes a nullable obs::Registry* and records the
///     same gauges/phases regardless of front end.
///   * Results carry an exit_code() matching the CLI contract
///     (docs/ROBUSTNESS.md): 0 success, 4 deadline-expired partial result.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "cells/library.hpp"
#include "mc/estimator.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/sweep.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "opt/config.hpp"
#include "opt/metrics.hpp"
#include "report/flow.hpp"
#include "tech/variation.hpp"

namespace statleak::api {

/// Where a command's circuit comes from. Exactly one of `bench_path` /
/// `bench_text` must be set: a front end taking files passes the path; the
/// distributed coordinator ships the raw file bytes to workers, which pass
/// them as text (so every worker parses the same bytes regardless of its
/// filesystem). An implementation sidecar may ride along the same way.
struct StudyInput {
  std::string bench_path;
  std::string bench_text;
  /// Circuit name when parsing `bench_text` (paths carry their own).
  std::string circuit_name = "inline";
  std::string impl_path;
  std::string impl_text;
  /// Technology node in nm: 100 or 70 (library selection). Ignored when
  /// `node_name` is set.
  int node_nm = 100;
  /// Preset name (tech/process.hpp registry; accepts the "100"/"70"
  /// aliases). Empty: fall back to `node_nm`.
  std::string node_name;
  /// Environment corner, resolved through at_corner(): non-positive values
  /// mean "the node's calibrated default". A sweep cell and a standalone
  /// run at the same corner resolve through this same path, which is what
  /// makes their populations bit-identical.
  double temperature_k = 0.0;  ///< analysis temperature [K]
  double vdd_v = 0.0;          ///< supply [V]
  /// VariationModel sigma multiplier (1.0 = the typical model, untouched).
  double sigma_scale = 1.0;
};

/// A loaded study: the circuit with any sidecar applied, the node's cell
/// library, and the variation model every command uses.
struct LoadedStudy {
  Circuit circuit;
  CellLibrary lib;
  VariationModel var;
  std::size_t impl_entries = 0;  ///< sidecar entries applied (0 = none)
};

/// Loads and validates a StudyInput. Throws statleak::Error on unreadable
/// or malformed inputs, or when neither/both circuit sources are set.
LoadedStudy load_study(const StudyInput& input);

// --- mc ---------------------------------------------------------------------

struct McCommandConfig {
  StudyInput input;
  /// Engine config; `is_shift` may be overridden by `importance_auto`.
  McConfig mc;
  /// Delay target [ps]; <= 0 resolves to 1.1 x nominal critical delay.
  double t_max_ps = 0.0;
  /// Resolve mc.is_shift toward the timing tail at the (resolved) target
  /// (the `--importance auto` behavior).
  bool importance_auto = false;
};

/// A resolved MC study: everything pinned before any sample runs. The
/// coordinator resolves once and ships `mc` + `t_max_ps` verbatim to the
/// workers, so shift/target resolution happens in exactly one place.
struct McStudy {
  LoadedStudy study;
  McConfig mc;          ///< resolved (importance shift applied)
  double t_max_ps = 0.0;
};

/// Loads the input and resolves the delay target and importance shift.
/// With `obs`, the load is timed as `netlist.load`.
McStudy prepare_mc_study(const McCommandConfig& config,
                         obs::Registry* obs = nullptr);

struct McCommandResult {
  McResult result;
  McConfig mc;            ///< the resolved config the samples ran under
  double t_max_ps = 0.0;
  std::string circuit_name;
  std::size_t impl_entries = 0;
  int exit_code() const { return result.completed ? 0 : 4; }
};

/// The `statleak mc` command: prepare_mc_study + run_monte_carlo +
/// finalize_mc_campaign's gauges. Single-host reference the distributed
/// path is byte-compared against.
McCommandResult run_mc_command(const McCommandConfig& config,
                               obs::Registry* obs = nullptr);

// --- sweep ------------------------------------------------------------------

struct SweepCommandConfig {
  /// Circuit + implementation source. The input's own corner fields
  /// (node_name/node_nm, temperature_k, vdd_v, sigma_scale) are ignored:
  /// the grid owns every cell's corner.
  StudyInput input;
  SweepGrid grid;
  /// Per-cell engine config. `deadline_ms` budgets the whole grid;
  /// `checkpoint_path` is a per-cell file prefix (see mc/sweep.hpp).
  McConfig mc;
  /// Timing constraint [ps] for every cell's yield; <= 0 resolves each
  /// cell to 1.1 x that corner's nominal critical delay.
  double t_max_ps = 0.0;
};

struct SweepCommandResult {
  SweepResult sweep;
  SweepGrid grid;
  McConfig mc;
  double t_max_ps = 0.0;  ///< as configured (0 = per-corner resolution)
  std::string circuit_name;
  std::size_t impl_entries = 0;
  int exit_code() const { return sweep.completed ? 0 : 4; }
};

/// The `statleak sweep` command body: load the study once, evaluate the
/// corner grid corner-major with batched-engine state reuse, publish the
/// sweep.* gauges (grid dimensions, per-cell yield/leakage surface) and a
/// "sweep" trace row per cell. Marks the registry incomplete with reason
/// "deadline" on a partial surface.
SweepCommandResult run_sweep_command(const SweepCommandConfig& config,
                                     obs::Registry* obs = nullptr);

/// The human-readable surface table `statleak sweep` prints.
std::string sweep_summary_text(const SweepCommandResult& r);

/// Turns an assembled population (the coordinator's merge of worker
/// shards) into the command result via finalize_mc_population, recording
/// the same mc.* gauges as run_mc_command — the two paths share every line
/// of statistics code downstream of the samples.
McCommandResult finalize_mc_campaign(const McStudy& study, McPopulation&& pop,
                                     obs::Registry* obs = nullptr);

/// The human-readable result block `statleak mc` prints (resume /
/// quarantine notes, summary statistics, sampler/importance/CV lines,
/// deadline note). Shared with `statleak serve` so the two commands'
/// stdout statistics are byte-comparable.
std::string mc_summary_text(const McCommandResult& r);

// --- optimize ---------------------------------------------------------------

enum class OptimizeFlow : std::uint8_t { kStat = 0, kDet = 1 };

struct OptimizeCommandConfig {
  StudyInput input;
  /// Optimizer knobs; `t_max_ps` <= 0 resolves to t_max_factor x D_min.
  OptConfig opt;
  double t_max_factor = 1.15;
  OptimizeFlow flow = OptimizeFlow::kStat;
};

struct OptimizeCommandResult {
  OptResult result;
  CircuitMetrics metrics;  ///< measured at the resolved target
  double t_max_ps = 0.0;
  /// The optimized implementation (front ends write .impl / .bench from it).
  Circuit circuit;
  std::size_t impl_entries = 0;
  int exit_code() const { return result.completed ? 0 : 4; }
};

/// The `statleak optimize` command body.
OptimizeCommandResult run_optimize_command(const OptimizeCommandConfig& config,
                                           obs::Registry* obs = nullptr);

// --- flow -------------------------------------------------------------------

struct FlowCommandConfig {
  StudyInput input;
  FlowConfig flow;
};

struct FlowCommandResult {
  FlowOutcome outcome;
  std::size_t impl_entries = 0;
  int exit_code() const { return outcome.completed ? 0 : 4; }
};

/// The `statleak flow` command body.
FlowCommandResult run_flow_command(const FlowCommandConfig& config,
                                   obs::Registry* obs = nullptr);

}  // namespace statleak::api
