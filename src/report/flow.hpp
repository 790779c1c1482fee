/// \file flow.hpp
/// \brief The shared experiment flow used by every bench binary.
///
/// One experiment row = one circuit pushed through both optimizers at the
/// same delay target and measured identically:
///
///   1. D_min: minimum achievable nominal delay (unconstrained greedy
///      upsizing), so delay targets can be expressed as T = factor * D_min
///      exactly as variation-aware sizing papers do.
///   2. Deterministic baseline: corner-based dual-Vth + sizing. Optionally
///      the corner is auto-selected as the smallest guard-band whose
///      solution actually meets the timing-yield target (the honest
///      iso-yield baseline).
///   3. Statistical optimizer at the same T and yield target.
///   4. Metrics for both implementations (SSTA yield, Wilkinson leakage
///      percentiles), optionally cross-checked by Monte Carlo.

#pragma once

#include <cstdint>
#include <string>

#include "cells/library.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "opt/config.hpp"
#include "opt/metrics.hpp"
#include "tech/variation.hpp"
#include "util/exec.hpp"

namespace statleak {

/// Execution knobs come from ExecConfig: `seed` drives the Monte-Carlo
/// cross-check draws (default 7, the historical flow seed) and
/// `num_threads` is plumbed into both optimizers and the MC loops.
struct FlowConfig : ExecConfig {
  FlowConfig() { seed = 7; }

  double t_max_factor = 1.15;       ///< T = factor * D_min
  double yield_target = 0.99;       ///< eta
  double leakage_percentile = 0.99; ///< optimizer objective percentile
  /// Fixed deterministic guard-band corner; ignored when auto_corner is on.
  double det_corner_k = 0.0;
  /// Search k in {0, 1, 2, 3} for the smallest corner whose deterministic
  /// solution meets eta (measured by SSTA).
  bool det_auto_corner = false;
  int mc_samples = 0;  ///< 0 = skip Monte-Carlo cross-check
  /// Kernel block size of the batched MC cross-check (0 = auto; results
  /// are bit-identical either way — see McConfig::batch_size).
  int mc_batch_size = 0;
  /// Statistical-optimizer candidate block size (OptConfig::candidate_block).
  /// A performance knob only: the optimization trajectory is bit-identical
  /// for every block size.
  int opt_candidate_block = 0;
  /// Durable journal for the statistical phase (OptConfig::checkpoint_path):
  /// a flow whose budget expires mid-statistical-optimization resumes it
  /// bit-identically on the next invocation. Empty = no journaling. The
  /// deterministic baseline is corner-cheap and is not journaled.
  std::string opt_checkpoint_path;
  /// Snapshot cadence of the statistical phase's journal, in committed
  /// moves (OptConfig::checkpoint_every).
  int opt_checkpoint_every = 256;
};

struct McCheck {
  double timing_yield = 0.0;
  double leakage_mean_na = 0.0;
  double leakage_p99_na = 0.0;
  bool completed = true;  ///< false when the flow deadline cut the MC short
};

struct FlowOutcome {
  std::string circuit_name;
  /// False when ExecConfig::deadline_ms expired somewhere in the flow: the
  /// budget is shared across phases (each phase receives the remaining
  /// time), every phase stops cleanly, and whatever was measured is kept.
  bool completed = true;
  double d_min_ps = 0.0;
  double t_max_ps = 0.0;
  double det_corner_k = 0.0;  ///< corner actually used by the baseline

  OptResult det_result;
  OptResult stat_result;
  CircuitMetrics det_metrics;
  CircuitMetrics stat_metrics;
  double det_runtime_s = 0.0;
  double stat_runtime_s = 0.0;

  bool has_mc = false;
  McCheck det_mc;
  McCheck stat_mc;

  /// Relative saving of the statistical flow on the objective percentile:
  /// (det_p99 - stat_p99) / det_p99.
  double p99_saving() const;
  /// Relative saving on mean leakage.
  double mean_saving() const;
};

/// Minimum achievable nominal delay: unconstrained greedy upsizing.
double min_achievable_delay_ps(const Circuit& circuit, const CellLibrary& lib);

/// Runs the full det-vs-stat flow on one circuit. The circuit's
/// implementation attributes are scratch space; on return it holds the
/// statistical solution.
///
/// With an observability registry attached, the flow records its own phase
/// wall times ("flow.d_min" / "flow.det" / "flow.stat" / "flow.mc_check"),
/// headline gauges ("flow.*"), and passes the registry down into both
/// optimizers and the MC cross-checks (their "det.*" / "stat.*" / "mc.*"
/// entries accumulate into the same report). Results are bit-identical
/// with and without a registry.
FlowOutcome run_flow(Circuit& circuit, const CellLibrary& lib,
                     const VariationModel& var, const FlowConfig& config,
                     obs::Registry* obs = nullptr);

}  // namespace statleak
