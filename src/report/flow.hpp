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
///   3. Statistical optimizer at the same T and yield target. Steps 2 and
///      3 share only the input circuit and T, so they run side by side.
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
/// cross-check draws (default 7, the historical flow seed). `num_threads`
/// (T, resolved by resolve_num_threads) is the flow's whole thread budget:
/// the serial deterministic sizer takes one thread, the statistical
/// optimizer runs beside it with max(1, T - 1) scan workers, and the MC
/// cross-checks, which start after both, use all T. No result depends on T.
struct FlowConfig : ExecConfig {
  FlowConfig() { seed = 7; }

  double t_max_factor = 1.15;       ///< T = factor * D_min
  double yield_target = 0.99;       ///< eta
  double leakage_percentile = 0.99; ///< optimizer objective percentile
  /// Fixed deterministic guard-band corner; ignored when auto_corner is on.
  double det_corner_k = 0.0;
  /// Search k in {0, 0.5, 1.0, ..., 3.0} for the smallest corner whose
  /// deterministic solution meets eta (measured by SSTA); 3.0 is kept when
  /// none does.
  bool det_auto_corner = false;
  int mc_samples = 0;  ///< 0 = skip Monte-Carlo cross-check
  /// Kernel block size of the batched MC cross-check (0 = auto; results
  /// are bit-identical either way — see McConfig::batch_size).
  int mc_batch_size = 0;
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
  /// time; the two optimizer branches start together), every phase stops
  /// cleanly, and whatever was measured is kept.
  bool completed = true;
  double d_min_ps = 0.0;
  double t_max_ps = 0.0;
  double det_corner_k = 0.0;  ///< corner actually used by the baseline

  OptResult det_result;
  OptResult stat_result;
  CircuitMetrics det_metrics;
  CircuitMetrics stat_metrics;
  /// Wall time of each optimizer branch (the deterministic one includes
  /// its metrics); the two overlap.
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
/// The deterministic and statistical branches run concurrently when the
/// thread budget allows (see FlowConfig); the outcome, the journal and the
/// report are the same for every thread count. If a branch throws, the
/// other still runs to its end; the deterministic branch's exception is
/// rethrown first, then the statistical one's.
///
/// With an observability registry attached, the flow records its own phase
/// wall times ("flow.d_min" / "flow.det" / "flow.stat" / "flow.mc_check"),
/// headline gauges ("flow.*"), and the "det.*" / "stat.*" / "mc.*" entries
/// of both optimizers and the MC cross-checks. Each branch records into a
/// registry of its own, merged into `obs` after the join (deterministic
/// first, also when a branch threw), so the report's phase order, trace
/// streams and first incomplete reason do not depend on timing. The
/// "flow.det" / "flow.stat" wall times overlap. Results are bit-identical
/// with and without a registry.
FlowOutcome run_flow(Circuit& circuit, const CellLibrary& lib,
                     const VariationModel& var, const FlowConfig& config,
                     obs::Registry* obs = nullptr);

}  // namespace statleak
