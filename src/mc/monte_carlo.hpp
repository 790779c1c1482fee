/// \file monte_carlo.hpp
/// \brief Monte-Carlo golden reference for delay and leakage statistics.
///
/// Each sample draws one die: shared inter-die (dL, dVth) plus independent
/// intra-die components per gate. Sample delay is a full deterministic STA
/// pass under those parameters (first-order or exact alpha-power mode);
/// sample leakage is the exact sum of per-gate exponential leakages. This is
/// the reference the SSTA and Wilkinson approximations are validated against
/// (experiment F4) and the source of the distribution histograms (F1).
///
/// Samples are embarrassingly parallel: each draws from a counter-derived
/// RNG stream (seed x sample index) and the loop is sharded over a thread
/// pool, with results written by sample index — bit-identical output for
/// any `num_threads`.
///
/// Fault tolerance (see docs/ROBUSTNESS.md): the loop honours
/// ExecConfig::deadline_ms (clean stop at block boundaries, partial result
/// flagged `completed = false`), classifies non-finite samples under a
/// HealthPolicy (fail loudly or quarantine by slot), and — with
/// `checkpoint_path` set — persists completed slots so an interrupted run
/// resumes bit-identically (mc/checkpoint.hpp).

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cells/library.hpp"
#include "mc/estimator.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "tech/variation.hpp"
#include "util/exec.hpp"
#include "util/health.hpp"
#include "util/stats.hpp"

namespace statleak {

struct McArena;  // mc/arena.hpp — reusable batched-engine state

/// How the *global* (inter-die) variation dimensions are sampled. The
/// intra-die draws always come from the counter-based pseudo-random
/// streams; the global dimensions carry most of the estimator variance of
/// full-chip totals, so they are where a low-discrepancy sequence pays.
enum class McSampler : std::uint8_t {
  kPseudo = 0,  ///< counter-based xoshiro streams (historical behavior)
  kSobol = 1,   ///< scrambled-Sobol QMC points (util/sobol.hpp)
};

/// "pseudo" / "sobol" (stable CLI spellings).
const char* to_string(McSampler sampler);

/// Execution knobs (`seed`, `num_threads`, `deadline_ms`) come from
/// ExecConfig. Sample i draws from its own counter-derived RNG stream (see
/// util/rng.hpp), so the result is bit-identical for every thread count.
struct McConfig : ExecConfig {
  int num_samples = 10000;
  /// Exact alpha-power delay per gate instead of the first-order multiplier.
  bool exact_delay = false;
  /// Samples evaluated per gate-major kernel block. 0 picks an automatic
  /// size from the circuit size (see mc/batch.hpp). Results are
  /// bit-identical for every batch size — tests/mc_batched_test.cpp pins
  /// them against a scalar per-sample oracle — so this is a performance
  /// knob only.
  int batch_size = 0;

  /// What to do when a sample evaluates to a non-finite delay or leakage:
  /// kFail (default) throws NumericalError naming the slot; kQuarantine
  /// drops the sample, records slot + cause in McResult::quarantined, and
  /// keeps running. Bit-invariant for all-finite populations either way.
  HealthPolicy health_policy = HealthPolicy::kFail;

  /// Checkpoint file; empty (default) disables checkpointing. When the file
  /// exists it must validate against this run's configuration (else
  /// CheckpointError) and the run resumes from it, recomputing only the
  /// missing slots; otherwise it is created. See mc/checkpoint.hpp.
  std::string checkpoint_path;

  /// Completed samples a shard worker accumulates before appending one
  /// checkpoint record. Smaller = finer resume granularity, more I/O.
  /// Ignored without checkpoint_path. Values < 1 are clamped to 1.
  int checkpoint_every = 4096;

  /// Source of the two global (inter-die) deviates. kPseudo reproduces the
  /// historical per-stream draws bit-for-bit; kSobol replaces them with
  /// scrambled-Sobol points indexed by slot. Either way sample i is a pure
  /// function of (seed, i), so thread/batch/resume invariance holds.
  McSampler sampler = McSampler::kPseudo;

  /// Importance-sampling shift of the global distribution (standardized
  /// units). Inactive by default. When active, McResult::weights holds the
  /// exact per-sample likelihood ratios and all statistics self-normalize.
  /// Mutually exclusive with control_variate (Error).
  IsShift is_shift;

  /// Correct leakage statistics with the SSTA conditional-mean control
  /// variate (mc/estimator.hpp). Does not change the sampled values — only
  /// adds McResult::cv_proxy_na and the cv_* estimators.
  bool control_variate = false;
};

struct McResult {
  /// Per-sample values of the *surviving* samples, in slot order. For a
  /// completed run with no quarantined samples — the historical common case
  /// — these hold all num_samples slots, exactly as before. Partial
  /// (deadline-stopped) or quarantine-hit runs compact out the missing
  /// slots, and the statistics below operate on what survived.
  std::vector<double> delay_ps;    ///< per-sample circuit delay
  std::vector<double> leakage_na;  ///< per-sample total leakage

  bool completed = true;              ///< false when the deadline expired
  std::uint64_t samples_requested = 0;
  std::uint64_t samples_done = 0;     ///< evaluated slots (incl. quarantined)
  std::uint64_t samples_restored = 0; ///< slots restored from the checkpoint
  std::vector<QuarantinedSample> quarantined;  ///< slot order

  /// Importance-sampling likelihood ratios, aligned with delay_ps /
  /// leakage_na. Empty (the default) means uniform weights — every
  /// statistic below then reduces to its historical unweighted form.
  std::vector<double> weights;

  /// Control-variate proxy X_i = E[L_total | global draw of slot i],
  /// aligned with leakage_na. Empty unless McConfig::control_variate.
  std::vector<double> cv_proxy_na;
  /// Exact analytic E[X] (= E[L_total]); 0 unless control_variate.
  double cv_proxy_mean_na = 0.0;

  /// Kish effective sample size (sum w)^2 / sum w^2. Equals the survivor
  /// count for unweighted runs; collapses toward 1 when the importance
  /// shift overshoots — report it next to any weighted estimate.
  double ess() const;

  /// Fraction of samples meeting the delay target, i.e. MC timing yield.
  /// With weights: the unbiased unnormalized estimator evaluated on the
  /// lower-variance side of the target (see weighted_fraction_below_est),
  /// which is what preserves the importance-sampling gain on tail
  /// probabilities.
  double timing_yield(double t_max_ps) const;
  /// Fraction of samples meeting BOTH the delay target and a leakage cap —
  /// the "sellable dies" metric of post-silicon compensation studies.
  double combined_yield(double t_max_ps, double leak_cap_na) const;
  /// Standard error of the yield estimate at the given target.
  double yield_stderr(double t_max_ps) const;

  SampleSummary delay_summary() const { return summarize(delay_ps); }
  SampleSummary leakage_summary() const { return summarize(leakage_na); }
  /// Weighted quantiles when weights are present, classic otherwise.
  double leakage_quantile_na(double p) const;
  double delay_quantile_ps(double p) const;

  /// 95% (default) confidence half-width of the mean-leakage / mean-delay
  /// estimate; weight-aware. The run report publishes these as
  /// mc.leakage_mean_ci_na / mc.delay_mean_ci_ps.
  double leakage_mean_ci_na(double confidence = 0.95) const;
  double delay_mean_ci_ps(double confidence = 0.95) const;

  /// Control-variate estimators (Error unless control_variate was on).
  /// beta = cov(L, X) / var(X), estimated from the surviving samples.
  double cv_beta() const;
  /// mean(L) - beta * (mean(X) - E[X]) — unbiased, lower-variance mean.
  double cv_leakage_mean_na() const;
  /// Quantile of the per-sample corrected values L_i - beta * (X_i - E[X]).
  double cv_leakage_quantile_na(double p) const;
};

/// Runs the Monte-Carlo analysis. Deterministic for a given config.
///
/// With an observability registry attached, records the "mc.samples" phase
/// wall time, counters ("mc.samples", "mc.sta_evals" — merged per shard,
/// not per sample), and an "mc" trace stream of up to 16 progress
/// milestones (cumulative sample count, running mean delay/leakage).
/// Quarantine adds "mc.quarantined*" counters; a deadline stop adds
/// "mc.samples_done" and marks the registry incomplete. Sample values are
/// bit-identical with and without a registry.
///
/// `arena` (nullable) carries batched-engine state — the FlatCircuit
/// snapshot, kernel constant tables, and per-worker scratch — across calls
/// evaluating the same frozen circuit (see mc/arena.hpp). Passing one is a
/// pure allocation optimization: sample values are bit-identical with and
/// without it.
McResult run_monte_carlo(const Circuit& circuit, const CellLibrary& lib,
                         const VariationModel& var, const McConfig& config,
                         obs::Registry* obs = nullptr,
                         McArena* arena = nullptr);

// --- shard-level building blocks (the distributed campaign runner) ---------
//
// Sample i is a pure function of (seed, i), so any process can compute any
// contiguous slot range independently and a coordinator can reassemble the
// population in any order — the merged result is byte-identical to a
// single-host run by construction. run_monte_carlo itself is implemented on
// the same two primitives: compute a range, then finalize the population.

/// Per-gate device widths (kInput slots hold -1), the Pelgrom scaling
/// input that is part of mc_checkpoint_hash's fingerprint. Exposed so the
/// distributed coordinator computes the same hash as the engine's draw.
std::vector<double> mc_device_widths(const Circuit& circuit,
                                     const CellLibrary& lib);

/// Throws statleak::Error when `config` asks for something only
/// run_monte_carlo implements: the Sobol sampler, an importance shift, the
/// control variate or a checkpoint file. The spatial and ABB engines call
/// it at entry, so such a request fails loudly instead of silently
/// returning plain pseudo-random dies. `engine` names the caller in the
/// message.
void require_plain_mc_config(const McConfig& config, const char* engine);

/// A slot-indexed population under assembly. run_monte_carlo builds one
/// locally; the distributed coordinator (src/dist/) assembles one from
/// worker shard blocks. Vectors are full population size; `done[s]` marks
/// slots whose values are trusted.
struct McPopulation {
  std::vector<double> delay_ps;
  std::vector<double> leakage_na;
  std::vector<std::uint8_t> done;
  std::uint64_t samples_restored = 0;  ///< slots restored from a checkpoint
};

/// Turns an assembled population into the McResult: done accounting, the
/// per-slot health scan (kFail throws, kQuarantine excises), the estimator
/// side-channels (importance weights / control-variate proxies, recomputed
/// from slot indices), survivor compaction and the obs gauges + progress
/// milestones. This is the single definition of "finalize" — the
/// single-host path and the distributed merge call the same function, so
/// their statistics cannot drift.
McResult finalize_mc_population(const Circuit& circuit, const CellLibrary& lib,
                                const VariationModel& var,
                                const McConfig& config, McPopulation&& pop,
                                obs::Registry* obs = nullptr);

/// Completed-block callback of run_monte_carlo_shard: slots
/// [begin, begin + delay.size()) with their final values. Invoked
/// concurrently from shard workers at McConfig::checkpoint_every cadence —
/// implementations must be thread-safe (CheckpointWriter::append and the
/// distributed worker's message send both are).
using McBlockSink = std::function<void(
    std::uint64_t begin, std::span<const double> delay,
    std::span<const double> leak)>;

/// One computed shard: values for slots [begin, end), locally indexed
/// (slot s lives at index s - begin). `done` marks computed slots — all of
/// them unless the deadline expired mid-shard.
struct McShardResult {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::vector<double> delay_ps;
  std::vector<double> leakage_na;
  std::vector<std::uint8_t> done;
  std::uint64_t samples_done = 0;
  bool completed = true;  ///< false when ExecConfig::deadline_ms expired
};

/// Computes slots [begin, end) of the config's population — the shard-range
/// entry point of the distributed runner. `config.num_samples` is still the
/// *total* population size (it pins the checkpoint hash and, with QMC, the
/// sample values are indexed by global slot); the range must lie inside it.
/// The shard is itself sharded over config.num_threads, honours the
/// deadline and health policy, and reports completed blocks through `sink`
/// (when set) exactly as they would be checkpointed. Values are
/// bit-identical to the same slots of a full run for any range cut, thread
/// count, or batch size.
McShardResult run_monte_carlo_shard(const Circuit& circuit,
                                    const CellLibrary& lib,
                                    const VariationModel& var,
                                    const McConfig& config,
                                    std::uint64_t begin, std::uint64_t end,
                                    const McBlockSink& sink = {},
                                    obs::Registry* obs = nullptr);

}  // namespace statleak
