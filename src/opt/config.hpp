/// \file config.hpp
/// \brief Configuration and result types shared by both optimizers.

#pragma once

#include <cstddef>
#include <string>

#include "util/exec.hpp"

namespace statleak {

/// Common optimizer knobs. Execution knobs (`num_threads`, `seed`) come
/// from ExecConfig; both optimizers are deterministic greedy searches, so
/// `seed` is currently unused and `num_threads` never changes the result
/// (see the field's own comment below).
struct OptConfig : ExecConfig {
  /// Circuit delay target [ps].
  double t_max_ps = 0.0;

  /// Timing-yield target eta for the statistical optimizer:
  /// P(delay <= t_max) >= eta.
  double yield_target = 0.99;

  /// Percentile of the total-leakage distribution the statistical optimizer
  /// minimizes (0.99 in the paper's headline experiments). Set to 0.5 to
  /// optimize the median instead.
  double leakage_percentile = 0.99;

  /// Deterministic optimizer's guard-band: all gates evaluated at this
  /// k-sigma slow process excursion. 0 = nominal-corner optimization.
  double corner_k_sigma = 0.0;

  /// Safety margin [ps] subtracted from slack in deterministic accept tests
  /// (guards the strictly-greedy loop against load-coupling second-order
  /// effects).
  double slack_margin_ps = 0.1;

  /// Hard iteration cap as a multiple of the cell count.
  double max_iterations_factor = 24.0;

  /// Rounds of the assignment phase; locked moves are retried once per
  /// round because downsizing can free up timing room elsewhere.
  int assignment_rounds = 3;

  /// Candidate block size K for the statistical optimizer's batched move
  /// pricing (opt/batch_score.hpp). <= 0 selects the default (64).
  /// Per-candidate pricing is independent, so any K yields the same
  /// trajectory; it only shapes the SoA working set the vectorized stages
  /// stream over.
  int candidate_block = 0;

  /// Journal file for the statistical optimizer's durable checkpoint/resume
  /// (opt/checkpoint.hpp). Empty = no journaling. When the file already
  /// exists and validates against the run's fingerprint, the run resumes:
  /// the committed trajectory is replayed and the final implementation is
  /// bit-identical to an uninterrupted run.
  std::string checkpoint_path;

  /// Implementation-snapshot cadence of the optimizer journal, counted in
  /// committed moves (must be >= 1 when checkpoint_path is set). Snapshots
  /// are integrity cross-checks, not replay state, so the cadence is
  /// trajectory-invariant and deliberately excluded from the fingerprint —
  /// a journal written at one cadence resumes under any other.
  int checkpoint_every = 256;

  // ExecConfig::num_threads drives the statistical optimizer's
  // candidate-scoring loops. Scoring is read-only per candidate and
  // sharded by gate index with an in-order reduction, so the chosen
  // moves — and thus the OptResult — are identical for every thread count.
};

/// What an optimizer run did.
struct OptResult {
  /// False when ExecConfig::deadline_ms expired mid-run: the loops stopped
  /// cleanly at an iteration boundary and the circuit carries the best
  /// implementation reached so far (always a valid implementation point —
  /// commits are atomic), but the schedule did not finish.
  bool completed = true;
  bool feasible = false;       ///< constraint met at the optimizer's own model
  int sizing_commits = 0;      ///< phase-1 upsizing moves
  int hvt_commits = 0;         ///< gates moved to high Vth
  int downsize_commits = 0;    ///< downsizing moves
  int rejected_moves = 0;      ///< tentative moves undone
  int iterations = 0;          ///< optimization loop iterations
  /// Committed decisions replayed from an optimizer journal instead of
  /// being re-scored (0 on a fresh run; statistical optimizer only).
  int replayed_moves = 0;
  double final_objective = 0.0;  ///< optimizer's own objective at exit
                                 ///< (corner leakage / leakage percentile)
  std::string note;            ///< human-readable outcome summary
};

}  // namespace statleak
