/// \file sample_loop.hpp
/// \brief The block loop of the batched Monte-Carlo engine, and the settle
///        step that turns its slot-indexed output into a population.
///
/// run_monte_carlo (with its shard entry point), run_abb_experiment and
/// run_monte_carlo_spatial evaluate dies the same way. run_mc_blocks shards
/// a slot range over McConfig::num_threads and cuts each shard into blocks
/// of resolve_batch_size lanes. For each block it draws the deviates into
/// the worker's gate-major scratch, runs the delay and leakage kernels, and
/// writes lane k's values to slot `first + k`. It also owns the fault
/// tolerance around that loop:
///   - the deadline, checked at block boundaries (a clean stop), and the
///     stop flag the workers share;
///   - the done mask: blocks already marked done (restored from a
///     checkpoint) are skipped, computed runs are marked and handed to the
///     sink at McConfig::checkpoint_every cadence;
///   - the kShardStall fault point;
///   - the mc.draw / mc.delay_kernel / mc.leak_kernel layer timers;
///   - the fail-fast health throw.
/// The entry points differ only in how a block is drawn (FlatDraw, or the
/// spatial model's regional draw), what else they do with it (ABB sweeps its
/// bias ladder through McBlock::evaluate) and what makes a slot unhealthy.
///
/// Slot values depend only on (seed, slot), never on the range cut, the
/// thread count or the batch size: lanes of one block are consecutive
/// samples that never interact, and each worker writes only its own slots.
///
/// settle_population is the one step after the loop: it counts the done
/// slots, scans their health under the policy and compacts the survivors,
/// in as many paired columns as the caller keeps.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "cells/library.hpp"
#include "mc/arena.hpp"
#include "mc/batch.hpp"
#include "mc/lane_draw.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/circuit.hpp"
#include "obs/registry.hpp"
#include "tech/variation.hpp"
#include "util/exec.hpp"
#include "util/fault.hpp"
#include "util/health.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/sobol.hpp"

namespace statleak {

/// One block of lanes, as the draw and the per-block hook see it. Lane k is
/// slot `slot + k`, and its values live at index `local + k` of the range's
/// arrays. The deviates are the gate-major rows sc.dl / sc.dv (stride
/// sc.block).
struct McBlock {
  std::size_t slot;
  std::size_t local;
  std::size_t lanes;
  SimdIsa isa;
  BatchScratch& sc;
  const BatchDelayKernel& delay_kernel;
  const BatchLeakageKernel& leak_kernel;
  bool exact_delay;
  obs::LocalPhase& delay_time;
  obs::LocalPhase& leak_time;

  /// Runs the delay and then the leakage kernel over the block's deviates,
  /// with a uniform dVth shift when `dvth_shift` is set, into
  /// sc.delay_out / sc.leak_out. Timed as mc.delay_kernel / mc.leak_kernel.
  void evaluate(const double* dvth_shift) const {
    delay_time.start();
    delay_kernel.critical_delay_block(sc.dl.data(), sc.dv.data(), sc.block,
                                      lanes, exact_delay, dvth_shift,
                                      sc.arrival.data(), sc.delay_out.data());
    delay_time.stop();
    leak_time.start();
    leak_kernel.total_block(sc.dl.data(), sc.dv.data(), sc.block, lanes,
                            dvth_shift, sc.leak_out.data());
    leak_time.stop();
  }
};

/// The flat engine's block draw. Each lane draws its die from
/// Rng::stream(seed, slot): the historical sample_global call on the plain
/// pseudo-random path, otherwise a Sobol point or the stream's two normals
/// under the importance shift. The kNanDeviate fault point poisons the
/// die's dVth. The per-gate draws then go eight lanes at a time through
/// draw_block. Safe to call from every worker at once.
class FlatDraw {
 public:
  FlatDraw(const Circuit& circuit, const CellLibrary& lib,
           const VariationModel& var, const McConfig& config);
  void operator()(const McBlock& block) const;

 private:
  const VariationModel& var_;
  std::uint64_t seed_;
  IsShift shift_;
  std::optional<SobolSequence> sobol_;
  IntraDieSigmas sigmas_;
};

/// The slots one run_mc_blocks call computes, and where it writes them.
/// Every array is indexed by local slot (slot - first).
struct McSlotRange {
  std::size_t first = 0;
  std::size_t last = 0;
  double* delay = nullptr;  ///< unbiased delay of each computed slot
  double* leak = nullptr;   ///< unbiased leakage of each computed slot
  /// In: slots already done (restored); a block of them is skipped whole.
  /// Out: every computed slot is marked too.
  std::uint8_t* done = nullptr;
};

/// Registry counters of one entry point; the layer timers are shared.
struct McLoopCounters {
  const char* batches;            ///< +1 per evaluated block
  const char* evals = nullptr;    ///< +lanes * evals_per_lane per block
  double evals_per_lane = 1.0;
};

/// Computes the slots of `range` (see the file comment). Per block:
/// draw(block) fills the deviates, the unbiased kernels run and their
/// values land in range.delay / range.leak, then on_block(block) runs, then
/// under HealthPolicy::kFail health(local) of each lane (0 = healthy)
/// decides whether to stop and throw NumericalError. `sink` (may be empty)
/// receives each computed run. `arena` (nullable) carries the kernels and
/// scratch across calls.
template <class Draw, class OnBlock, class Health>
void run_mc_blocks(const Circuit& circuit, const CellLibrary& lib,
                   const McConfig& config, const McSlotRange& range,
                   const McLoopCounters& counters, const Draw& draw,
                   const OnBlock& on_block, const Health& health,
                   const McBlockSink& sink, obs::Registry* obs,
                   McArena* arena = nullptr) {
  const std::size_t n = circuit.num_gates();
  McArena local_arena;
  McArena& ar = arena != nullptr ? *arena : local_arena;
  ar.prepare(circuit, lib, resolve_num_threads(config.num_threads), obs);
  const std::size_t block = resolve_batch_size(config.batch_size, n);
  if (obs != nullptr) obs->note_config("mc.kernel_isa", to_string(ar.isa));

  const std::size_t flush_every =
      static_cast<std::size_t>(std::max(1, config.checkpoint_every));
  const Deadline deadline(config.deadline_ms);
  std::atomic<bool> stop{false};
  const bool fail_fast = config.health_policy == HealthPolicy::kFail;

  // Marks the computed local run [lo, hi) done and hands it to the sink.
  // Workers flush disjoint runs, so no lock is needed beyond the sink's own.
  const auto flush = [&range, &sink](std::size_t lo, std::size_t hi) {
    if (hi <= lo) return;
    std::fill(range.done + lo, range.done + hi, std::uint8_t{1});
    if (sink) {
      sink(range.first + lo, std::span<const double>(range.delay + lo, hi - lo),
           std::span<const double>(range.leak + lo, hi - lo));
    }
  };

  parallel_for(
      config.num_threads, range.last - range.first,
      [&](std::size_t begin, std::size_t end, int worker) {
        // Per-thread accumulation: one registry merge per shard, so the
        // workers never contend on the registry mutex inside the loop.
        obs::LocalCounter batches(obs, counters.batches);
        obs::LocalCounter evals(counters.evals != nullptr ? obs : nullptr,
                                counters.evals);
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
          // A fully restored block is skipped outright. A partially
          // restored one (a checkpoint record may end mid-block) is
          // recomputed whole; the recomputed values are bitwise the
          // restored ones, so correctness never depends on the cut.
          if (std::all_of(range.done + s0, range.done + s0 + lanes,
                          [](std::uint8_t d) { return d != 0; })) {
            flush(run_begin, s0);
            run_begin = s0 + lanes;
            covered = s0 + lanes;
            continue;
          }
          STATLEAK_FAULT_STALL(fault::Point::kShardStall, range.first + s0);
          const McBlock b{range.first + s0, s0, lanes, ar.isa, sc,
                          *ar.delay, *ar.leak, config.exact_delay,
                          delay_time, leak_time};
          draw_time.start();
          draw(b);
          draw_time.stop();
          b.evaluate(nullptr);
          std::copy_n(sc.delay_out.begin(), lanes, range.delay + s0);
          std::copy_n(sc.leak_out.begin(), lanes, range.leak + s0);
          on_block(b);
          for (std::size_t lane = 0; fail_fast && lane < lanes; ++lane) {
            const std::uint8_t cause = health(s0 + lane);
            if (cause != 0) {
              stop.store(true, std::memory_order_relaxed);
              throw_sample_health(range.first + s0 + lane, cause);
            }
          }
          evals.add(static_cast<double>(lanes) * counters.evals_per_lane);
          batches.add();
          covered = s0 + lanes;
          if (covered - run_begin >= flush_every) {
            flush(run_begin, covered);
            run_begin = covered;
          }
        }
        flush(run_begin, covered);
        // Merged in pipeline order, so the report lists them that way.
        draw_time.flush();
        delay_time.flush();
        leak_time.flush();
      });
}

/// Calls visit(s) for every done slot s that is not quarantined, in slot
/// order. `quarantined` is in slot order.
template <class Visit>
void for_each_survivor(std::span<const std::uint8_t> done,
                       std::span<const QuarantinedSample> quarantined,
                       const Visit& visit) {
  std::size_t q = 0;  // cursor into the quarantine list
  for (std::size_t s = 0; s < done.size(); ++s) {
    if (done[s] == 0) continue;
    if (q < quarantined.size() && quarantined[q].slot == s) {
      ++q;
      continue;
    }
    visit(s);
  }
}

/// Settles a slot-indexed population into `result`. Sets samples_requested
/// (the mask's size), samples_done and completed from the done mask. Scans
/// health(s) of each done slot (0 = healthy): kFail throws NumericalError,
/// kQuarantine records the slot in result.quarantined. Then compacts
/// result.delay_ps, result.leakage_na and every extra column down to the
/// survivors, in slot order, so paired columns stay paired. A complete,
/// healthy population is left untouched.
template <class Health>
void settle_population(std::span<const std::uint8_t> done,
                       HealthPolicy policy, const Health& health,
                       McResult& result,
                       std::initializer_list<std::vector<double>*> extra = {}) {
  std::uint64_t done_count = 0;
  for (std::size_t s = 0; s < done.size(); ++s) {
    if (done[s] == 0) continue;
    ++done_count;
    const std::uint8_t cause = health(s);
    if (cause == 0) continue;
    if (policy == HealthPolicy::kFail) throw_sample_health(s, cause);
    result.quarantined.push_back(
        {static_cast<std::uint64_t>(s), static_cast<HealthCause>(cause)});
  }
  result.samples_requested = done.size();
  result.samples_done = done_count;
  result.completed = done_count == done.size();
  if (result.completed && result.quarantined.empty()) return;

  const auto compact = [&](std::vector<double>& column) {
    std::size_t out = 0;
    for_each_survivor(done, result.quarantined,
                      [&](std::size_t s) { column[out++] = column[s]; });
    column.resize(out);
  };
  compact(result.delay_ps);
  compact(result.leakage_na);
  for (std::vector<double>* column : extra) compact(*column);
}

}  // namespace statleak
