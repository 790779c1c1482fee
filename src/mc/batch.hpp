/// \file batch.hpp
/// \brief Per-worker scratch and block-size policy for batched Monte-Carlo.
///
/// The batched engines evaluate B samples ("lanes") at a time through the
/// gate-major kernels. Each worker owns one BatchScratch: the gate-major
/// deviation blocks (dl/dv), which the lane-parallel draws
/// (mc/lane_draw.hpp) fill eight lanes at a time, the arrival scratch, and
/// the per-lane outputs — allocated once per run, reused across blocks, so
/// the sample loop is allocation-free. Because lanes never interact (see
/// batch_delay.hpp), the block size affects performance only, never
/// results.

#pragma once

#include <cstddef>
#include <vector>

namespace statleak {

/// Scratch for one worker evaluating blocks of up to `block` lanes over a
/// `num_gates`-gate circuit.
struct BatchScratch {
  std::vector<double> dl;       ///< [num_gates * block], gate-major
  std::vector<double> dv;       ///< [num_gates * block], gate-major
  std::vector<double> arrival;  ///< [num_gates * block], gate-major
  std::vector<double> delay_out;  ///< [block]
  std::vector<double> leak_out;   ///< [block]
  std::size_t block = 0;

  void resize(std::size_t num_gates, std::size_t block_size);
};

/// Resolves a requested batch size: a positive request is taken as-is;
/// 0 picks an automatic size that keeps the three gate-major blocks around
/// 3 MiB (L2-resident on current cores), clamped to [8, 64] and rounded
/// down to a multiple of 8, so auto blocks hold whole groups of draw lanes
/// (32 on the 3.5k-gate c7552p). Throws statleak::Error on negative
/// requests.
std::size_t resolve_batch_size(int requested, std::size_t num_gates);

}  // namespace statleak
