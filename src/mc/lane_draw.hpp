/// \file lane_draw.hpp
/// \brief Intra-die draws of the batched Monte-Carlo engines, eight sample
///        lanes at a time.
///
/// Sample s draws from Rng::stream(seed, s): its die (global) deviates
/// first, then two normals per gate in GateId order — dL, then dVth.
/// FlatDraw (mc/sample_loop.hpp), the block draw of run_monte_carlo and the
/// ABB experiment, fills a block through draw_block. That draws each lane's
/// die in scalar code and hands groups of up to eight lanes, with their
/// streams positioned after the die draw, to draw_lane_group, which runs the
/// eight streams side by side (RngLanes) and stores each gate's lanes next
/// to each other in the gate-major dl/dv rows the kernels read, writing
/// sample_gate's expressions lane by lane:
///   dl = die.dl_nm  + (0.0 + sigma_l_intra   * z)
///   dv = die.dvth_v + (0.0 + sigma_vth_intra(w) * z')
/// so every lane equals the one-sample draw sequence of
/// tests/mc_scalar_oracle.hpp bit for bit.

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tech/variation.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace statleak {

/// Up to RngLanes::kWidth consecutive sample lanes, each with its stream
/// positioned after its die draw.
struct LaneGroup {
  std::array<Rng, RngLanes::kWidth> rng;
  std::array<GlobalSample, RngLanes::kWidth> die{};
  std::size_t count = 0;

  void push(const Rng& stream, const GlobalSample& die_sample) {
    rng[count] = stream;
    die[count] = die_sample;
    ++count;
  }
};

/// The per-gate intra-die sigmas of one run: sigma_l_intra_nm for every
/// gate, and sigma_vth_intra_for(width) of each gate.
struct IntraDieSigmas {
  double l_nm = 0.0;
  std::vector<double> vth_v;  ///< indexed by GateId

  IntraDieSigmas(const VariationModel& var, std::span<const double> widths);
};

/// Draws every gate's intra-die deviates for the lanes of `group` and
/// writes lane k of gate id to dl[id * stride + k] / dv[id * stride + k]
/// (k < group.count <= stride). `isa` picks the compiled variant (kAvx512
/// falls back to kBaseline on a host without AVX-512); both give the same
/// bits.
void draw_lane_group(SimdIsa isa, const LaneGroup& group,
                     const IntraDieSigmas& sigmas, double* dl, double* dv,
                     std::size_t stride);

/// Draws lanes [0, lanes) of one block into the gate-major rows dl/dv
/// (lanes <= stride). Lane k is sample `first_slot + k`: its stream is
/// Rng::stream(seed, slot) and its die is `die_draw(slot, rng)`, which may
/// draw from the stream; the per-gate draws then go eight lanes at a time
/// through draw_lane_group.
template <class DieDraw>
void draw_block(SimdIsa isa, std::uint64_t seed, std::size_t first_slot,
                std::size_t lanes, const DieDraw& die_draw,
                const IntraDieSigmas& sigmas, double* dl, double* dv,
                std::size_t stride) {
  for (std::size_t g0 = 0; g0 < lanes; g0 += RngLanes::kWidth) {
    LaneGroup group;
    const std::size_t g1 = std::min(lanes, g0 + RngLanes::kWidth);
    for (std::size_t lane = g0; lane < g1; ++lane) {
      const std::size_t slot = first_slot + lane;
      Rng rng = Rng::stream(seed, slot);
      const GlobalSample die = die_draw(slot, rng);
      group.push(rng, die);
    }
    draw_lane_group(isa, group, sigmas, dl + g0, dv + g0, stride);
  }
}

}  // namespace statleak
