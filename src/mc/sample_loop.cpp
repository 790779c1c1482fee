#include "mc/sample_loop.hpp"

#include <limits>

#include "util/rng.hpp"

namespace statleak {

FlatDraw::FlatDraw(const Circuit& circuit, const CellLibrary& lib,
                   const VariationModel& var, const McConfig& config)
    : var_(var),
      seed_(config.seed),
      shift_(config.is_shift),
      sigmas_(var, mc_device_widths(circuit, lib)) {
  // Scrambled-Sobol points for the two global dimensions; the intra-die
  // draws always stay on the per-sample pseudo-random streams. Point s is a
  // pure function of (seed, s), same determinism contract as Rng::stream.
  if (config.sampler == McSampler::kSobol) sobol_.emplace(config.seed);
}

void FlatDraw::operator()(const McBlock& block) const {
  // The historical pseudo path keeps the exact sample_global() call so
  // existing seeds reproduce bit-for-bit; the general path draws
  // standardized deviates (Sobol point or the same two stream normals),
  // applies the standardized importance shift, and scales. With pseudo +
  // shift the stream consumes the same two normals as before, so the
  // per-gate draws that follow are unchanged.
  const SobolSequence* qmc = sobol_ ? &*sobol_ : nullptr;
  const bool legacy_draw = qmc == nullptr && !shift_.active();
  const auto die_draw = [&](std::size_t s, Rng& rng) -> GlobalSample {
    GlobalSample die;
    if (legacy_draw) {
      die = sample_global(var_, rng);
    } else {
      const double zl = qmc != nullptr ? qmc->normal(s, 0) : rng.normal();
      const double zv = qmc != nullptr ? qmc->normal(s, 1) : rng.normal();
      die = {var_.sigma_l_inter_nm * (zl + shift_.l_sigma),
             var_.sigma_vth_inter_v * (zv + shift_.v_sigma)};
    }
    if (STATLEAK_FAULT_FIRES(fault::Point::kNanDeviate, s)) {
      die.dvth_v = std::numeric_limits<double>::quiet_NaN();
    }
    return die;
  };
  draw_block(block.isa, seed_, block.slot, block.lanes, die_draw, sigmas_,
             block.sc.dl.data(), block.sc.dv.data(), block.sc.block);
}

}  // namespace statleak
