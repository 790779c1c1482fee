/// \file clark_lanes.hpp
/// \brief The fanin Clark max and own-delay sum of eight gates at once.
///
/// The SSTA cone retime (ssta/flat_incremental.hpp) spends most of its time
/// in one expression per gate: the iterated Clark max over the fanin
/// arrivals, then Canonical::sum with the gate's own delay. clark_fold_x8
/// evaluates it for eight gates side by side, one gate per lane of an
/// F64x8 (util/simd.hpp), with the in-repo exp and erfc (util/exp.hpp,
/// util/erfc.hpp).
///
/// Every lane runs the general Clark formula of canonical_max_saturating
/// (ssta/delay_model.hpp) without branches: the degenerate case is blended
/// in by mask, and the saturated fast paths need no lane of their own,
/// because the saturation proof at kClarkSaturationAlpha shows that the
/// general formula gives their bits (tests/clark_saturation_test.cpp pins
/// that for the scalar forms). Lanes of gates with fewer operands than the
/// batch's widest are masked out of the later chain steps, whose weight
/// algebra is clark_max_chain_saturating's (x * 1.0 == x, so rescaling by a
/// tightness of 1.0 equals skipping it). So lane k equals the scalar
/// fold of its gate bit for bit (tests/clark_lanes_test.cpp).
///
/// The body is compiled twice, for a baseline and an AVX-512 target, and
/// the caller picks the variant; the square roots come from a real vector
/// instruction in both (sqrtpd on SSE2, vsqrtpd on AVX-512), and every
/// square root is correctly rounded, so the variants give the same bits.

#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace statleak {

/// Eight canonical forms side by side: lane k of each field is one form.
/// Plain arrays, not F64x8: a vector type's alignment differs between a
/// baseline and an AVX-512 function, so the kernel copies them into its
/// own vectors.
struct CanonicalLanes {
  double mean[8];
  double gl[8];
  double gv[8];
  double loc[8];
};

/// The most operands one lane fold takes (the widest cell has four pins).
inline constexpr std::size_t kLaneMaxFanins = 4;

/// For every lane k, with n = deg[k] (2 <= n <= width <= kLaneMaxFanins):
/// out[k] = Canonical::sum(clark_max_chain_saturating(ops[0..n)[k], w),
/// delay[k]), and weights[i][k] = w[i] for i < n (weights[i][k] for i >= n
/// is unspecified). `ops` holds `width` operand lanes. Lanes past the
/// caller's last gate compute garbage that nobody reads; they must hold
/// finite values. `isa` kAvx512 runs the AVX-512 variant when the host has
/// it, the baseline otherwise.
void clark_fold_x8(SimdIsa isa, const CanonicalLanes* ops, std::size_t width,
                   const std::int64_t* deg, const CanonicalLanes& delay,
                   CanonicalLanes& out, double (*weights)[8]);

/// The weights of an m-operand Clark chain fold from its per-step
/// tightness (tight[0] is unused): the recurrence of clark_max_chain, w[0]
/// = 1.0, then for i = 1 .. m-1 every w[j < i] is multiplied by tight[i]
/// and w[i] = 1.0 - tight[i]. A row whose tightness is exactly 1.0 scales
/// nothing (x * 1.0 == x) and is skipped. The other rows are applied eight
/// at a time: each block's factors multiply every weight below it in a
/// register, in row order, so each weight sees the multiplications of the
/// row-by-row recurrence in the same order and gets its bits, while the
/// array is swept once per block instead of once per row. `isa` picks the
/// variant as clark_fold_x8 does; both give the same bits. m >= 1.
void clark_chain_weights(SimdIsa isa, const double* tight, std::size_t m,
                         double* w);

}  // namespace statleak
