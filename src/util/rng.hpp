/// \file rng.hpp
/// \brief Deterministic, fast pseudo-random number generation.
///
/// Monte-Carlo experiments must be reproducible across runs and platforms, so
/// statleak does not use std::mt19937 + std::normal_distribution (whose
/// normal_distribution output is implementation-defined). Instead we ship
/// xoshiro256++ (Blackman & Vigna) with an explicit splitmix64 seeder and our
/// own normal transform.
///
/// Normal deviates use a 256-layer ziggurat (Marsaglia & Tsang 2000, with
/// Doornik's fix of drawing the wedge test from a fresh uniform). The method
/// is *exact*: the fast path accepts a point uniformly inside a rectangle
/// that lies entirely under the density, the wedge path performs the exact
/// accept test against exp(-x^2/2), and the tail path is Marsaglia's exact
/// exponential-majorant sampler — so the output distribution is N(0, 1) to
/// the last bit of the accept/reject arithmetic, not an approximation.
/// ~98.5 % of draws take the fast path: one 64-bit draw, one table compare,
/// one multiply — about 5x cheaper than the Box–Muller transform used before
/// (which paid log + sqrt + sincos per pair). The layer index (bits 0..7),
/// the sign (bit 8) and the 53-bit mantissa (bits 11..63) come from disjoint
/// bits of one draw.
///
/// Determinism: the fast path is pure IEEE-754 arithmetic; the wedge/tail
/// paths call std::exp/std::log, so cross-*libm* bit reproducibility has the
/// same caveat the Box–Muller transform had. Within one toolchain the
/// sequence is bit-stable, which is what the MC determinism tests pin.

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "util/lane_ops.hpp"
#include "util/simd.hpp"

#if STATLEAK_AVX512_VARIANT
#include <immintrin.h>
#endif

namespace statleak {

/// Stateless splitmix64 finalizer: a high-quality 64-bit bijective mixer.
/// Building block of the counter-based stream derivation below.
std::uint64_t mix64(std::uint64_t x);

/// Counter-based stream derivation: the seed of logical stream `counter`
/// under master seed `seed`. Two mix64 rounds decorrelate streams even for
/// adjacent counters, and the result depends only on (seed, counter) — not
/// on how many draws any other stream consumed. This is what lets the
/// Monte-Carlo engine give sample i its own generator, making the output
/// independent of sample evaluation order and hence of the thread count.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t counter);

namespace detail {

/// Ziggurat tables (256 layers). `edge[i]` is the right edge of layer i
/// (edge[0] = v/f(r) is the pseudo-width of the base strip, edge[1] = r);
/// `fval[i] = exp(-edge[i]^2/2)`; `accept[i]` is the integer fast-accept
/// threshold and `scale[i] = edge[i] * 2^-53` maps a 53-bit mantissa onto
/// layer i. accept/scale are interleaved so the fast path touches one
/// cache line per draw.
struct ZigguratTables {
  struct Layer {
    std::uint64_t accept;
    double scale;
  };
  Layer layer[256];
  double edge[257];
  double fval[257];
};
/// Built once at static-initialization time (rng.cpp). Do not draw normal
/// deviates from other translation units' static initializers — the usual
/// cross-TU dynamic-initialization ordering caveat applies.
extern const ZigguratTables kZiggurat;

/// The four-word xoshiro256++ state of one stream.
using RngState = std::array<std::uint64_t, 4>;

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ step: advances `s` and returns its next output.
inline std::uint64_t xoshiro_next(RngState& s) {
  const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// Applies the sign encoded in bit 8 of `u` by flipping the IEEE sign bit
/// of `x` (branch-free; may produce -0.0, which compares equal to 0).
inline double apply_sign(double x, std::uint64_t u) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                               ((u & 256u) << 55));
}

/// accept[k] and scale[k] of ziggurat layer u[k] & 255, one table load per
/// lane.
STATLEAK_ALWAYS_INLINE void ziggurat_layers(const U64x8& u, U64x8& accept,
                                            F64x8& scale, BaselineLanes) {
  for (std::size_t k = 0; k < 8; ++k) {
    const ZigguratTables::Layer& layer = kZiggurat.layer[u[k] & 255u];
    accept[k] = layer.accept;
    scale[k] = layer.scale;
  }
}

#if STATLEAK_AVX512_VARIANT
/// The same loads as two eight-lane gathers. A Layer is 16 bytes, so the
/// index is twice the layer number at a stride of 8 bytes, from the first
/// `accept` and from the first `scale`.
STATLEAK_TARGET_AVX512 inline void ziggurat_layers(const U64x8& u,
                                                   U64x8& accept, F64x8& scale,
                                                   Avx512Lanes) {
  static_assert(sizeof(ZigguratTables::Layer) == 16);
  // The masked forms with a zero source: the plain ones start from an
  // undefined register, which GCC 12 reports as maybe-uninitialized.
  const __m512i index = (__m512i)((u & 255u) << 1);
  const ZigguratTables::Layer* base = kZiggurat.layer;
  accept = (U64x8)_mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xFF,
                                              index, &base->accept, 8);
  scale = (F64x8)_mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, index,
                                          &base->scale, 8);
}
#endif

/// Out-of-line ziggurat slow path of the stream with state `s`: boundary
/// re-check, wedge accept test, and the base-strip tail sampler. `u` is the
/// draw that fell out of the fast path; further draws advance `s`. The one
/// slow path behind both Rng::normal and RngLanes::normal.
double normal_slow(RngState& s, std::uint64_t u);

}  // namespace detail

/// xoshiro256++ PRNG. Satisfies UniformRandomBitGenerator. The draw methods
/// are header-inline: the Monte-Carlo engines consume two normals per gate
/// per sample, so call overhead is measurable there.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single 64-bit seed via splitmix64,
  /// guaranteeing a non-zero state for every seed value.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() { return detail::xoshiro_next(state_); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection-free
  /// bounded generation (bias < 2^-64, negligible for simulation use).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate via the 256-layer ziggurat (exact; see the
  /// file comment). One 64-bit draw on the ~98.5 % fast path.
  double normal() {
    const std::uint64_t u = (*this)();
    const std::uint64_t mantissa = u >> 11;
    const detail::ZigguratTables::Layer layer =
        detail::kZiggurat.layer[u & 255u];
    if (mantissa < layer.accept) [[likely]] {
      // The rectangle is entirely under the density: accept unconditionally.
      // Sign comes from bit 8, applied by flipping the IEEE sign bit.
      const double x = static_cast<double>(mantissa) * layer.scale;
      return detail::apply_sign(x, u);
    }
    return detail::normal_slow(state_, u);
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Splits off an independently seeded child generator. Used to give each
  /// Monte-Carlo worker / sample block its own stream.
  Rng split();

  /// Counter-derived generator for logical stream `counter` of `seed`:
  /// Rng(stream_seed(seed, counter)). Unlike split(), this does not consume
  /// state from any parent, so stream i is reproducible in isolation.
  static Rng stream(std::uint64_t seed, std::uint64_t counter) {
    return Rng(stream_seed(seed, counter));
  }

 private:
  friend class RngLanes;

  detail::RngState state_{};
};

/// Eight Rng streams drawn side by side: xoshiro256++ steps and the
/// ziggurat fast path run across all lanes at once, in GCC/Clang vector
/// types that compile to whatever vector width the calling function
/// targets. The batched Monte-Carlo draws (mc/lane_draw.hpp) use it.
///
/// Contract: lane k of one normal() call equals, bit for bit, the next
/// Rng::normal() of the stream lane k was seeded from. The fast path is the
/// scalar one per lane: the layer index comes from bits 0..7, the 53-bit
/// mantissa is compared with `accept` and converted to double exactly (it
/// is below 2^53, so signed and unsigned conversion agree), multiplied by
/// `scale`, and signed from bit 8. The ~1.5 % of lane draws that miss it
/// finish in detail::normal_slow on that lane's own state — the function
/// Rng::normal falls back to. Lanes past the seeded count are idle: they
/// step a zero state and never take the slow path.
///
/// The constructor and normal() are always inlined, so a caller compiled
/// for a wider target (STATLEAK_TARGET_AVX512, util/simd.hpp) runs the
/// generator at its width. Such a caller passes its ISA tag
/// (util/lane_ops.hpp): the AVX-512 variant gathers the eight layers'
/// `accept` and `scale` with two gathers, the baseline loads them lane by
/// lane. The loads decide no bit. Vectors cross function boundaries only by
/// reference: passing one by value would change the ABI between variants.
class RngLanes {
 public:
  static constexpr std::size_t kWidth = 8;
  typedef std::uint64_t U64x4 __attribute__((vector_size(32)));
  typedef std::uint64_t U64x2 __attribute__((vector_size(16)));

  /// Lane k continues `streams[k]`; at most kWidth streams.
  STATLEAK_ALWAYS_INLINE explicit RngLanes(std::span<const Rng> streams) {
    for (std::size_t k = 0; k < kWidth; ++k) {
      const bool seeded = k < streams.size();
      for (std::size_t w = 0; w < 4; ++w) {
        s_[w][k] = seeded ? streams[k].state_[w] : 0;
      }
      active_[k] = seeded ? -1 : 0;
    }
  }

  /// Sets z[k] to the next standard normal deviate of lane k.
  STATLEAK_ALWAYS_INLINE void normal(F64x8& z) { normal(z, BaselineLanes{}); }

  template <typename Isa>
  STATLEAK_ALWAYS_INLINE void normal(F64x8& z, Isa isa) {
    U64x8 u = s_[0] + s_[3];
    rotl_(u, 23);
    u += s_[0];
    const U64x8 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    rotl_(s_[3], 45);

    U64x8 accept = {};
    F64x8 scale = {};
    detail::ziggurat_layers(u, accept, scale, isa);
    // Casts between equal-size vector types reinterpret the bits.
    const I64x8 mantissa = (I64x8)(u >> 11);
    const I64x8 hit = mantissa < (I64x8)accept;
    const F64x8 x = __builtin_convertvector(mantissa, F64x8) * scale;
    z = (F64x8)((U64x8)x ^ ((u & 256u) << 55));
    // Bit k of `miss` marks a seeded lane that left the fast path.
    const U64x8 lane_bit = {1, 2, 4, 8, 16, 32, 64, 128};
    const U64x8 bits = (U64x8)(~hit & active_) & lane_bit;
    const U64x4 half = __builtin_shufflevector(bits, bits, 0, 1, 2, 3) |
                       __builtin_shufflevector(bits, bits, 4, 5, 6, 7);
    const U64x2 quarter = __builtin_shufflevector(half, half, 0, 1) |
                          __builtin_shufflevector(half, half, 2, 3);
    const auto miss = static_cast<unsigned>(quarter[0] | quarter[1]);
    if (miss != 0) [[unlikely]] slow_(u, miss, z);
  }

 private:
  STATLEAK_ALWAYS_INLINE static void rotl_(U64x8& x, int k) {
    x = (x << k) | (x >> (64 - k));
  }

  /// Finishes the draws `u` of the lanes whose bit is set in `miss` in the
  /// scalar slow path, each on its own lane's state. Out of line: it runs
  /// for ~11 % of the calls.
  [[gnu::noinline]] void slow_(const U64x8& u, unsigned miss, F64x8& z) {
    do {
      const int k = std::countr_zero(miss);
      miss &= miss - 1;
      detail::RngState st{s_[0][k], s_[1][k], s_[2][k], s_[3][k]};
      z[k] = detail::normal_slow(st, u[k]);
      for (std::size_t w = 0; w < 4; ++w) s_[w][k] = st[w];
    } while (miss != 0);
  }

  U64x8 s_[4];
  I64x8 active_;  ///< all ones in the seeded lanes, zero in idle ones
};

}  // namespace statleak
