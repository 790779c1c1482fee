#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace statleak {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  return mix64(x);
}

// Ziggurat layout constants for N = 256 layers over the standard normal
// density f(x) = exp(-x^2/2) (unnormalized): kTailStart is the right edge
// of the base strip and kStripArea the common area of every strip,
// including the tail mass (Marsaglia & Tsang 2000).
constexpr double kTailStart = 3.6541528853610088;
constexpr double kStripArea = 0.00492867323399011;

detail::ZigguratTables build_ziggurat() {
  detail::ZigguratTables z;
  const auto density = [](double x) { return std::exp(-0.5 * x * x); };
  // edge[i] descends from the base pseudo-width edge[0] = v/f(r) through
  // edge[1] = r to edge[256] = 0; each recursion step keeps strip areas
  // equal: v = edge[i] * (f(edge[i+1]) - f(edge[i])).
  z.edge[1] = kTailStart;
  z.edge[0] = kStripArea / density(kTailStart);
  for (int i = 1; i < 256; ++i) {
    z.edge[i + 1] =
        std::sqrt(-2.0 * std::log(kStripArea / z.edge[i] + density(z.edge[i])));
  }
  z.edge[256] = 0.0;
  for (int i = 0; i <= 256; ++i) z.fval[i] = density(z.edge[i]);
  for (int i = 0; i < 256; ++i) {
    z.layer[i].scale = z.edge[i] * 0x1.0p-53;
    // mantissa < accept  =>  mantissa * scale < edge[i+1]: the point lands
    // in the rectangle fully under the curve (floor keeps this sound; the
    // boundary mantissa goes to the slow path, which re-checks exactly).
    z.layer[i].accept =
        static_cast<std::uint64_t>(0x1.0p53 * z.edge[i + 1] / z.edge[i]);
  }
  return z;
}

}  // namespace

namespace detail {
const ZigguratTables kZiggurat = build_ziggurat();
}  // namespace detail

std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t counter) {
  // Weyl-step both inputs with distinct odd constants before mixing so that
  // (seed, counter) and (seed + 1, counter - 1)-style collisions cannot
  // alias, then finalize; mix64 is bijective, so distinct counters under one
  // seed always yield distinct stream seeds.
  return mix64(mix64(seed + 0x9E3779B97F4A7C15ull) ^
               (counter + 1) * 0xD1B54A32D192ED03ull);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  STATLEAK_CHECK(n > 0, "uniform_index requires n > 0");
  // Lemire's method: map a 64-bit draw into [0, n) via 128-bit multiply.
  const unsigned __int128 product =
      static_cast<unsigned __int128>((*this)()) * n;
  return static_cast<std::uint64_t>(product >> 64);
}

namespace detail {

double normal_slow(RngState& s, std::uint64_t u) {
  const ZigguratTables& z = kZiggurat;
  // Uniform double in [0, 1), as Rng::uniform().
  const auto uniform = [&s] {
    return static_cast<double>(xoshiro_next(s) >> 11) * 0x1.0p-53;
  };
  for (;;) {
    const std::size_t i = u & 255u;
    const double x = static_cast<double>(u >> 11) * z.layer[i].scale;
    if (x < z.edge[i + 1]) {
      // The integer fast-accept threshold is floored, so the exact boundary
      // mantissa lands here; it is still inside the sub-rectangle.
      return apply_sign(x, u);
    }
    if (i == 0) {
      // Base strip beyond r: Marsaglia's exact tail sampler. Guard the
      // uniforms away from 0 to keep log() finite.
      for (;;) {
        double u1 = uniform();
        while (u1 <= 0.0) u1 = uniform();
        double u2 = uniform();
        while (u2 <= 0.0) u2 = uniform();
        const double ex = -std::log(u1) / kTailStart;
        const double ey = -std::log(u2);
        if (ey + ey > ex * ex) return apply_sign(kTailStart + ex, u);
      }
    }
    // Wedge: exact accept test against the density, with a fresh uniform
    // for the ordinate (Doornik's correction — never reuse mantissa bits).
    const double y = z.fval[i] + uniform() * (z.fval[i + 1] - z.fval[i]);
    if (y < std::exp(-0.5 * x * x)) return apply_sign(x, u);
    u = xoshiro_next(s);  // rejected: redraw layer, sign and mantissa together
  }
}

}  // namespace detail

Rng Rng::split() {
  // Derive a child seed from two fresh outputs; xor with an odd constant so
  // the child stream differs even if outputs collide with the parent seed.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(a ^ detail::rotl(b, 31) ^ 0xA5A5A5A5A5A5A5A5ull);
}

}  // namespace statleak
