#include "mc/batch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace statleak {

void BatchScratch::resize(std::size_t num_gates, std::size_t block_size) {
  block = block_size;
  dl.assign(num_gates * block_size, 0.0);
  dv.assign(num_gates * block_size, 0.0);
  arrival.assign(num_gates * block_size, 0.0);
  delay_out.assign(block_size, 0.0);
  leak_out.assign(block_size, 0.0);
}

std::size_t resolve_batch_size(int requested, std::size_t num_gates) {
  STATLEAK_CHECK(requested >= 0, "batch size must be non-negative (0 = auto)");
  if (requested > 0) return static_cast<std::size_t>(requested);
  // Auto: three num_gates * B double arrays ~ 3 MiB total => B ~ 2^17 / n,
  // clamped so tiny circuits still amortize per-block overhead and huge
  // ones still block, and rounded down to whole groups of the eight lanes
  // the draws run side by side (mc/lane_draw.hpp).
  const std::size_t n = std::max<std::size_t>(num_gates, 1);
  const std::size_t b =
      std::clamp<std::size_t>((std::size_t{1} << 17) / n, 8, 64);
  return b / 8 * 8;
}

}  // namespace statleak
