/// \file rank_set.hpp
/// \brief The dirty set of the incremental timers: topo ranks in a bitset,
///        drained in rank order.
///
/// A dirty-cone walk recomputes a gate only after every gate that can move
/// its inputs. In topo-rank space that order is the rank order itself: a
/// fanout always has a higher rank than its gate, a fanin a lower one. So a
/// forward walk drains the set upward and its visits insert fanouts; a
/// backward walk drains it downward and its visits insert fanins. Every
/// inserted rank is visited once, and the set is empty when a drain
/// returns.
///
/// The set is one bit per rank plus the window of words that may hold a
/// set bit, so a drain scans the words the cone spans, not the whole
/// circuit. A visit that throws leaves its own rank, and every rank it did
/// not reach, in the set: the next drain resumes from there.
///
/// A walk that visits several ranks at once (the SSTA cone retime's
/// windows) steps through the set with first_from(), takes what it visited
/// out with erase(), and calls reset_window() once the set is empty.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace statleak {

class RankSet {
 public:
  static constexpr std::uint32_t npos = std::numeric_limits<std::uint32_t>::max();

  RankSet() = default;
  /// An empty set over ranks [0, n).
  explicit RankSet(std::uint32_t n) : words_((n + 63) / 64, 0) {}

  bool contains(std::uint32_t r) const {
    return (words_[r >> 6] >> (r & 63) & 1) != 0;
  }
  void insert(std::uint32_t r) {
    const std::size_t w = r >> 6;
    words_[w] |= std::uint64_t{1} << (r & 63);
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w);
  }
  void erase(std::uint32_t r) {
    words_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
  }
  /// The lowest rank >= r in the set, or npos.
  std::uint32_t first_from(std::uint32_t r) const {
    std::size_t w = std::max<std::size_t>(r >> 6, lo_);
    if (w > hi_) return npos;
    std::uint64_t bits = words_[w];
    if (w == r >> 6) bits &= ~std::uint64_t{0} << (r & 63);
    while (bits == 0) {
      if (++w > hi_) return npos;
      bits = words_[w];
    }
    return static_cast<std::uint32_t>((w << 6) + std::countr_zero(bits));
  }
  /// Forgets the word window. Only valid when no rank is in the set.
  void reset_window() {
    lo_ = kEmpty;
    hi_ = 0;
  }

  /// Removes every rank without visiting it.
  void clear() {
    for (std::size_t w = lo_; w <= hi_; ++w) words_[w] = 0;
    reset_window();
  }

  /// Visits every rank in increasing order. `visit(r)` may insert ranks
  /// above r, which this drain visits too.
  template <typename Visit>
  void drain_up(Visit&& visit) {
    for (std::size_t w = lo_; w <= hi_; ++w) {
      while (words_[w] != 0) {
        const int bit = std::countr_zero(words_[w]);
        visit(static_cast<std::uint32_t>((w << 6) + bit));
        words_[w] &= ~(std::uint64_t{1} << bit);
      }
    }
    reset_window();
  }

  /// Visits every rank in decreasing order. `visit(r)` may insert ranks
  /// below r, which this drain visits too.
  template <typename Visit>
  void drain_down(Visit&& visit) {
    for (std::size_t w = hi_ + 1; w-- > lo_;) {
      while (words_[w] != 0) {
        const int bit = 63 - std::countl_zero(words_[w]);
        visit(static_cast<std::uint32_t>((w << 6) + bit));
        words_[w] &= ~(std::uint64_t{1} << bit);
      }
    }
    reset_window();
  }

 private:
  static constexpr std::size_t kEmpty = std::numeric_limits<std::size_t>::max();

  std::vector<std::uint64_t> words_;
  /// Every set bit lies in words_[lo_ .. hi_]; lo_ > hi_ when none can.
  std::size_t lo_ = kEmpty;
  std::size_t hi_ = 0;
};

}  // namespace statleak
