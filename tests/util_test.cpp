// Unit tests for statleak_util: RNG, normal distribution, statistics,
// Clark's max, lognormal, and the table formatter.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <numeric>

#include "util/clark.hpp"
#include "util/error.hpp"
#include "util/exec.hpp"
#include "util/lognormal.hpp"
#include "util/normal.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/tree_sum.hpp"

namespace statleak {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.uniform());
  EXPECT_NEAR(rs.mean(), 0.5, 0.01);
  EXPECT_NEAR(rs.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
  EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, UniformIndexRoughlyUniform) {
  Rng rng(19);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(rng.normal());
  EXPECT_NEAR(rs.mean(), 0.0, 0.01);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.01);
}

TEST(Rng, NormalZigguratTailAndSymmetry) {
  // The ziggurat sampler must be exact in the tails (Marsaglia exponential
  // tail sampler beyond r ~ 3.654) and symmetric (sign comes from an
  // independent bit). P(|X| > 3) = 0.0026998 for a standard normal.
  Rng rng(11);
  const int n = 2000000;
  int beyond3 = 0;
  int beyond_r = 0;  // exercises the exact tail path
  int positive = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    if (std::abs(x) > 3.0) ++beyond3;
    if (std::abs(x) > 3.6541528853610088) ++beyond_r;
    if (x > 0.0) ++positive;
  }
  EXPECT_NEAR(static_cast<double>(beyond3) / n, 0.0026998, 3e-4);
  // P(|X| > r) ~ 2.57e-4: the tail path must actually produce samples.
  EXPECT_GT(beyond_r, 200);
  EXPECT_NEAR(static_cast<double>(beyond_r) / n, 2.57e-4, 8e-5);
  EXPECT_NEAR(static_cast<double>(positive) / n, 0.5, 0.002);
}

TEST(Rng, NormalKurtosisMatchesGaussian) {
  // Fourth moment: E[X^4] = 3 for N(0,1). A wedge/tail bug (the classic
  // Monty Python / ziggurat pitfalls) shows up here before it shows in the
  // variance.
  Rng rng(13);
  const int n = 1000000;
  double m2 = 0.0;
  double m4 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    m2 += x * x;
    m4 += x * x * x * x;
  }
  m2 /= n;
  m4 /= n;
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.03);
}

/// Draws `draws` lane-parallel normals from `streams` and compares each
/// lane with the next Rng::normal() of its own stream, bit for bit. Returns
/// the largest |z| seen, so callers can check the tail path was exercised.
double expect_lanes_match_streams(const std::vector<Rng>& streams,
                                  int draws) {
  RngLanes lanes(streams);
  std::vector<Rng> ref = streams;
  F64x8 z = {};
  double max_abs = 0.0;
  for (int i = 0; i < draws; ++i) {
    lanes.normal(z);
    for (std::size_t k = 0; k < ref.size(); ++k) {
      const double want = ref[k].normal();
      if (std::bit_cast<std::uint64_t>(z[k]) !=
          std::bit_cast<std::uint64_t>(want)) {
        ADD_FAILURE() << "lane " << k << " draw " << i << ": " << z[k]
                      << " vs " << want;
        return max_abs;
      }
      max_abs = std::max(max_abs, std::abs(want));
    }
  }
  return max_abs;
}

TEST(Rng, LanesMatchPerLaneStreams) {
  // Lane k of RngLanes is the next Rng::normal() of lane k's stream, bit
  // for bit — including the ~1.5 % of draws that leave the fast path for
  // the wedge or the tail. The streams start unevenly advanced, as the
  // engines hand them over after each lane's die draw.
  std::vector<Rng> streams;
  for (std::uint64_t k = 0; k < RngLanes::kWidth; ++k) {
    streams.push_back(Rng::stream(2024, k));
    for (std::uint64_t j = 0; j < k % 3; ++j) streams.back().normal();
  }
  const double max_abs = expect_lanes_match_streams(streams, 1 << 22);
  // Only the tail sampler returns values beyond the base strip's edge r.
  EXPECT_GT(max_abs, 3.6541528853610088);
}

TEST(Rng, LanesPartialGroupMatchesStreams) {
  // Fewer streams than lanes: the idle lanes never touch the seeded ones.
  std::vector<Rng> streams;
  for (std::uint64_t k = 0; k < 3; ++k) streams.push_back(Rng::stream(7, k));
  expect_lanes_match_streams(streams, 1 << 16);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(5);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(rs.mean(), 10.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(77);
  Rng child = parent.split();
  // Child stream differs from the parent continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamSeedGoldenValues) {
  // Pins the counter-based stream derivation: the Monte-Carlo engine's
  // per-sample streams (and therefore every MC experiment) depend on these
  // exact values. Update deliberately or not at all.
  EXPECT_EQ(stream_seed(42, 0), 0x032bd39e1a01ca35ull);
  EXPECT_EQ(stream_seed(42, 1), 0xecd66475d1d11bc6ull);
  EXPECT_EQ(stream_seed(7, 12345), 0x0effbec8f140342eull);
  EXPECT_EQ(mix64(1), 0x5692161d100b05e5ull);
}

TEST(Rng, StreamGoldenDraws) {
  Rng a = Rng::stream(42, 0);
  EXPECT_EQ(a(), 0x945987a45b1c7747ull);
  EXPECT_EQ(a(), 0xa69cc231cbc093cfull);
  EXPECT_EQ(a(), 0xda8b6c657e49866eull);
  Rng b = Rng::stream(42, 1);
  EXPECT_EQ(b(), 0x385a1ec06a16b8caull);
}

TEST(Rng, StreamsIndependentOfEachOther) {
  // Stream i must be reproducible without touching any other stream — the
  // decoupling that makes MC samples order-independent.
  Rng direct = Rng::stream(99, 5);
  Rng after_others = Rng::stream(99, 5);
  Rng other = Rng::stream(99, 4);
  (void)other();  // consuming another stream must not matter
  for (int i = 0; i < 16; ++i) EXPECT_EQ(direct(), after_others());
}

TEST(Rng, AdjacentStreamsDecorrelated) {
  Rng a = Rng::stream(1, 1000);
  Rng b = Rng::stream(1, 1001);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

// ----------------------------------------------------------- parallel ----

TEST(Parallel, ResolveNumThreads) {
  EXPECT_EQ(resolve_num_threads(1), 1);
  EXPECT_EQ(resolve_num_threads(5), 5);
  EXPECT_GE(resolve_num_threads(0), 1);
  EXPECT_GE(resolve_num_threads(-3), 1);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    const std::size_t n = 1000;
    std::vector<int> hits(n, 0);
    parallel_for(threads, n,
                 [&](std::size_t begin, std::size_t end, int /*worker*/) {
                   for (std::size_t i = begin; i < end; ++i) ++hits[i];
                 });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n))
        << "threads = " << threads;
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
  }
}

TEST(Parallel, ShardsAreContiguousAndOrderedByWorker) {
  ThreadPool pool(4);
  const std::size_t n = 103;
  std::vector<std::pair<std::size_t, std::size_t>> shards(
      static_cast<std::size_t>(pool.size()), {0, 0});
  pool.parallel_for(n, [&](std::size_t begin, std::size_t end, int worker) {
    shards[static_cast<std::size_t>(worker)] = {begin, end};
  });
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : shards) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_GE(end, begin);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, n);
}

TEST(Parallel, PoolIsReusable) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run([&](int /*worker*/) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * pool.size());
}

TEST(Parallel, HandlesEmptyAndTinyRanges) {
  int calls = 0;
  parallel_for(4, 0, [&](std::size_t, std::size_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(4, 1, [&](std::size_t begin, std::size_t end, int /*w*/) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t, int) {
                          if (begin > 0) throw Error("worker boom");
                        }),
      Error);
  // The pool must survive a throwing task.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t begin, std::size_t end, int) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 100);
}

// ------------------------------------------------------------- normal ----

TEST(Normal, PdfKnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-10);
}

TEST(Normal, CdfTailsAccurate) {
  // erfc-based implementation keeps relative accuracy deep in the tail.
  EXPECT_NEAR(normal_cdf(-6.0) / 9.865876450377018e-10, 1.0, 1e-6);
  EXPECT_GT(normal_cdf(-30.0), 0.0);
}

TEST(Normal, InverseCdfRoundTrip) {
  for (double p : {1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
                   1.0 - 1e-6}) {
    EXPECT_NEAR(normal_cdf(normal_inverse_cdf(p)), p, 1e-12)
        << "p = " << p;
  }
}

TEST(Normal, InverseCdfKnownValues) {
  EXPECT_NEAR(normal_inverse_cdf(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_inverse_cdf(0.8413447460685429), 1.0, 1e-9);
  EXPECT_NEAR(normal_inverse_cdf(0.99), 2.3263478740408408, 1e-9);
}

TEST(Normal, InverseCdfRejectsOutOfRange) {
  EXPECT_THROW(normal_inverse_cdf(0.0), Error);
  EXPECT_THROW(normal_inverse_cdf(1.0), Error);
  EXPECT_THROW(normal_inverse_cdf(-0.5), Error);
}

TEST(Normal, ParameterizedCdfAndQuantile) {
  EXPECT_NEAR(normal_cdf(12.0, 10.0, 2.0), normal_cdf(1.0), 1e-12);
  EXPECT_NEAR(normal_quantile(0.9, 10.0, 2.0),
              10.0 + 2.0 * normal_inverse_cdf(0.9), 1e-12);
}

TEST(Normal, DegenerateSigmaIsStep) {
  EXPECT_EQ(normal_cdf(9.99, 10.0, 0.0), 0.0);
  EXPECT_EQ(normal_cdf(10.0, 10.0, 0.0), 1.0);
}

// -------------------------------------------------------------- stats ----

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.mean(), 6.2);
  EXPECT_NEAR(rs.variance(), 37.2, 1e-12);
  EXPECT_EQ(rs.min(), 1.0);
  EXPECT_EQ(rs.max(), 16.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(1);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyThrows) {
  RunningStats rs;
  EXPECT_THROW(rs.mean(), Error);
  EXPECT_THROW(rs.min(), Error);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0 / 3.0), 20.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> xs = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.99), 7.0);
}

TEST(Quantile, EmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(quantile(xs, 0.5), Error);
}

TEST(Quantile, OutOfRangeThrows) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(quantile(xs, -0.1), Error);
  EXPECT_THROW(quantile(xs, 1.1), Error);
}

TEST(WeightedStats, MeanMatchesHandComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  const std::vector<double> ws = {1.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(weighted_mean(xs, ws), (1.0 + 2.0 + 8.0) / 4.0);
  // Equal weights reduce to the plain mean.
  const std::vector<double> eq = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(weighted_mean(xs, eq), mean_of(xs));
}

TEST(WeightedStats, QuantileScaleInvariantAndMonotone) {
  // Quantiles depend on relative weights only, and are monotone in q.
  const std::vector<double> xs = {1.0, 5.0, 9.0};
  const std::vector<double> ws = {2.0, 1.0, 1.0};
  const std::vector<double> scaled = {20.0, 10.0, 10.0};
  double prev = weighted_quantile(xs, ws, 0.0);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double v = weighted_quantile(xs, ws, q);
    EXPECT_DOUBLE_EQ(v, weighted_quantile(xs, scaled, q)) << "q=" << q;
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(WeightedStats, QuantileFollowsTheMass) {
  // Shifting weight toward a sample pulls every interior quantile toward
  // it: median of {1 w3, 9 w1} < median of {1 w1, 9 w3}.
  const std::vector<double> xs = {1.0, 9.0};
  const std::vector<double> heavy_low = {3.0, 1.0};
  const std::vector<double> heavy_high = {1.0, 3.0};
  EXPECT_LT(weighted_quantile(xs, heavy_low, 0.5),
            weighted_quantile(xs, heavy_high, 0.5));
  // A sample holding (almost) all the mass owns the median (up to the
  // vanishing interpolation sliver past its midpoint).
  const std::vector<double> dominant = {1e9, 1.0};
  EXPECT_NEAR(weighted_quantile(xs, dominant, 0.5), 1.0, 1e-6);
}

TEST(WeightedStats, QuantileInterpolatesMidpoints) {
  // Two equal-weight samples: midpoint positions 0.25 and 0.75, linear in
  // between, clamped to the extremes outside.
  const std::vector<double> xs = {10.0, 20.0};
  const std::vector<double> ws = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(weighted_quantile(xs, ws, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(xs, ws, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(xs, ws, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(xs, ws, 0.75), 20.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(xs, ws, 1.0), 20.0);
}

TEST(WeightedStats, QuantileUnsortedAndZeroWeightHandled) {
  const std::vector<double> xs = {30.0, 10.0, 20.0, 99.0};
  const std::vector<double> ws = {1.0, 1.0, 1.0, 0.0};
  // The zero-weight sample must not influence any quantile.
  EXPECT_DOUBLE_EQ(weighted_quantile(xs, ws, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(xs, ws, 1.0), 30.0);
}

TEST(WeightedStats, EqualWeightQuantileConvergesToPlain) {
  // The midpoint convention differs from quantile()'s endpoints by O(1/n).
  Rng rng(4);
  std::vector<double> xs(2000);
  for (double& x : xs) x = rng.normal();
  const std::vector<double> ones(xs.size(), 1.0);
  for (const double q : {0.05, 0.5, 0.95}) {
    EXPECT_NEAR(weighted_quantile(xs, ones, q), quantile(xs, q), 5e-3);
  }
}

TEST(WeightedStats, FractionBelowAndEss) {
  // Weights are exact likelihood ratios (mean 1), the contract of the
  // unnormalized estimator sum(w * indicator) / n.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ws = {0.5, 0.5, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(weighted_fraction_below(xs, ws, 2.5), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(weighted_fraction_below(xs, ws, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(weighted_fraction_below(xs, ws, 4.0), 1.0);

  // The estimator reads off whichever side of the threshold the weights
  // make quieter: here the heavy weight sits above 2.5, so the below side
  // is used directly and its standard error beats the complement's.
  const auto est = weighted_fraction_below_est(xs, ws, 2.5);
  EXPECT_DOUBLE_EQ(est.value, 1.0 / 4.0);
  double s2_b = 0.0;  // below-side summand variance by hand
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double y = xs[i] <= 2.5 ? ws[i] : 0.0;
    s2_b += (y - 0.25) * (y - 0.25);
  }
  EXPECT_NEAR(est.std_error, std::sqrt(s2_b / 4.0 / 4.0), 1e-12);

  const std::vector<double> eq(4, 2.5);
  EXPECT_DOUBLE_EQ(effective_sample_size(eq), 4.0);
  const std::vector<double> kish = {1.0, 1.0, 1.0, 5.0};
  EXPECT_NEAR(effective_sample_size(kish), 64.0 / 28.0, 1e-12);
  const std::vector<double> degenerate = {0.0, 0.0, 7.0};
  EXPECT_DOUBLE_EQ(effective_sample_size(degenerate), 1.0);
}

TEST(WeightedStats, CiHalfwidthConsistency) {
  Rng rng(9);
  std::vector<double> xs(500);
  for (double& x : xs) x = rng.normal(10.0, 2.0);
  const std::vector<double> ones(xs.size(), 1.0);
  const double plain = mean_ci_halfwidth(xs);
  // Equal weights: the delta-method form reduces to z * s / sqrt(n) up to
  // the population-vs-sample variance factor, ~1/(2n) relative.
  EXPECT_NEAR(weighted_mean_ci_halfwidth(xs, ones), plain, 3e-3 * plain);
  // 99% interval is wider than 95%.
  EXPECT_GT(mean_ci_halfwidth(xs, 0.99), plain);
  // Rough magnitude: z=1.96, sigma~=2, n=500.
  EXPECT_NEAR(plain, 1.96 * 2.0 / std::sqrt(500.0), 0.05);
}

TEST(WeightedStats, RejectsInvalidInput) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> short_w = {1.0};
  const std::vector<double> neg_w = {1.0, -0.5};
  const std::vector<double> zero_w = {0.0, 0.0};
  const std::vector<double> ok_w = {1.0, 1.0};
  EXPECT_THROW(weighted_mean(xs, short_w), Error);
  EXPECT_THROW(weighted_mean(xs, neg_w), Error);
  EXPECT_THROW(weighted_mean(xs, zero_w), Error);
  EXPECT_THROW(weighted_quantile(xs, neg_w, 0.5), Error);
  EXPECT_THROW(weighted_quantile(xs, ok_w, 1.5), Error);
  EXPECT_THROW(weighted_fraction_below(xs, short_w, 0.0), Error);
  EXPECT_THROW(effective_sample_size(std::vector<double>{}), Error);
  EXPECT_THROW(mean_ci_halfwidth(std::vector<double>{}), Error);
  EXPECT_THROW(mean_ci_halfwidth(xs, 0.0), Error);
  EXPECT_THROW(mean_ci_halfwidth(xs, 1.0), Error);
}

TEST(Summarize, FieldsConsistent) {
  Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(rng.normal(5.0, 1.0));
  const SampleSummary s = summarize(xs);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_NEAR(s.mean, 5.0, 0.05);
  EXPECT_NEAR(s.stddev, 1.0, 0.05);
  EXPECT_NEAR(s.p50, 5.0, 0.05);
  EXPECT_NEAR(s.p95, 5.0 + 1.6449, 0.1);
  EXPECT_NEAR(s.p99, 5.0 + 2.3263, 0.15);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(Correlation, PerfectAndAnti) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  std::vector<double> z = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, z), -1.0, 1e-12);
}

TEST(Correlation, IndependentNearZero) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.normal());
    y.push_back(rng.normal());
  }
  EXPECT_NEAR(correlation(x, y), 0.0, 0.02);
}

TEST(Correlation, SizeMismatchThrows) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y = {1.0};
  EXPECT_THROW(correlation(x, y), Error);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 9
  h.add(-5.0);  // clamps to bin 0
  h.add(15.0);  // clamps to bin 9
  h.add(5.0);   // bin 5
  EXPECT_EQ(h.bins[0], 2u);
  EXPECT_EQ(h.bins[9], 2u);
  EXPECT_EQ(h.bins[5], 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, DensityIntegratesToOne) {
  Rng rng(4);
  Histogram h(-4.0, 4.0, 64);
  for (int i = 0; i < 50000; ++i) h.add(rng.normal());
  double integral = 0.0;
  const double width = 8.0 / 64.0;
  for (std::size_t i = 0; i < h.bins.size(); ++i) {
    integral += h.density(i) * width;
  }
  EXPECT_NEAR(integral, 1.0, 1e-9);
  EXPECT_NEAR(h.center(32), 0.0625, 1e-12);
}

// -------------------------------------------------------------- clark ----

TEST(Clark, IndependentStandardNormals) {
  // E[max(X, Y)] = 1/sqrt(pi) for independent standard normals.
  const ClarkMax m = clark_max(0.0, 1.0, 0.0, 1.0, 0.0);
  EXPECT_NEAR(m.mean, 1.0 / std::sqrt(M_PI), 1e-12);
  EXPECT_NEAR(m.tightness, 0.5, 1e-12);
  // Var[max] = 1 - 1/pi.
  EXPECT_NEAR(m.variance, 1.0 - 1.0 / M_PI, 1e-12);
}

TEST(Clark, PerfectlyCorrelatedEqualOperands) {
  const ClarkMax m = clark_max(5.0, 2.0, 5.0, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(m.mean, 5.0);
  EXPECT_DOUBLE_EQ(m.variance, 2.0);
  EXPECT_DOUBLE_EQ(m.tightness, 1.0);
}

TEST(Clark, DominantOperandWins) {
  const ClarkMax m = clark_max(100.0, 1.0, 0.0, 1.0, 0.0);
  EXPECT_NEAR(m.mean, 100.0, 1e-6);
  EXPECT_NEAR(m.variance, 1.0, 1e-6);
  EXPECT_NEAR(m.tightness, 1.0, 1e-9);
}

TEST(Clark, SymmetricInOperands) {
  const ClarkMax ab = clark_max(3.0, 2.0, 4.0, 1.0, 0.3);
  const ClarkMax ba = clark_max(4.0, 1.0, 3.0, 2.0, 0.3);
  EXPECT_NEAR(ab.mean, ba.mean, 1e-12);
  EXPECT_NEAR(ab.variance, ba.variance, 1e-12);
  EXPECT_NEAR(ab.tightness, 1.0 - ba.tightness, 1e-12);
}

TEST(Clark, MatchesMonteCarlo) {
  Rng rng(9);
  const double m1 = 10.0, s1 = 2.0, m2 = 11.0, s2 = 1.5, rho = 0.4;
  RunningStats rs;
  int x_wins = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double z1 = rng.normal();
    const double z2 = rho * z1 + std::sqrt(1.0 - rho * rho) * rng.normal();
    const double x = m1 + s1 * z1;
    const double y = m2 + s2 * z2;
    rs.add(std::max(x, y));
    if (x >= y) ++x_wins;
  }
  const ClarkMax m = clark_max(m1, s1 * s1, m2, s2 * s2, rho);
  EXPECT_NEAR(m.mean, rs.mean(), 0.02);
  EXPECT_NEAR(std::sqrt(m.variance), rs.stddev(), 0.02);
  EXPECT_NEAR(m.tightness, static_cast<double>(x_wins) / n, 0.01);
}

TEST(Clark, MeanAtLeastBothOperands) {
  const ClarkMax m = clark_max(1.0, 0.5, 1.2, 0.25, -0.5);
  EXPECT_GE(m.mean, 1.2);
  EXPECT_GE(m.variance, 0.0);
}

TEST(Clark, RejectsNegativeVariance) {
  EXPECT_THROW(clark_max(0.0, -1.0, 0.0, 1.0, 0.0), Error);
}

TEST(Clark, RejectsBadCorrelation) {
  EXPECT_THROW(clark_max(0.0, 1.0, 0.0, 1.0, 2.0), Error);
}

// ----------------------------------------------------------- lognormal ----

TEST(Lognormal, MomentsClosedForm) {
  const Lognormal ln{1.0, 0.25};
  EXPECT_NEAR(ln.mean(), std::exp(1.125), 1e-12);
  EXPECT_NEAR(ln.variance(),
              (std::exp(0.25) - 1.0) * std::exp(2.0 + 0.25), 1e-9);
  EXPECT_NEAR(ln.median(), std::exp(1.0), 1e-12);
}

TEST(Lognormal, FromMomentsRoundTrip) {
  const Lognormal ln = Lognormal::from_moments(100.0, 400.0);
  EXPECT_NEAR(ln.mean(), 100.0, 1e-9);
  EXPECT_NEAR(ln.variance(), 400.0, 1e-6);
}

TEST(Lognormal, QuantileCdfInverse) {
  const Lognormal ln = Lognormal::from_moments(50.0, 900.0);
  for (double p : {0.01, 0.5, 0.95, 0.99}) {
    EXPECT_NEAR(ln.cdf(ln.quantile(p)), p, 1e-10);
  }
}

TEST(Lognormal, CdfAtNonPositive) {
  const Lognormal ln{0.0, 1.0};
  EXPECT_EQ(ln.cdf(0.0), 0.0);
  EXPECT_EQ(ln.cdf(-3.0), 0.0);
}

TEST(Lognormal, ZeroVarianceDegenerates) {
  const Lognormal ln = Lognormal::from_moments(42.0, 0.0);
  EXPECT_NEAR(ln.mean(), 42.0, 1e-9);
  EXPECT_NEAR(ln.quantile(0.99), 42.0, 1e-6);
}

TEST(Lognormal, MatchesSampling) {
  Rng rng(13);
  const Lognormal ln{2.0, 0.09};
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) {
    rs.add(std::exp(rng.normal(2.0, 0.3)));
  }
  EXPECT_NEAR(rs.mean(), ln.mean(), ln.mean() * 0.01);
  EXPECT_NEAR(rs.stddev(), ln.stddev(), ln.stddev() * 0.02);
}

TEST(Lognormal, FromMomentsRejectsBadInput) {
  EXPECT_THROW(Lognormal::from_moments(0.0, 1.0), Error);
  EXPECT_THROW(Lognormal::from_moments(-1.0, 1.0), Error);
  EXPECT_THROW(Lognormal::from_moments(1.0, -1.0), Error);
}

// -------------------------------------------------------------- table ----

TEST(Table, AlignedOutput) {
  Table t({"name", "value"});
  t.begin_row();
  t.add("x");
  t.add(1.5, 1);
  t.begin_row();
  t.add("longer");
  t.add_int(42);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| x      | 1.5   |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 42    |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.begin_row();
  t.add("plain");
  t.add("has,comma");
  t.begin_row();
  t.add("has\"quote");
  t.add("x");
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a,b\n"), std::string::npos);
  EXPECT_NE(out.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\",x\n"), std::string::npos);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.begin_row();
  t.add("a");
  EXPECT_THROW(t.add("b"), Error);
}

TEST(Table, AddBeforeBeginRowThrows) {
  Table t({"c"});
  EXPECT_THROW(t.add("x"), Error);
}

TEST(FormatSi, PicksPrefixes) {
  EXPECT_EQ(format_si(1.5e-9, "A", 2), "1.50 nA");
  EXPECT_EQ(format_si(2.5e-6, "A", 1), "2.5 uA");
  EXPECT_EQ(format_si(3.0, "V", 0), "3 V");
  EXPECT_EQ(format_si(4.2e3, "Hz", 1), "4.2 kHz");
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
}

// ------------------------------------------------------------ TreeSum ----

TEST(TreeSum, EmptyAndSingle) {
  TreeSum empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.total(), 0.0);

  TreeSum one(1);
  EXPECT_EQ(one.total(), 0.0);
  one.set(0, 2.5);
  EXPECT_EQ(one.get(0), 2.5);
  EXPECT_EQ(one.total(), 2.5);
  EXPECT_EQ(one.total_with(0, -1.0), -1.0);
}

TEST(TreeSum, SetMatchesAssignBitwise) {
  // The fixed reduction shape means any fill order lands on the same total.
  for (const std::size_t n : {2u, 3u, 7u, 8u, 100u, 1000u}) {
    Rng rng(n);
    std::vector<double> values(n);
    // Values with wildly different magnitudes so sum order matters.
    for (double& v : values) {
      v = rng.uniform() * std::pow(10.0, rng.uniform(-8.0, 8.0));
    }

    TreeSum bulk(n);
    bulk.assign(values);

    TreeSum forward(n);
    for (std::size_t i = 0; i < n; ++i) forward.set(i, values[i]);

    TreeSum backward(n);
    for (std::size_t i = n; i-- > 0;) backward.set(i, values[i]);

    TreeSum shuffled(n);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    // Overwrite every slot twice in random order: stale intermediate
    // values must leave no trace.
    for (std::size_t i : order) shuffled.set(i, values[i] + 1.0);
    for (std::size_t i : order) shuffled.set(i, values[i]);

    EXPECT_EQ(forward.total(), bulk.total()) << "n=" << n;
    EXPECT_EQ(backward.total(), bulk.total()) << "n=" << n;
    EXPECT_EQ(shuffled.total(), bulk.total()) << "n=" << n;
  }
}

TEST(TreeSum, TotalWithMatchesSetBitwise) {
  const std::size_t n = 37;
  Rng rng(7);
  TreeSum sum(n);
  for (std::size_t i = 0; i < n; ++i) sum.set(i, rng.uniform(-5.0, 5.0));

  for (std::size_t i = 0; i < n; ++i) {
    const double candidate = rng.uniform(-100.0, 100.0);
    const double predicted = sum.total_with(i, candidate);
    const double before = sum.get(i);
    sum.set(i, candidate);
    EXPECT_EQ(sum.total(), predicted) << "slot " << i;
    sum.set(i, before);  // total_with must not have mutated anything
  }
}

TEST(TreeSum, ResetClears) {
  TreeSum sum(4);
  sum.set(0, 1.0);
  sum.set(3, 2.0);
  sum.reset(2);
  EXPECT_EQ(sum.size(), 2u);
  EXPECT_EQ(sum.total(), 0.0);
  sum.set(1, 3.5);
  EXPECT_EQ(sum.total(), 3.5);
}

TEST(TreeSum, PairwiseBeatsSequentialAccumulation) {
  // 1 + n*eps/2 summed n times: sequential accumulation loses the tiny
  // addends, pairwise keeps them. Documents the numerical upgrade.
  const std::size_t n = 1u << 20;
  const double tiny = 1.0 / static_cast<double>(n);
  std::vector<double> values(n, tiny);
  TreeSum sum(n);
  sum.assign(values);
  double sequential = 0.0;
  for (double v : values) sequential += v;
  const double exact = 1.0;
  EXPECT_LE(std::abs(sum.total() - exact), std::abs(sequential - exact));
  EXPECT_EQ(sum.total(), exact);  // powers of two sum exactly pairwise
}

// -------------------------------------------------------------- Error ----

TEST(Error, LiteralConstructorPreservesMessage) {
  const Error from_literal("bad input");
  EXPECT_STREQ(from_literal.what(), "bad input");
  const std::string dynamic = "built at runtime";
  const Error from_string(dynamic);
  EXPECT_STREQ(from_string.what(), dynamic.c_str());
}

TEST(Error, CheckThrowsWithFileLineAndMessage) {
  try {
    STATLEAK_CHECK(1 + 1 == 3, "arithmetic still works");
    FAIL() << "STATLEAK_CHECK(false) must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic still works"), std::string::npos) << what;
  }
}

TEST(Error, CheckMessageIsLazyOnSuccessPath) {
  // The message expression must not run when the condition holds — call
  // sites concatenate context strings freely on that promise.
  int evaluations = 0;
  const auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string("expensive context");
  };
  STATLEAK_CHECK(true, expensive());
  EXPECT_EQ(evaluations, 0);
  EXPECT_THROW(STATLEAK_CHECK(false, expensive()), Error);
  EXPECT_EQ(evaluations, 1);
}

// ----------------------------------------------------------- Deadline ----

TEST(Deadline, UnarmedNeverExpires) {
  const Deadline none;
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.expired());
  const Deadline zero(0);
  EXPECT_FALSE(zero.armed());
  EXPECT_FALSE(zero.expired());
  const Deadline negative(-25);
  EXPECT_FALSE(negative.armed());
  EXPECT_FALSE(negative.expired());
}

TEST(Deadline, ArmedExpiresAfterBudgetElapses) {
  const Deadline d(1);
  EXPECT_TRUE(d.armed());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, GenerousBudgetIsNotExpiredImmediately) {
  const Deadline d(60'000);
  EXPECT_TRUE(d.armed());
  EXPECT_FALSE(d.expired());
}

}  // namespace
}  // namespace statleak
