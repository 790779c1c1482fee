// Differential harness for the batched SoA Monte-Carlo engine (in the
// style of ssta_incremental_test.cpp): the gate-major engine must
// reproduce the scalar per-sample oracle (mc_scalar_oracle.hpp)
// BIT-FOR-BIT — delay and leakage, for every tested (batch_size,
// num_threads) combination, on the plain, spatial and ABB entry points, in
// first-order and exact delay modes. The comparison uses the raw IEEE-754
// bit patterns, so even a sign-of-zero or ulp-level divergence fails.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "abb/abb.hpp"
#include "gen/proxy.hpp"
#include "leakage/batch_leakage.hpp"
#include "mc/lane_draw.hpp"
#include "mc/monte_carlo.hpp"
#include "mc_scalar_oracle.hpp"
#include "spatial/spatial_analysis.hpp"
#include "spatial/placement.hpp"
#include "sta/batch_delay.hpp"
#include "sta/loads.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace statleak {
namespace {

void expect_bitwise_equal(const std::vector<double>& ref,
                          const std::vector<double>& got,
                          const char* what, int batch, int threads) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " sample " << i << " (batch " << batch << ", threads "
        << threads << "): " << ref[i] << " vs " << got[i];
  }
}

// 13 mixes a full group of eight draw lanes with a partial one.
constexpr int kBatches[] = {1, 7, 13, 64, 0};  // 0 = auto
constexpr int kThreads[] = {1, 2, 8};

class McBatchedTest : public ::testing::TestWithParam<const char*> {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_P(McBatchedTest, BitIdenticalToScalarAcrossBatchAndThreads) {
  const Circuit c = iscas85_proxy(GetParam());
  McConfig cfg;
  cfg.num_samples = 64;
  cfg.seed = 17;
  cfg.num_threads = 1;
  const McResult ref = oracle::run_monte_carlo(c, lib_, var_, cfg);

  for (const int batch : kBatches) {
    for (const int threads : kThreads) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult got = run_monte_carlo(c, lib_, var_, cfg);
      expect_bitwise_equal(ref.delay_ps, got.delay_ps, "delay", batch,
                           threads);
      expect_bitwise_equal(ref.leakage_na, got.leakage_na, "leakage", batch,
                           threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Proxies, McBatchedTest,
                         ::testing::Values("c432p", "c499p", "c880p",
                                           "c1355p"),
                         [](const auto& info) { return info.param; });

class McBatchedModesTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_F(McBatchedModesTest, ExactDelayModeBitIdentical) {
  const Circuit c = iscas85_proxy("c432p");
  McConfig cfg;
  cfg.num_samples = 32;
  cfg.seed = 23;
  cfg.exact_delay = true;
  cfg.num_threads = 1;
  const McResult ref = oracle::run_monte_carlo(c, lib_, var_, cfg);

  for (const int batch : {1, 7, 0}) {
    for (const int threads : {1, 2}) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult got = run_monte_carlo(c, lib_, var_, cfg);
      expect_bitwise_equal(ref.delay_ps, got.delay_ps, "exact delay", batch,
                           threads);
      expect_bitwise_equal(ref.leakage_na, got.leakage_na, "exact leakage",
                           batch, threads);
    }
  }
}

TEST_F(McBatchedModesTest, PelgromScalingBitIdentical) {
  // Pelgrom width scaling changes the per-gate draw sigmas; the batched
  // path must issue the exact same draw sequence.
  const Circuit c = iscas85_proxy("c432p");
  VariationModel var = var_;
  var.pelgrom_vth_scaling = true;
  McConfig cfg;
  cfg.num_samples = 32;
  cfg.seed = 29;
  cfg.num_threads = 1;
  const McResult ref = oracle::run_monte_carlo(c, lib_, var, cfg);

  for (const int batch : {1, 7, 0}) {
    cfg.batch_size = batch;
    const McResult got = run_monte_carlo(c, lib_, var, cfg);
    expect_bitwise_equal(ref.delay_ps, got.delay_ps, "pelgrom delay", batch,
                         1);
    expect_bitwise_equal(ref.leakage_na, got.leakage_na, "pelgrom leakage",
                         batch, 1);
  }
}

TEST_F(McBatchedModesTest, SpatialEngineBitIdentical) {
  const Circuit c = iscas85_proxy("c880p");
  const auto placement = make_topological_placement(c, 2);
  SpatialVariationModel model;
  model.base = var_;
  McConfig cfg;
  cfg.num_samples = 48;
  cfg.seed = 31;
  cfg.num_threads = 1;
  const McResult ref =
      oracle::run_monte_carlo_spatial(c, lib_, model, placement, cfg);

  for (const int batch : kBatches) {
    for (const int threads : kThreads) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult got =
          run_monte_carlo_spatial(c, lib_, model, placement, cfg);
      expect_bitwise_equal(ref.delay_ps, got.delay_ps, "spatial delay",
                           batch, threads);
      expect_bitwise_equal(ref.leakage_na, got.leakage_na, "spatial leakage",
                           batch, threads);
    }
  }
}

TEST_F(McBatchedModesTest, AbbExperimentBitIdentical) {
  // The ABB sweep exercises the kernels' uniform dVth shift and the
  // per-lane ladder selection state.
  const Circuit c = iscas85_proxy("c432p");
  const BodyBiasConfig abb;
  const double t_max = 1200.0;
  McConfig cfg;
  cfg.num_samples = 24;
  cfg.seed = 37;
  cfg.num_threads = 1;
  const AbbResult ref =
      oracle::run_abb_experiment(c, lib_, var_, abb, cfg, t_max);

  for (const int batch : {1, 7, 0}) {
    for (const int threads : {1, 2}) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const AbbResult got =
          run_abb_experiment(c, lib_, var_, abb, cfg, t_max);
      expect_bitwise_equal(ref.baseline.delay_ps, got.baseline.delay_ps,
                           "abb baseline delay", batch, threads);
      expect_bitwise_equal(ref.baseline.leakage_na, got.baseline.leakage_na,
                           "abb baseline leakage", batch, threads);
      expect_bitwise_equal(ref.compensated.delay_ps, got.compensated.delay_ps,
                           "abb compensated delay", batch, threads);
      expect_bitwise_equal(ref.compensated.leakage_na,
                           got.compensated.leakage_na,
                           "abb compensated leakage", batch, threads);
      expect_bitwise_equal(ref.bias_v, got.bias_v, "abb bias", batch,
                           threads);
    }
  }
}

TEST_F(McBatchedModesTest, LargeProxyBitIdentical) {
  // One spot check on the largest proxy: the throughput target circuit.
  const Circuit c = iscas85_proxy("c7552p");
  McConfig cfg;
  cfg.num_samples = 16;
  cfg.seed = 41;
  cfg.num_threads = 1;
  const McResult ref = oracle::run_monte_carlo(c, lib_, var_, cfg);

  cfg.batch_size = 0;  // auto
  const McResult got = run_monte_carlo(c, lib_, var_, cfg);
  expect_bitwise_equal(ref.delay_ps, got.delay_ps, "c7552p delay", 0, 1);
  expect_bitwise_equal(ref.leakage_na, got.leakage_na, "c7552p leakage", 0,
                       1);
}

TEST_F(McBatchedModesTest, BatchSizeValidated) {
  const Circuit c = iscas85_proxy("c432p");
  McConfig cfg;
  cfg.num_samples = 4;
  cfg.batch_size = -1;
  EXPECT_THROW(run_monte_carlo(c, lib_, var_, cfg), Error);
}

TEST_F(McBatchedModesTest, IsaVariantsBitIdentical) {
  // The engines run the AVX-512 variants of the lane draws, the
  // first-order delay loop and the leakage kernel wherever the CPU has
  // them, so the tests above
  // never reach the baseline variants on such a host. Run both on the same
  // c7552p blocks — a full block and one ending in a partial lane group —
  // and compare every lane bitwise, with and without the ABB dVth shift.
  if (host_simd_isa() != SimdIsa::kAvx512) {
    GTEST_SKIP() << "host runs only the baseline variant";
  }
  const Circuit c = iscas85_proxy("c7552p");
  const FlatCircuit flat = FlatCircuit::build(c);
  const LoadCache loads(c, lib_);
  const BatchDelayKernel kernels[2] = {
      BatchDelayKernel(flat, lib_, loads, SimdIsa::kBaseline),
      BatchDelayKernel(flat, lib_, loads, SimdIsa::kAvx512)};
  ASSERT_EQ(kernels[1].isa(), SimdIsa::kAvx512);
  const SimdIsa isas[2] = {SimdIsa::kBaseline, SimdIsa::kAvx512};
  const IntraDieSigmas sigmas(var_, mc_device_widths(c, lib_));
  const std::size_t n = c.num_gates();
  constexpr std::size_t kStride = 32;
  const double shift = -0.02;

  for (const std::size_t lanes : {kStride, std::size_t{13}}) {
    std::vector<double> dl[2];
    std::vector<double> dv[2];
    for (int v = 0; v < 2; ++v) {
      dl[v].assign(n * kStride, 0.0);
      dv[v].assign(n * kStride, 0.0);
      draw_block(
          isas[v], 43, 0, lanes,
          [this](std::size_t, Rng& rng) { return sample_global(var_, rng); },
          sigmas, dl[v].data(), dv[v].data(), kStride);
    }
    expect_bitwise_equal(dl[0], dl[1], "dl draws", static_cast<int>(lanes),
                         1);
    expect_bitwise_equal(dv[0], dv[1], "dv draws", static_cast<int>(lanes),
                         1);

    for (const double* dvth : {static_cast<const double*>(nullptr), &shift}) {
      std::vector<double> arrival(n * kStride);
      std::vector<double> out[2];
      for (int v = 0; v < 2; ++v) {
        out[v].assign(lanes, 0.0);
        kernels[v].critical_delay_block(dl[0].data(), dv[0].data(), kStride,
                                        lanes, false, dvth, arrival.data(),
                                        out[v].data());
      }
      expect_bitwise_equal(out[0], out[1], "first-order delay",
                           static_cast<int>(lanes), 1);
    }
  }

  // The leakage kernel runs exp_f64x8 on groups of eight lanes and exp_f64
  // on the rest, so every lane count from 1 to 17 takes a different mix of
  // full groups and leftovers. A NaN deviate (the kNanDeviate fault) and an
  // overflowing one put full-range lanes into a group of fast ones.
  const BatchLeakageKernel leaks[2] = {
      BatchLeakageKernel(flat, lib_, SimdIsa::kBaseline),
      BatchLeakageKernel(flat, lib_, SimdIsa::kAvx512)};
  ASSERT_EQ(leaks[0].isa(), SimdIsa::kBaseline);
  ASSERT_EQ(leaks[1].isa(), SimdIsa::kAvx512);
  std::vector<double> dl(n * kStride, 0.0);
  std::vector<double> dv(n * kStride, 0.0);
  draw_block(
      SimdIsa::kBaseline, 47, 0, 17,
      [this](std::size_t, Rng& rng) { return sample_global(var_, rng); },
      sigmas, dl.data(), dv.data(), kStride);
  GateId last = static_cast<GateId>(n - 1);
  while (flat.is_input[last]) --last;
  for (const bool edge : {false, true}) {
    if (edge) {
      dv[last * kStride + 2] = std::numeric_limits<double>::quiet_NaN();
      dv[last * kStride + 9] = -1e4;
    }
    for (std::size_t lanes = 1; lanes <= 17; ++lanes) {
      for (const double* dvth :
           {static_cast<const double*>(nullptr), &shift}) {
        std::vector<double> out[2];
        for (int v = 0; v < 2; ++v) {
          out[v].assign(lanes, 0.0);
          leaks[v].total_block(dl.data(), dv.data(), kStride, lanes, dvth,
                               out[v].data());
        }
        expect_bitwise_equal(out[0], out[1], "leakage",
                             static_cast<int>(lanes), 1);
      }
    }
  }
}

}  // namespace
}  // namespace statleak
