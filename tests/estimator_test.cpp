// Variance-reduction layer tests: exact importance-sampling likelihood
// weights, the SSTA-guided shift heuristics, the conditional-mean control
// variate, and — most importantly — the determinism contract: Sobol and
// importance-sampled runs are bit-identical across engines, thread counts,
// batch sizes, and checkpoint kill/resume, and a checkpoint written under
// one sampler configuration refuses to resume under another.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "gen/arithmetic.hpp"
#include "gen/proxy.hpp"
#include "leakage/leakage.hpp"
#include "mc/checkpoint.hpp"
#include "mc/estimator.hpp"
#include "mc/monte_carlo.hpp"
#include "mc_scalar_oracle.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/normal.hpp"
#include "util/stats.hpp"

namespace statleak {
namespace {

void expect_bitwise_equal(const std::vector<double>& ref,
                          const std::vector<double>& got, const char* what,
                          int batch, int threads) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " sample " << i << " (batch " << batch << ", threads "
        << threads << "): " << ref[i] << " vs " << got[i];
  }
}

class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class EstimatorTest : public ::testing::Test {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

// --- likelihood weights -----------------------------------------------------

TEST(IsShiftTest, LogWeightMatchesGaussianDensityRatio) {
  // For z' = z + s the weight must be phi(z') / phi(z' - s), per
  // dimension; the closed form in IsShift::log_weight is that ratio.
  const IsShift s{1.7, -0.6};
  const auto log_phi = [](double z) { return -0.5 * z * z; };
  for (const double zl : {-2.0, -0.3, 0.0, 1.1}) {
    for (const double zv : {-1.5, 0.4, 2.2}) {
      const double expected = log_phi(zl + s.l_sigma) - log_phi(zl) +
                              log_phi(zv + s.v_sigma) - log_phi(zv);
      EXPECT_NEAR(s.log_weight(zl, zv), expected, 1e-12);
    }
  }
}

TEST(IsShiftTest, InactiveByDefault) {
  EXPECT_FALSE(IsShift{}.active());
  EXPECT_TRUE((IsShift{0.1, 0.0}).active());
  EXPECT_TRUE((IsShift{0.0, -0.1}).active());
  EXPECT_DOUBLE_EQ(IsShift{}.log_weight(1.0, -1.0), 0.0);
}

// --- shift heuristics -------------------------------------------------------

TEST_F(EstimatorTest, TimingShiftPointsIntoTheTailAndClamps) {
  const Circuit c = iscas85_proxy("c432p");
  const SampleSummary ref = [&] {
    McConfig cfg;
    cfg.num_samples = 256;
    return run_monte_carlo(c, lib_, var_, cfg).delay_summary();
  }();

  // Target well above the mean: active shift, magnitude <= 6 sigma.
  const IsShift tail =
      compute_timing_is_shift(c, lib_, var_, ref.mean * 1.05);
  EXPECT_TRUE(tail.active());
  const double mag = std::sqrt(tail.l_sigma * tail.l_sigma +
                               tail.v_sigma * tail.v_sigma);
  EXPECT_LE(mag, 6.0 + 1e-12);

  // An absurdly far target saturates the clamp instead of degenerating.
  const IsShift far =
      compute_timing_is_shift(c, lib_, var_, ref.mean * 100.0);
  EXPECT_NEAR(std::sqrt(far.l_sigma * far.l_sigma +
                        far.v_sigma * far.v_sigma),
              6.0, 1e-9);

  // Target below the mean: failures are not rare, plain MC is right.
  EXPECT_FALSE(
      compute_timing_is_shift(c, lib_, var_, ref.mean * 0.5).active());
}

TEST_F(EstimatorTest, LeakageShiftTargetsUpperTail) {
  const IsShift s = compute_leakage_is_shift(lib_, var_, 0.99);
  EXPECT_TRUE(s.active());
  // Leakage grows as exp(-cL dL - cV dVth): the high-leakage direction is
  // negative in both globals.
  EXPECT_LT(s.l_sigma, 0.0);
  EXPECT_LT(s.v_sigma, 0.0);
  EXPECT_NEAR(std::sqrt(s.l_sigma * s.l_sigma + s.v_sigma * s.v_sigma),
              normal_inverse_cdf(0.99), 1e-9);
  EXPECT_THROW(compute_leakage_is_shift(lib_, var_, 0.3), Error);
  EXPECT_THROW(compute_leakage_is_shift(lib_, var_, 1.0), Error);
}

// --- control variate --------------------------------------------------------

TEST_F(EstimatorTest, CvAnalyticMeanMatchesWilkinsonMean) {
  // E[X] = E[L_total] by the tower property; both sides compute the same
  // closed-form per-gate lognormal means, so they agree to rounding.
  const Circuit c = make_ripple_carry_adder(8);
  const CvLeakageModel cv(c, lib_, var_);
  const LeakageAnalyzer analyzer(c, lib_, var_);
  EXPECT_NEAR(cv.analytic_mean_na(), analyzer.mean_na(),
              1e-9 * analyzer.mean_na());
}

TEST_F(EstimatorTest, CvProxyTracksSampledLeakageAndCutsVariance) {
  const Circuit c = iscas85_proxy("c432p");
  McConfig cfg;
  cfg.num_samples = 512;
  cfg.seed = 11;
  cfg.control_variate = true;
  const McResult res = run_monte_carlo(c, lib_, var_, cfg);

  ASSERT_EQ(res.cv_proxy_na.size(), res.leakage_na.size());
  EXPECT_GT(res.cv_proxy_mean_na, 0.0);
  // The global components dominate a many-gate total: the conditional
  // mean explains almost all of the sample-to-sample spread.
  EXPECT_GT(correlation(res.leakage_na, res.cv_proxy_na), 0.95);
  const double beta = res.cv_beta();
  EXPECT_GT(beta, 0.5);
  EXPECT_LT(beta, 1.5);

  // Corrected samples must have (much) less spread than the raw ones.
  std::vector<double> corrected(res.leakage_na.size());
  for (std::size_t i = 0; i < corrected.size(); ++i) {
    corrected[i] = res.leakage_na[i] -
                   beta * (res.cv_proxy_na[i] - res.cv_proxy_mean_na);
  }
  EXPECT_LT(stddev_of(corrected), 0.5 * stddev_of(res.leakage_na));

  // The corrected mean stays consistent with the raw estimate within its
  // own (raw) confidence interval.
  EXPECT_NEAR(res.cv_leakage_mean_na(), mean_of(res.leakage_na),
              res.leakage_mean_ci_na());
  // And the corrected quantile stays in the bulk of the raw distribution.
  const double q95 = res.cv_leakage_quantile_na(0.95);
  EXPECT_GT(q95, res.cv_leakage_mean_na());
}

TEST_F(EstimatorTest, CvAndImportanceSamplingAreMutuallyExclusive) {
  const Circuit c = make_ripple_carry_adder(4);
  McConfig cfg;
  cfg.num_samples = 8;
  cfg.control_variate = true;
  cfg.is_shift = {1.0, 0.0};
  EXPECT_THROW(run_monte_carlo(c, lib_, var_, cfg), Error);
}

TEST_F(EstimatorTest, ShiftOnZeroSigmaSourceIsRejected) {
  const Circuit c = make_ripple_carry_adder(4);
  VariationModel flat = var_;
  flat.sigma_l_inter_nm = 0.0;
  McConfig cfg;
  cfg.num_samples = 8;
  cfg.is_shift = {1.0, 0.0};
  EXPECT_THROW(run_monte_carlo(c, lib_, flat, cfg), Error);
}

// --- determinism contract ---------------------------------------------------
// Mirrors mc_batched_test's matrix for the new modes: the scalar oracle
// (mc_scalar_oracle.hpp) must be reproduced bit-for-bit by the engine for
// every batch size x thread count, including the recomputed weights.

constexpr int kBatches[] = {1, 7, 64, 0};  // 0 = auto
constexpr int kThreads[] = {1, 2, 8};

class EstimatorInvarianceTest : public ::testing::TestWithParam<const char*> {
 protected:
  ProcessNode node_ = generic_100nm();
  CellLibrary lib_{node_};
  VariationModel var_ = VariationModel::typical_100nm();
};

TEST_P(EstimatorInvarianceTest, SobolBitIdenticalAcrossBatchAndThreads) {
  const Circuit c = iscas85_proxy(GetParam());
  McConfig cfg;
  cfg.num_samples = 64;
  cfg.seed = 17;
  cfg.sampler = McSampler::kSobol;
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

TEST_P(EstimatorInvarianceTest,
       ImportanceSamplingBitIdenticalAcrossBatchAndThreads) {
  const Circuit c = iscas85_proxy(GetParam());
  McConfig cfg;
  cfg.num_samples = 64;
  cfg.seed = 17;
  cfg.is_shift = {1.5, -0.5};
  const McResult ref = oracle::run_monte_carlo(c, lib_, var_, cfg);
  ASSERT_EQ(ref.weights.size(), ref.delay_ps.size());

  for (const int batch : kBatches) {
    for (const int threads : kThreads) {
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      const McResult got = run_monte_carlo(c, lib_, var_, cfg);
      expect_bitwise_equal(ref.delay_ps, got.delay_ps, "delay", batch,
                           threads);
      expect_bitwise_equal(ref.leakage_na, got.leakage_na, "leakage", batch,
                           threads);
      expect_bitwise_equal(ref.weights, got.weights, "weights", batch,
                           threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Proxies, EstimatorInvarianceTest,
                         ::testing::Values("c432p", "c880p"),
                         [](const auto& info) { return info.param; });

TEST_F(EstimatorTest, SobolPseudoAndShiftedDrawsAllDiffer) {
  // Sanity: the three sampling modes really produce different populations
  // (a silently ignored knob would pass every invariance test above).
  const Circuit c = make_ripple_carry_adder(8);
  McConfig cfg;
  cfg.num_samples = 32;
  const McResult pseudo = run_monte_carlo(c, lib_, var_, cfg);
  cfg.sampler = McSampler::kSobol;
  const McResult sobol = run_monte_carlo(c, lib_, var_, cfg);
  cfg.sampler = McSampler::kPseudo;
  cfg.is_shift = {2.0, 0.0};
  const McResult shifted = run_monte_carlo(c, lib_, var_, cfg);

  EXPECT_NE(pseudo.delay_ps, sobol.delay_ps);
  EXPECT_NE(pseudo.delay_ps, shifted.delay_ps);
  EXPECT_NE(sobol.delay_ps, shifted.delay_ps);
  EXPECT_TRUE(pseudo.weights.empty());
  EXPECT_TRUE(sobol.weights.empty());
  EXPECT_FALSE(shifted.weights.empty());
}

// --- checkpoint interaction -------------------------------------------------

TEST_F(EstimatorTest, SobolKillResumeBitIdentical) {
  const Circuit c = make_ripple_carry_adder(8);
  McConfig cfg;
  cfg.num_samples = 400;
  cfg.seed = 5;
  cfg.sampler = McSampler::kSobol;
  cfg.is_shift = {0.0, 1.25};
  const auto n = static_cast<std::uint64_t>(cfg.num_samples);
  const McResult ref = run_monte_carlo(c, lib_, var_, cfg);

  // Recover this configuration's hash from a file the engine wrote.
  TempFile probe("estimator_ckpt_probe.bin");
  {
    McConfig probe_cfg = cfg;
    probe_cfg.checkpoint_path = probe.path();
    (void)run_monte_carlo(c, lib_, var_, probe_cfg);
  }
  std::vector<double> widths(c.num_gates(), -1.0);
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (g.kind != CellKind::kInput) {
      widths[id] = lib_.area_um(g.kind, g.size);
    }
  }
  const std::uint64_t hash = mc_checkpoint_hash(c, var_, cfg, widths, lib_.node());
  const CheckpointData full = load_checkpoint(probe.path(), hash, n);
  ASSERT_EQ(full.done_count, n);

  // Kill at a cut point and resume under different execution shapes.
  TempFile partial("estimator_ckpt_partial.bin");
  for (const std::size_t cut : {std::size_t{37}, std::size_t{311}}) {
    for (const int threads : {1, 8}) {
      {
        auto w = CheckpointWriter::create(partial.path(), hash, n);
        w->append(0, std::span<const double>(ref.delay_ps).subspan(0, cut),
                  std::span<const double>(ref.leakage_na).subspan(0, cut));
      }
      McConfig resume_cfg = cfg;
      resume_cfg.checkpoint_path = partial.path();
      resume_cfg.num_threads = threads;
      const McResult res = run_monte_carlo(c, lib_, var_, resume_cfg);
      EXPECT_TRUE(res.completed);
      EXPECT_GE(res.samples_restored, cut);
      expect_bitwise_equal(ref.delay_ps, res.delay_ps, "delay", 0, threads);
      expect_bitwise_equal(ref.leakage_na, res.leakage_na, "leakage", 0,
                           threads);
      expect_bitwise_equal(ref.weights, res.weights, "weights", 0, threads);
    }
  }
}

TEST_F(EstimatorTest, CheckpointRejectsSamplerAndShiftMismatch) {
  // A checkpoint's samples depend on the sampler kind and the importance
  // shift; resuming under a different one must fail as the structured
  // config-hash corruption class, not silently merge two populations.
  const Circuit c = make_ripple_carry_adder(8);
  McConfig pseudo_cfg;
  pseudo_cfg.num_samples = 100;
  pseudo_cfg.seed = 3;

  TempFile f("estimator_ckpt_mismatch.bin");
  {
    McConfig writer_cfg = pseudo_cfg;
    writer_cfg.checkpoint_path = f.path();
    (void)run_monte_carlo(c, lib_, var_, writer_cfg);
  }

  McConfig sobol_cfg = pseudo_cfg;
  sobol_cfg.checkpoint_path = f.path();
  sobol_cfg.sampler = McSampler::kSobol;
  EXPECT_THROW(run_monte_carlo(c, lib_, var_, sobol_cfg), CheckpointError);

  McConfig shifted_cfg = pseudo_cfg;
  shifted_cfg.checkpoint_path = f.path();
  shifted_cfg.is_shift = {0.5, 0.0};
  EXPECT_THROW(run_monte_carlo(c, lib_, var_, shifted_cfg),
               CheckpointError);

  // The control-variate flag does NOT change sample values, so it must
  // resume fine (and still produce the proxy side-channel).
  McConfig cv_cfg = pseudo_cfg;
  cv_cfg.checkpoint_path = f.path();
  cv_cfg.control_variate = true;
  const McResult res = run_monte_carlo(c, lib_, var_, cv_cfg);
  EXPECT_EQ(res.samples_restored,
            static_cast<std::uint64_t>(pseudo_cfg.num_samples));
  EXPECT_EQ(res.cv_proxy_na.size(),
            static_cast<std::size_t>(pseudo_cfg.num_samples));
}

// --- statistical agreement --------------------------------------------------
// Fixed seeds make these deterministic; tolerances are CI half-widths, so
// they state the actual estimator contract rather than a magic epsilon.

TEST_F(EstimatorTest, SobolAndCvAgreeWithPlainMcWithinConfidence) {
  const Circuit c = iscas85_proxy("c880p");
  McConfig cfg;
  cfg.num_samples = 2048;
  cfg.seed = 101;
  const McResult plain = run_monte_carlo(c, lib_, var_, cfg);

  cfg.sampler = McSampler::kSobol;
  const McResult sobol = run_monte_carlo(c, lib_, var_, cfg);
  EXPECT_NEAR(mean_of(sobol.leakage_na), mean_of(plain.leakage_na),
              plain.leakage_mean_ci_na() + sobol.leakage_mean_ci_na());
  EXPECT_NEAR(mean_of(sobol.delay_ps), mean_of(plain.delay_ps),
              plain.delay_mean_ci_ps() + sobol.delay_mean_ci_ps());

  cfg.sampler = McSampler::kPseudo;
  cfg.control_variate = true;
  const McResult cv = run_monte_carlo(c, lib_, var_, cfg);
  const LeakageAnalyzer analyzer(c, lib_, var_);
  // The CV-corrected mean must be consistent with the exact analytic mean
  // well within the plain estimator's confidence interval.
  EXPECT_NEAR(cv.cv_leakage_mean_na(), analyzer.mean_na(),
              plain.leakage_mean_ci_na());
}

TEST_F(EstimatorTest, ImportanceSampledYieldMatchesPlainMc) {
  const Circuit c = iscas85_proxy("c880p");
  McConfig cfg;
  cfg.num_samples = 4096;
  cfg.seed = 7;
  const McResult plain = run_monte_carlo(c, lib_, var_, cfg);
  // A mildly rare failure target: ~p99 of the plain population.
  const double t_max = plain.delay_quantile_ps(0.99);
  const double y_plain = plain.timing_yield(t_max);

  McConfig is_cfg = cfg;
  is_cfg.is_shift = compute_timing_is_shift(c, lib_, var_, t_max);
  ASSERT_TRUE(is_cfg.is_shift.active());
  const McResult is = run_monte_carlo(c, lib_, var_, is_cfg);

  // Weighted estimate agrees within the combined uncertainty.
  const double tol = 4.0 * (plain.yield_stderr(t_max) +
                            is.yield_stderr(t_max)) +
                     1e-12;
  EXPECT_NEAR(is.timing_yield(t_max), y_plain, tol);

  // The weights are genuinely non-uniform and the ESS reflects it.
  EXPECT_LT(is.ess(), static_cast<double>(is.delay_ps.size()));
  EXPECT_GE(is.ess(), 1.0);
  // The shift pushes samples toward failure: far more of the *sampled*
  // population fails than the estimated probability says.
  double raw_fail = 0.0;
  for (const double d : is.delay_ps) {
    if (d > t_max) raw_fail += 1.0;
  }
  raw_fail /= static_cast<double>(is.delay_ps.size());
  EXPECT_GT(raw_fail, 5.0 * (1.0 - y_plain));
}

}  // namespace
}  // namespace statleak
