// Property tests for MagNet calibration and scoring across random seeds.
#include <gtest/gtest.h>

#include <algorithm>

#include "magnet/detector.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::magnet {
namespace {

class SumDetector final : public Detector {
 public:
  std::vector<float> scores_from(Forwards& f) const override {
    const Tensor& batch = f.input();
    const std::size_t n = batch.dim(0);
    const std::size_t row = batch.numel() / n;
    std::vector<float> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < row; ++j) acc += batch[i * row + j];
      out[i] = static_cast<float>(acc);
    }
    return out;
  }
  std::string name() const override { return "sum"; }
};

class CalibrationProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Tensor random_batch(std::size_t n, std::uint64_t seed) {
    Tensor t({n, 1, 2, 2});
    Rng rng(seed);
    fill_uniform(t, rng, 0.0f, 1.0f);
    return t;
  }
};

TEST_P(CalibrationProperties, ThresholdDecreasesWithFpr) {
  SumDetector d;
  const Tensor val = random_batch(200, GetParam());
  float prev = std::numeric_limits<float>::infinity();
  for (const float fpr : {0.01f, 0.05f, 0.2f, 0.5f}) {
    d.calibrate(val, fpr);
    EXPECT_LE(d.threshold(), prev + 1e-6f) << "fpr " << fpr;
    prev = d.threshold();
  }
}

TEST_P(CalibrationProperties, EmpiricalFprIsBounded) {
  SumDetector d;
  const Tensor val = random_batch(500, GetParam() + 1);
  for (const float fpr : {0.02f, 0.1f}) {
    d.calibrate(val, fpr);
    const auto rejected = d.reject(val);
    const auto count =
        static_cast<float>(std::count(rejected.begin(), rejected.end(), true));
    // By construction the in-sample rejection rate never exceeds fpr.
    EXPECT_LE(count / 500.0f, fpr + 1e-4f);
  }
}

TEST_P(CalibrationProperties, RejectionIsMonotoneInScore) {
  // If a sample is rejected, any sample with a strictly larger score in
  // the same batch must also be rejected.
  SumDetector d;
  const Tensor val = random_batch(100, GetParam() + 2);
  d.calibrate(val, 0.1f);
  const Tensor batch = random_batch(100, GetParam() + 3);
  const auto scores = d.scores(batch);
  const auto rejected = d.reject(batch);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (rejected[i] && scores[j] > scores[i]) {
        EXPECT_TRUE(rejected[j]);
      }
    }
  }
}

TEST_P(CalibrationProperties, JsdIsSymmetricAndNonNegativeOnRandomDists) {
  Rng rng(GetParam() + 4);
  std::vector<float> p(10), q(10);
  float sp = 0.0f, sq = 0.0f;
  for (std::size_t i = 0; i < 10; ++i) {
    p[i] = rng.uniform_f(0.0f, 1.0f);
    q[i] = rng.uniform_f(0.0f, 1.0f);
    sp += p[i];
    sq += q[i];
  }
  for (std::size_t i = 0; i < 10; ++i) {
    p[i] /= sp;
    q[i] /= sq;
  }
  const float d1 = jensen_shannon_divergence(p, q);
  const float d2 = jensen_shannon_divergence(q, p);
  EXPECT_NEAR(d1, d2, 1e-6f);
  EXPECT_GE(d1, 0.0f);
  EXPECT_LE(d1, std::log(2.0f) + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalibrationProperties,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace adv::magnet
