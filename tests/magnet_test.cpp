// MagNet component tests: detectors, calibration, JSD, reformer, pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>

#include "magnet/autoencoder.hpp"
#include "magnet/detector.hpp"
#include "magnet/pipeline.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/structural.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "quant/quantize.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::magnet {
namespace {

/// Detector whose score is the mean pixel value — lets calibration logic be
/// tested against hand-computable quantiles.
class MeanDetector final : public Detector {
 public:
  std::vector<float> scores_from(Forwards& f) const override {
    const Tensor& batch = f.input();
    const std::size_t n = batch.dim(0);
    const std::size_t row = batch.numel() / n;
    std::vector<float> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < row; ++j) acc += batch[i * row + j];
      out[i] = static_cast<float>(acc / static_cast<double>(row));
    }
    return out;
  }
  std::string name() const override { return "mean"; }
};

Tensor batch_of_values(std::initializer_list<float> values) {
  std::vector<float> data(values);
  const std::size_t n = data.size();
  return Tensor::from_data(Shape({n, 1, 1, 1}), std::move(data));
}

/// Builds an identity "auto-encoder": one 1x1 conv with weight 1, bias 0,
/// so AE(x) == x and reconstruction error is exactly zero.
std::shared_ptr<nn::Sequential> identity_ae() {
  Rng rng(1);
  auto ae = std::make_shared<nn::Sequential>();
  ae->emplace<nn::Conv2d>(nn::Conv2dConfig{1, 1, 1, 1, 0}, rng);
  ae->parameters()[0]->fill(1.0f);
  ae->parameters()[1]->fill(0.0f);
  return ae;
}

/// A 1-pixel-input "classifier" with fixed logits: class 0 logit = -w*x,
/// class 1 logit = w*x.
std::shared_ptr<nn::Sequential> threshold_classifier(float w = 10.0f) {
  Rng rng(2);
  auto clf = std::make_shared<nn::Sequential>();
  clf->emplace<nn::Flatten>();
  auto& lin = clf->emplace<nn::Linear>(1, 2, rng);
  *lin.parameters()[0] = Tensor::from_data(Shape({1, 2}), {-w, w});
  *lin.parameters()[1] = Tensor::from_data(Shape({2}), {5.0f, -5.0f});
  return clf;
}

// --- calibration ---------------------------------------------------------

TEST(Detector, CalibrateSetsQuantileThreshold) {
  MeanDetector d;
  // Scores 0.01 .. 1.00.
  std::vector<float> vals(100);
  for (std::size_t i = 0; i < 100; ++i) {
    vals[i] = static_cast<float>(i + 1) / 100.0f;
  }
  Tensor batch = Tensor::from_data(Shape({100, 1, 1, 1}),
                                   std::vector<float>(vals));
  d.calibrate(batch, 0.05f);
  // Threshold at (1 - 0.05) quantile: ceil(0.95*100) = index 95 -> 0.96.
  EXPECT_NEAR(d.threshold(), 0.96f, 1e-5f);
  const auto rejected = d.reject(batch);
  const auto n_rejected = std::count(rejected.begin(), rejected.end(), true);
  EXPECT_EQ(n_rejected, 4);  // 0.97, 0.98, 0.99, 1.00
}

TEST(Detector, CalibrateValidatesInputs) {
  MeanDetector d;
  Tensor batch = batch_of_values({0.5f});
  EXPECT_THROW(d.calibrate(batch, 0.0f), std::invalid_argument);
  EXPECT_THROW(d.calibrate(batch, 1.0f), std::invalid_argument);
  EXPECT_THROW(d.threshold(), std::logic_error);
  EXPECT_THROW(d.reject(batch), std::logic_error);
}

TEST(Detector, SetThresholdOverridesCalibration) {
  MeanDetector d;
  d.set_threshold(0.5f);
  const auto r = d.reject(batch_of_values({0.4f, 0.6f}));
  EXPECT_FALSE(r[0]);
  EXPECT_TRUE(r[1]);
}

// --- reconstruction detector ----------------------------------------------

TEST(ReconstructionDetector, ZeroScoreUnderIdentityAe) {
  ReconstructionDetector d(identity_ae(), 1);
  const auto s = d.scores(batch_of_values({0.3f, 0.9f}));
  EXPECT_NEAR(s[0], 0.0f, 1e-6f);
  EXPECT_NEAR(s[1], 0.0f, 1e-6f);
}

TEST(ReconstructionDetector, ScoreMatchesManualError) {
  // AE with weight 0.5: AE(x) = 0.5 x, so per-pixel L1 error = 0.5|x|.
  auto ae = identity_ae();
  ae->parameters()[0]->fill(0.5f);
  ReconstructionDetector d1(ae, 1);
  ReconstructionDetector d2(ae, 2);
  const auto s1 = d1.scores(batch_of_values({0.8f}));
  const auto s2 = d2.scores(batch_of_values({0.8f}));
  EXPECT_NEAR(s1[0], 0.4f, 1e-5f);
  EXPECT_NEAR(s2[0], 0.16f, 1e-5f);
}

TEST(ReconstructionDetector, ValidatesConstruction) {
  EXPECT_THROW(ReconstructionDetector(nullptr, 1), std::invalid_argument);
  EXPECT_THROW(ReconstructionDetector(identity_ae(), 3),
               std::invalid_argument);
}

// --- JSD -------------------------------------------------------------------

TEST(Jsd, IdenticalDistributionsGiveZero) {
  const float p[] = {0.2f, 0.3f, 0.5f};
  EXPECT_NEAR(jensen_shannon_divergence(p, p), 0.0f, 1e-7f);
}

TEST(Jsd, SymmetricAndBounded) {
  const float p[] = {1.0f, 0.0f};
  const float q[] = {0.0f, 1.0f};
  const float d1 = jensen_shannon_divergence(p, q);
  const float d2 = jensen_shannon_divergence(q, p);
  EXPECT_FLOAT_EQ(d1, d2);
  EXPECT_NEAR(d1, std::log(2.0f), 1e-5f);  // maximal for disjoint support
}

TEST(Jsd, IntermediateValue) {
  const float p[] = {0.5f, 0.5f};
  const float q[] = {0.9f, 0.1f};
  const float d = jensen_shannon_divergence(p, q);
  EXPECT_GT(d, 0.0f);
  EXPECT_LT(d, std::log(2.0f));
}

TEST(Jsd, LengthMismatchThrows) {
  const float p[] = {1.0f};
  const float q[] = {0.5f, 0.5f};
  EXPECT_THROW(jensen_shannon_divergence(p, q), std::invalid_argument);
}

TEST(JsdDetector, IdentityAeGivesZeroScores) {
  JsdDetector d(identity_ae(), threshold_classifier(), 10.0f);
  const auto s = d.scores(batch_of_values({0.2f, 0.8f}));
  EXPECT_NEAR(s[0], 0.0f, 1e-6f);
  EXPECT_NEAR(s[1], 0.0f, 1e-6f);
}

TEST(JsdDetector, RespondsWhenAeChangesPrediction) {
  // AE halves the pixel: x = 0.4 gives near-one-hot class-1 probabilities
  // (logits -7, 7) while AE(x) = 0.2 gives much softer ones (logits -1, 1),
  // so the JSD must be clearly nonzero.
  auto ae = identity_ae();
  ae->parameters()[0]->fill(0.5f);
  JsdDetector d(ae, threshold_classifier(30.0f), 1.0f);
  const auto s = d.scores(batch_of_values({0.4f}));
  EXPECT_GT(s[0], 0.02f);
}

TEST(JsdDetector, ValidatesConstruction) {
  EXPECT_THROW(JsdDetector(nullptr, threshold_classifier(), 10.0f),
               std::invalid_argument);
  EXPECT_THROW(JsdDetector(identity_ae(), nullptr, 10.0f),
               std::invalid_argument);
  EXPECT_THROW(JsdDetector(identity_ae(), threshold_classifier(), 0.0f),
               std::invalid_argument);
}

// --- reformer / pipeline ----------------------------------------------------

TEST(Reformer, AppliesAutoencoder) {
  auto ae = identity_ae();
  ae->parameters()[0]->fill(0.5f);
  Reformer r(ae);
  const Tensor out = r.reform(batch_of_values({0.8f}));
  EXPECT_NEAR(out[0], 0.4f, 1e-5f);
}

TEST(Pipeline, SchemeControlsStages) {
  auto clf = threshold_classifier();
  MagNetPipeline pipe(clf);
  auto det = std::make_shared<MeanDetector>();
  det->set_threshold(0.5f);
  pipe.add_detector(det);
  // Reformer that halves pixels: flips classification of x in (0.5, 1.0].
  auto ae = identity_ae();
  ae->parameters()[0]->fill(0.5f);
  pipe.set_reformer(std::make_shared<Reformer>(ae));

  const Tensor x = batch_of_values({0.9f});  // class 1 raw, class 0 reformed
  const auto none = pipe.classify(x, DefenseScheme::None);
  EXPECT_FALSE(none.rejected[0]);
  EXPECT_EQ(none.predicted[0], 1);

  const auto det_only = pipe.classify(x, DefenseScheme::DetectorOnly);
  EXPECT_TRUE(det_only.rejected[0]);
  EXPECT_EQ(det_only.predicted[0], 1);  // reformer off

  const auto ref_only = pipe.classify(x, DefenseScheme::ReformerOnly);
  EXPECT_FALSE(ref_only.rejected[0]);
  EXPECT_EQ(ref_only.predicted[0], 0);

  const auto full = pipe.classify(x, DefenseScheme::Full);
  EXPECT_TRUE(full.rejected[0]);
  EXPECT_EQ(full.predicted[0], 0);
}

TEST(Pipeline, AnyDetectorCanReject) {
  MagNetPipeline pipe(threshold_classifier());
  auto lo = std::make_shared<MeanDetector>();
  lo->set_threshold(10.0f);  // never fires
  auto hi = std::make_shared<MeanDetector>();
  hi->set_threshold(0.1f);  // fires on everything here
  pipe.add_detector(lo);
  pipe.add_detector(hi);
  const auto out =
      pipe.classify(batch_of_values({0.5f}), DefenseScheme::DetectorOnly);
  EXPECT_TRUE(out.rejected[0]);
}

TEST(Pipeline, CleanAccuracyCountsRejectionsAsErrors) {
  MagNetPipeline pipe(threshold_classifier());
  auto det = std::make_shared<MeanDetector>();
  det->set_threshold(0.55f);
  pipe.add_detector(det);
  // x=0.2 -> class 0 (correct, kept); x=0.9 -> class 1 (correct) but
  // rejected by the detector.
  const Tensor x = batch_of_values({0.2f, 0.9f});
  const float acc = pipe.clean_accuracy(x, {0, 1}, DefenseScheme::Full);
  EXPECT_FLOAT_EQ(acc, 0.5f);
  // Without the detector both are right.
  EXPECT_FLOAT_EQ(pipe.clean_accuracy(x, {0, 1}, DefenseScheme::None), 1.0f);
}

TEST(Pipeline, ValidatesConstruction) {
  EXPECT_THROW(MagNetPipeline(nullptr), std::invalid_argument);
  MagNetPipeline pipe(threshold_classifier());
  EXPECT_THROW(pipe.add_detector(nullptr), std::invalid_argument);
  EXPECT_THROW(Reformer(nullptr), std::invalid_argument);
}

TEST(Pipeline, ReadingsExposePerDetectorScoresAndThresholds) {
  MagNetPipeline pipe(threshold_classifier());
  auto lo = std::make_shared<MeanDetector>();
  lo->set_threshold(10.0f);  // never fires
  auto hi = std::make_shared<MeanDetector>();
  hi->set_threshold(0.3f);  // fires on the second row only
  pipe.add_detector(lo);
  pipe.add_detector(hi);

  const Tensor x = batch_of_values({0.2f, 0.5f});
  const auto out = pipe.classify(x, DefenseScheme::DetectorOnly);

  // One reading per detector, in bank order, with raw scores — WHICH
  // detector fired, not just that one did.
  ASSERT_EQ(out.readings.size(), 2u);
  EXPECT_EQ(out.readings[0].name, "mean");
  EXPECT_FLOAT_EQ(out.readings[0].threshold, 10.0f);
  EXPECT_FLOAT_EQ(out.readings[1].threshold, 0.3f);
  ASSERT_EQ(out.readings[0].scores.size(), 2u);
  EXPECT_FLOAT_EQ(out.readings[0].scores[0], 0.2f);
  EXPECT_FLOAT_EQ(out.readings[1].scores[1], 0.5f);
  EXPECT_FALSE(out.readings[0].reject_row(0));
  EXPECT_FALSE(out.readings[0].reject_row(1));
  EXPECT_FALSE(out.readings[1].reject_row(0));
  EXPECT_TRUE(out.readings[1].reject_row(1));

  // `rejected` is exactly the OR of reject_row across readings.
  EXPECT_FALSE(out.rejected[0]);
  EXPECT_TRUE(out.rejected[1]);
}

TEST(Pipeline, ReadingsMatchHandComputedRealDetectorScores) {
  // The full bank of REAL detectors on models simple enough to hand-compute:
  // AE(x) = 0.5 x (1x1 conv, weight 0.5) and the fixed-logit classifier
  // (-10x + 5, 10x - 5). One-pixel inputs x = {0.2, 0.8}.
  auto ae = identity_ae();
  ae->parameters()[0]->fill(0.5f);
  auto clf = threshold_classifier();  // w = 10

  MagNetPipeline pipe(clf);
  auto l1 = std::make_shared<ReconstructionDetector>(ae, 1);
  auto l2 = std::make_shared<ReconstructionDetector>(ae, 2);
  auto jsd = std::make_shared<JsdDetector>(ae, clf, 1.0f);
  // Thresholds chosen so l1/l2 reject exactly the second row and the JSD
  // detector never fires (its scores are bounded by ln 2).
  l1->set_threshold(0.2f);
  l2->set_threshold(0.1f);
  jsd->set_threshold(1.0f);
  pipe.add_detector(l1);
  pipe.add_detector(l2);
  pipe.add_detector(jsd);

  const auto out =
      pipe.classify(batch_of_values({0.2f, 0.8f}), DefenseScheme::DetectorOnly);

  ASSERT_EQ(out.readings.size(), 3u);
  for (const auto& r : out.readings) ASSERT_EQ(r.scores.size(), 2u);

  // recon_l1: mean |x - 0.5x| = 0.5|x|.
  EXPECT_EQ(out.readings[0].name, "recon_l1");
  EXPECT_FLOAT_EQ(out.readings[0].threshold, 0.2f);
  EXPECT_NEAR(out.readings[0].scores[0], 0.1f, 1e-6f);
  EXPECT_NEAR(out.readings[0].scores[1], 0.4f, 1e-6f);
  EXPECT_FALSE(out.readings[0].reject_row(0));
  EXPECT_TRUE(out.readings[0].reject_row(1));

  // recon_l2: mean (x - 0.5x)^2 = 0.25 x^2.
  EXPECT_EQ(out.readings[1].name, "recon_l2");
  EXPECT_FLOAT_EQ(out.readings[1].threshold, 0.1f);
  EXPECT_NEAR(out.readings[1].scores[0], 0.01f, 1e-6f);
  EXPECT_NEAR(out.readings[1].scores[1], 0.16f, 1e-6f);
  EXPECT_FALSE(out.readings[1].reject_row(0));
  EXPECT_TRUE(out.readings[1].reject_row(1));

  // jsd_T1: JSD between softmax(logits(x)) and softmax(logits(0.5x)).
  // With two classes softmax reduces to a sigmoid of the logit gap:
  // p1(x) = sigmoid(20x - 10), and on the reconstruction q1 = sigmoid(10x
  // - 10). Recompute the divergence here from those closed forms.
  EXPECT_EQ(out.readings[2].name, "jsd_T1");
  EXPECT_FLOAT_EQ(out.readings[2].threshold, 1.0f);
  const auto sigmoid = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
  const auto jsd2 = [](double p1, double q1) {
    const double p[] = {1.0 - p1, p1};
    const double q[] = {1.0 - q1, q1};
    double acc = 0.0;
    for (int i = 0; i < 2; ++i) {
      const double m = 0.5 * (p[i] + q[i]);
      acc += 0.5 * p[i] * std::log(p[i] / m) +
             0.5 * q[i] * std::log(q[i] / m);
    }
    return acc;
  };
  for (int i = 0; i < 2; ++i) {
    const double x = i == 0 ? 0.2 : 0.8;
    const double expected = jsd2(sigmoid(20 * x - 10), sigmoid(10 * x - 10));
    EXPECT_NEAR(out.readings[2].scores[i], expected, 1e-5)
        << "jsd score, row " << i;
    EXPECT_FALSE(out.readings[2].reject_row(i));
  }

  // rejected = OR across the bank; predictions come from the raw input
  // (DetectorOnly runs no reformer): 0.2 -> class 0, 0.8 -> class 1.
  EXPECT_FALSE(out.rejected[0]);
  EXPECT_TRUE(out.rejected[1]);
  EXPECT_EQ(out.predicted[0], 0);
  EXPECT_EQ(out.predicted[1], 1);
}

TEST(DefenseOutcome, SliceRowsExtractsAlignedSubranges) {
  DefenseOutcome o;
  o.rejected = {false, true, false, true};
  o.predicted = {7, 1, 2, 5};
  o.readings.push_back({"recon_l1", 0.5f, {0.1f, 0.9f, 0.2f, 0.8f}});
  o.readings.push_back({"jsd_T10", 0.05f, {0.0f, 0.1f, 0.0f, 0.2f}});

  const DefenseOutcome s = o.slice_rows(1, 3);
  EXPECT_EQ(s.rejected, (std::vector<bool>{true, false}));
  EXPECT_EQ(s.predicted, (std::vector<int>{1, 2}));
  ASSERT_EQ(s.readings.size(), 2u);
  EXPECT_EQ(s.readings[0].name, "recon_l1");
  EXPECT_FLOAT_EQ(s.readings[0].threshold, 0.5f);
  EXPECT_EQ(s.readings[0].scores, (std::vector<float>{0.9f, 0.2f}));
  EXPECT_EQ(s.readings[1].name, "jsd_T10");
  EXPECT_FLOAT_EQ(s.readings[1].threshold, 0.05f);
  EXPECT_EQ(s.readings[1].scores, (std::vector<float>{0.1f, 0.0f}));

  // Full-range slice reproduces the outcome; an empty range is legal.
  const DefenseOutcome all = o.slice_rows(0, 4);
  EXPECT_EQ(all.rejected, o.rejected);
  EXPECT_EQ(all.predicted, o.predicted);
  EXPECT_EQ(all.readings[1].scores, o.readings[1].scores);
  const DefenseOutcome empty = o.slice_rows(2, 2);
  EXPECT_TRUE(empty.predicted.empty());
  ASSERT_EQ(empty.readings.size(), 2u);
  EXPECT_TRUE(empty.readings[0].scores.empty());
}

TEST(DefenseOutcome, SliceRowsRejectsBadRanges) {
  DefenseOutcome o;
  o.rejected = {false, false};
  o.predicted = {0, 1};
  EXPECT_THROW(o.slice_rows(0, 3), std::out_of_range);
  EXPECT_THROW(o.slice_rows(2, 1), std::out_of_range);
}

TEST(Pipeline, ReadingsEmptyWhenSchemeRunsNoDetectors) {
  MagNetPipeline pipe(threshold_classifier());
  auto det = std::make_shared<MeanDetector>();
  det->set_threshold(0.0f);  // would fire on everything
  pipe.add_detector(det);
  const Tensor x = batch_of_values({0.5f});
  EXPECT_TRUE(pipe.classify(x, DefenseScheme::None).readings.empty());
  EXPECT_TRUE(pipe.classify(x, DefenseScheme::ReformerOnly).readings.empty());
  EXPECT_FALSE(
      pipe.classify(x, DefenseScheme::DetectorOnly).readings.empty());
}

TEST(Pipeline, ClassifyIsCallableOnConstPipeline) {
  MagNetPipeline pipe(threshold_classifier());
  const MagNetPipeline& cref = pipe;
  const auto out =
      cref.classify(batch_of_values({0.2f}), DefenseScheme::None);
  EXPECT_EQ(out.predicted.size(), 1u);
}

// --- auto-encoder builders ---------------------------------------------------

// --- one forward per distinct node; one bank for float and int8 ----------
//
// Small real models (MagNet AE architectures on 8x8 images, a conv
// classifier) in the two bank shapes build_magnet makes: CIFAR's (one AE
// behind recon_l1, recon_l2, jsd_T10, jsd_T40 and the reformer) and
// MNIST's (deep AE for recon_l2 and the reformer, shallow AE for recon_l1,
// optionally the JSD pair on the deep AE).

std::shared_ptr<nn::Sequential> small_ae(AeArch arch, std::uint64_t seed) {
  Rng rng(seed);
  AutoencoderConfig cfg;
  cfg.arch = arch;
  return std::make_shared<nn::Sequential>(build_autoencoder(cfg, rng));
}

std::shared_ptr<nn::Sequential> small_classifier() {
  Rng rng(77);
  auto clf = std::make_shared<nn::Sequential>();
  clf->emplace<nn::Conv2d>(nn::Conv2d::same(1, 4), rng);
  clf->emplace<nn::ReLU>();
  clf->emplace<nn::MaxPool2d>(2);
  clf->emplace<nn::Flatten>();
  clf->emplace<nn::Linear>(4 * 4 * 4, 10, rng);
  return clf;
}

Tensor small_images(std::size_t n, std::uint64_t seed) {
  Tensor x({n, 1, 8, 8});
  Rng rng(seed);
  fill_uniform(x, rng, 0.0f, 1.0f);
  return x;
}

struct Bank {
  std::shared_ptr<nn::Sequential> clf, deep, shallow;
  std::vector<std::shared_ptr<Detector>> detectors;
};

/// The detector list of build_magnet's CIFAR (`cifar`) or MNIST D (+JSD)
/// pipeline, over `b`'s models.
void add_detectors(Bank& b, bool cifar, bool jsd) {
  b.detectors.clear();
  if (cifar) {
    b.detectors.push_back(std::make_shared<ReconstructionDetector>(b.deep, 1));
    b.detectors.push_back(std::make_shared<ReconstructionDetector>(b.deep, 2));
  } else {
    b.detectors.push_back(std::make_shared<ReconstructionDetector>(b.deep, 2));
    b.detectors.push_back(
        std::make_shared<ReconstructionDetector>(b.shallow, 1));
  }
  if (jsd) {
    b.detectors.push_back(std::make_shared<JsdDetector>(b.deep, b.clf, 10.0f));
    b.detectors.push_back(std::make_shared<JsdDetector>(b.deep, b.clf, 40.0f));
  }
}

/// Calibrated float pipeline over `b`.
MagNetPipeline make_pipeline(const Bank& b, const Tensor& calib) {
  MagNetPipeline pipe(b.clf);
  for (const auto& d : b.detectors) pipe.add_detector(d);
  pipe.set_reformer(std::make_shared<Reformer>(b.deep));
  pipe.calibrate(calib, 0.25f);
  return pipe;
}

Bank cifar_bank() {
  Bank b{small_classifier(), small_ae(AeArch::Cifar, 5), nullptr, {}};
  add_detectors(b, /*cifar=*/true, /*jsd=*/true);
  return b;
}

Bank mnist_bank(bool jsd) {
  Bank b{small_classifier(), small_ae(AeArch::MnistDeep, 6),
         small_ae(AeArch::MnistShallow, 7), {}};
  add_detectors(b, /*cifar=*/false, jsd);
  return b;
}

void expect_same_bits(const std::vector<float>& a, const std::vector<float>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

TEST(Pipeline, FullClassifyRunsEachDistinctForwardOnce) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs pinned off by the environment";
  const auto& calls =
      obs::MetricsRegistry::global().counter("model/forward_calls");
  const Tensor x = small_images(6, 11);
  // CIFAR: AE(x), F(x), F(AE(x)). MNIST D: deep(x), shallow(x),
  // F(deep(x)) — the reformer reuses the recon_l2 detector's deep(x).
  for (const bool cifar : {true, false}) {
    const MagNetPipeline pipe =
        make_pipeline(cifar ? cifar_bank() : mnist_bank(false), x);
    const std::shared_ptr<const MagNetPipeline> qpipe = pipe.quantized(x);
    for (const MagNetPipeline* run : {&pipe, qpipe.get()}) {
      const std::uint64_t before = calls.value();
      run->classify(x, DefenseScheme::Full);
      EXPECT_EQ(calls.value() - before, 3u)
          << (cifar ? "CIFAR" : "MNIST D") << ", "
          << (run == &pipe ? "float" : "int8");
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(Pipeline, Int8ClassifyReadsTheLiveThreshold) {
  // The quantized pipeline shares the float one's detectors, so a
  // threshold set on the float pipeline afterwards is the one it reports.
  const Tensor x = small_images(6, 12);
  MagNetPipeline pipe = make_pipeline(mnist_bank(true), x);
  const auto qpipe = pipe.quantized(x);
  pipe.detector(0).set_threshold(0.123f);
  const DefenseOutcome out = qpipe->classify(x, DefenseScheme::Full);
  EXPECT_EQ(out.readings[0].threshold, 0.123f);
}

TEST(Pipeline, ClassifyMatchesStandaloneStagesBitwise) {
  // classify shares forwards across stages; each reading must still equal
  // its detector scoring alone, and the label the classifier's on the
  // reformed (or raw) input. The int8 reference is the same bank built
  // directly on quantize()d clones.
  const Tensor x = small_images(7, 13);
  const Tensor calib = small_images(6, 14);
  for (const bool cifar : {true, false}) {
    const Bank fb = cifar ? cifar_bank() : mnist_bank(true);
    const MagNetPipeline pipe = make_pipeline(fb, calib);
    Bank qb;
    const auto q = [&](const std::shared_ptr<nn::Sequential>& m) {
      return m ? std::make_shared<nn::Sequential>(quant::quantize(*m, calib))
               : nullptr;
    };
    qb.clf = q(fb.clf);
    qb.deep = q(fb.deep);
    qb.shallow = q(fb.shallow);
    add_detectors(qb, cifar, /*jsd=*/true);

    const std::shared_ptr<const MagNetPipeline> qpipe = pipe.quantized(calib);
    for (const MagNetPipeline* run : {&pipe, qpipe.get()}) {
      const Bank& ref = run == &pipe ? fb : qb;
      for (const DefenseScheme scheme :
           {DefenseScheme::None, DefenseScheme::DetectorOnly,
            DefenseScheme::ReformerOnly, DefenseScheme::Full}) {
        const std::string what = std::string(cifar ? "CIFAR" : "MNIST") +
                                 ", " + (run == &pipe ? "float" : "int8") +
                                 ", " + to_string(scheme);
        const DefenseOutcome out = run->classify(x, scheme);
        const bool detect = scheme == DefenseScheme::DetectorOnly ||
                            scheme == DefenseScheme::Full;
        const bool reform = scheme == DefenseScheme::ReformerOnly ||
                            scheme == DefenseScheme::Full;
        ASSERT_EQ(out.readings.size(), detect ? ref.detectors.size() : 0u)
            << what;
        for (std::size_t i = 0; i < out.readings.size(); ++i) {
          expect_same_bits(out.readings[i].scores,
                           ref.detectors[i]->scores(x),
                           what + ", " + out.readings[i].name);
          EXPECT_EQ(out.readings[i].threshold, pipe.detector(i).threshold());
        }
        const Tensor input = reform ? Reformer(ref.deep).reform(x) : x;
        EXPECT_EQ(out.predicted, nn::predict_labels(*ref.clf, input)) << what;
      }
    }
  }
}

TEST(Autoencoder, ArchitecturesPreserveImageShape) {
  Rng rng(3);
  for (const AeArch arch :
       {AeArch::MnistDeep, AeArch::MnistShallow}) {
    AutoencoderConfig cfg;
    cfg.arch = arch;
    cfg.image_channels = 1;
    cfg.filters = 3;
    nn::Sequential ae = build_autoencoder(cfg, rng);
    Tensor x({2, 1, 28, 28}, 0.5f);
    EXPECT_EQ(ae.forward(x, nn::Mode::Eval).shape(), x.shape());
  }
  AutoencoderConfig cfg;
  cfg.arch = AeArch::Cifar;
  cfg.image_channels = 3;
  nn::Sequential ae = build_autoencoder(cfg, rng);
  Tensor x({2, 3, 32, 32}, 0.5f);
  EXPECT_EQ(ae.forward(x, nn::Mode::Eval).shape(), x.shape());
}

TEST(Autoencoder, OutputsAreInUnitInterval) {
  Rng rng(4);
  AutoencoderConfig cfg;
  nn::Sequential ae = build_autoencoder(cfg, rng);
  Tensor x({1, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);
  const Tensor y = ae.forward(x, nn::Mode::Eval);
  EXPECT_GE(min_value(y), 0.0f);
  EXPECT_LE(max_value(y), 1.0f);
}

TEST(Autoencoder, DeepArchHasBottleneck) {
  // The deep architecture must contain the pool/upsample pair.
  Rng rng(5);
  AutoencoderConfig cfg;
  cfg.arch = AeArch::MnistDeep;
  nn::Sequential deep = build_autoencoder(cfg, rng);
  cfg.arch = AeArch::MnistShallow;
  nn::Sequential shallow = build_autoencoder(cfg, rng);
  EXPECT_GT(deep.size(), shallow.size());
}

TEST(MeanReconstructionError, ZeroForIdentity) {
  auto ae = identity_ae();
  const Tensor x({4, 1, 1, 1}, 0.7f);
  for (const int p : {1, 2}) {
    EXPECT_EQ(recon_error(x, nn::predict(*ae, x), p),
              std::vector<float>(4, 0.0f))
        << "p = " << p;
  }
}

}  // namespace
}  // namespace adv::magnet
