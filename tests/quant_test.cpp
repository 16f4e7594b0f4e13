// adv::quant: per-channel int8 quantization correctness.
//
//  * Per-layer int8-vs-float error, bounded ANALYTICALLY: with per-tensor
//    activation scale s_a and per-channel weight scale s_w[j], each of the
//    k products in an output accumulates at most
//      amax_x * s_w/2 + amax_w * s_a/2 + s_a * s_w / 4
//    of rounding error, so |y_float - y_int8| <= k * that, guaranteed
//    (no tuned tolerances). Tighter empirical ceilings are asserted only
//    on exact-kernel builds (VNNI / scalar), where results are fully
//    deterministic; the AVX2-maddubs fallback may saturate and is
//    excluded from accuracy certification by design (gemm_int8_exact()).
//  * Thread-count determinism: int32 accumulation is associative, so
//    1-thread and 4-thread pools must agree BITWISE. ADV_THREADS only
//    pins the global pool, so the test passes dedicated pools through
//    quant::set_pool — the same seam the serving layer uses.
//  * Serialization: save_quantized/load_quantized round-trips through the
//    CRC'd tensor format and must reproduce forwards bitwise; mismatched
//    architectures and truncated files must throw.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/structural.hpp"
#include "quant/quantize.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace adv {
namespace {

float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (const float v : t.values()) m = std::max(m, std::fabs(v));
  return m;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

/// Guaranteed worst-case dequantized error of a k-term int8 dot product
/// (see header comment). Scales are the max-abs/127 the quantize pass
/// computes.
float analytic_bound(std::size_t k, float amax_x, float amax_w) {
  const float sa = amax_x / 127.0f;
  const float sw = amax_w / 127.0f;
  return static_cast<float>(k) *
             (amax_x * sw / 2.0f + amax_w * sa / 2.0f + sa * sw / 4.0f) +
         1e-5f;
}

// --- per-layer error bounds ----------------------------------------------

struct LinearShape {
  std::size_t batch, in, out;
};

void PrintTo(const LinearShape& s, std::ostream* os) {
  *os << "b" << s.batch << "_in" << s.in << "_out" << s.out;
}

class QuantLinearShapes : public ::testing::TestWithParam<LinearShape> {};

TEST_P(QuantLinearShapes, MatchesFloatWithinAnalyticBound) {
  const auto [batch, in, out] = GetParam();
  Rng rng(in * 131 + out * 17);
  nn::Sequential model;
  model.emplace<nn::Linear>(in, out, rng);
  Tensor x({batch, in});
  fill_uniform(x, rng, -1.0f, 1.0f);

  nn::Sequential qmodel = quant::quantize(model, x);
  const Tensor yf = model.forward(x, nn::Mode::Infer);
  const Tensor yq = qmodel.forward(x, nn::Mode::Infer);

  const auto& lin = dynamic_cast<const nn::Linear&>(model.layer(0));
  const float bound = analytic_bound(in, max_abs(x), max_abs(lin.weight()));
  EXPECT_LE(max_abs_diff(yf, yq), bound);

  if (gemm_int8_exact()) {
    // Rounding errors do not conspire: the observed error sits far below
    // the triangle-inequality bound on every exact build.
    EXPECT_LE(max_abs_diff(yf, yq), bound / 4.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QuantLinearShapes,
    ::testing::Values(LinearShape{1, 7, 5},        // sub-tile
                      LinearShape{9, 64, 10},      // ragged rows
                      LinearShape{4, 3136, 10},    // classifier fc head
                      LinearShape{3, 257, 33}));   // all edges ragged

struct ConvShape {
  std::size_t batch, in_c, out_c, kernel, hw;
};

void PrintTo(const ConvShape& s, std::ostream* os) {
  *os << "b" << s.batch << "_c" << s.in_c << "o" << s.out_c << "k" << s.kernel
      << "_hw" << s.hw;
}

class QuantConvShapes : public ::testing::TestWithParam<ConvShape> {};

TEST_P(QuantConvShapes, MatchesFloatWithinAnalyticBound) {
  const auto [batch, in_c, out_c, kernel, hw] = GetParam();
  Rng rng(in_c * 7 + out_c * 311 + kernel + hw);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(nn::Conv2d::same(in_c, out_c, kernel), rng);
  Tensor x({batch, in_c, hw, hw});
  fill_uniform(x, rng, 0.0f, 1.0f);

  nn::Sequential qmodel = quant::quantize(model, x);
  const Tensor yf = model.forward(x, nn::Mode::Infer);
  const Tensor yq = qmodel.forward(x, nn::Mode::Infer);

  const auto& conv = dynamic_cast<const nn::Conv2d&>(model.layer(0));
  const float bound = analytic_bound(in_c * kernel * kernel, max_abs(x),
                                     max_abs(conv.weight()));
  EXPECT_LE(max_abs_diff(yf, yq), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QuantConvShapes,
    ::testing::Values(ConvShape{2, 1, 16, 3, 28},   // classifier conv1
                      ConvShape{2, 16, 32, 3, 14},  // classifier conv2
                      ConvShape{2, 1, 3, 3, 28},    // autoencoder in
                      ConvShape{2, 3, 3, 3, 28},    // autoencoder hidden
                      ConvShape{2, 3, 1, 3, 28},    // autoencoder out
                      ConvShape{1, 2, 5, 5, 11}));  // 5x5 kernel, odd hw

// The end-to-end drift the serving A/B reports: a conv+pool+fc stack's
// logits move by less than 0.05 under quantization (exact kernels only —
// deterministic, so this is a regression pin, not a flaky tolerance).
TEST(QuantModel, LogitDriftSmallOnExactKernels) {
  if (!gemm_int8_exact()) GTEST_SKIP() << "saturating int8 kernel";
  Rng rng(10);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(nn::Conv2d::same(1, 16), rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::MaxPool2d>(2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(16 * 14 * 14, 10, rng);
  Tensor x({16, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);

  nn::Sequential qmodel = quant::quantize(model, x);
  const Tensor yf = model.forward(x, nn::Mode::Infer);
  const Tensor yq = qmodel.forward(x, nn::Mode::Infer);
  EXPECT_LE(max_abs_diff(yf, yq), 0.05f);
}

// --- determinism ----------------------------------------------------------

TEST(QuantDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  Rng rng(21);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(nn::Conv2d::same(1, 16), rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::MaxPool2d>(2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(16 * 14 * 14, 10, rng);
  Tensor x({8, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);
  nn::Sequential qmodel = quant::quantize(model, x);

  ThreadPool pool1(1), pool4(4);
  quant::set_pool(qmodel, &pool1);
  const Tensor y1 = qmodel.forward(x, nn::Mode::Infer);
  quant::set_pool(qmodel, &pool4);
  const Tensor y4 = qmodel.forward(x, nn::Mode::Infer);
  quant::set_pool(qmodel, nullptr);

  ASSERT_EQ(y1.shape(), y4.shape());
  EXPECT_EQ(0, std::memcmp(y1.data(), y4.data(),
                           y1.numel() * sizeof(float)));
}

TEST(QuantDeterminism, RepeatedForwardsAreBitwiseStable) {
  Rng rng(22);
  nn::Sequential model;
  model.emplace<nn::Linear>(50, 20, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Linear>(20, 4, rng);
  Tensor x({5, 50});
  fill_uniform(x, rng, -1.0f, 1.0f);
  nn::Sequential qmodel = quant::quantize(model, x);
  const Tensor y0 = qmodel.forward(x, nn::Mode::Infer);
  const Tensor y1 = qmodel.forward(x, nn::Mode::Infer);
  EXPECT_EQ(0, std::memcmp(y0.data(), y1.data(),
                           y0.numel() * sizeof(float)));
}

// --- contract -------------------------------------------------------------

TEST(QuantContract, InferenceOnly) {
  Rng rng(23);
  nn::Sequential model;
  model.emplace<nn::Linear>(8, 4, rng);
  Tensor x({2, 8});
  fill_uniform(x, rng, -1.0f, 1.0f);
  nn::Sequential qmodel = quant::quantize(model, x);
  EXPECT_THROW(qmodel.forward(x, nn::Mode::Train), std::runtime_error);
  EXPECT_THROW(qmodel.layer(0).backward(x), std::runtime_error);
}

TEST(QuantContract, EmptyCalibrationRejected) {
  Rng rng(24);
  nn::Sequential model;
  model.emplace<nn::Linear>(8, 4, rng);
  EXPECT_THROW(quant::quantize(model, Tensor()), std::invalid_argument);
}

TEST(QuantContract, IsQuantizedDetectsQuantLayers) {
  Rng rng(25);
  nn::Sequential model;
  model.emplace<nn::Linear>(8, 4, rng);
  EXPECT_FALSE(quant::is_quantized(model));
  Tensor x({2, 8});
  fill_uniform(x, rng, -1.0f, 1.0f);
  nn::Sequential qmodel = quant::quantize(model, x);
  EXPECT_TRUE(quant::is_quantized(qmodel));
}

// --- serialization --------------------------------------------------------

class QuantSerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("quant_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(QuantSerializeTest, RoundTripIsBitwiseIdentical) {
  Rng rng(26);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(nn::Conv2d::same(1, 4), rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(4 * 10 * 10, 6, rng);
  Tensor x({3, 1, 10, 10});
  fill_uniform(x, rng, 0.0f, 1.0f);

  nn::Sequential qmodel = quant::quantize(model, x);
  const Tensor y_before = qmodel.forward(x, nn::Mode::Infer);
  quant::save_quantized(dir_ / "q.bin", qmodel);

  // A second clone of the same architecture, deliberately calibrated on
  // DIFFERENT data, must reproduce the saved forward bitwise after load.
  Tensor other = x;
  for (std::size_t i = 0; i < other.numel(); ++i) other[i] *= 0.5f;
  nn::Sequential loaded = quant::quantize(model, other);
  quant::load_quantized(dir_ / "q.bin", loaded);
  const Tensor y_after = loaded.forward(x, nn::Mode::Infer);

  ASSERT_EQ(y_before.shape(), y_after.shape());
  EXPECT_EQ(0, std::memcmp(y_before.data(), y_after.data(),
                           y_before.numel() * sizeof(float)));
}

TEST_F(QuantSerializeTest, ArchitectureMismatchThrows) {
  Rng rng(27);
  nn::Sequential model;
  model.emplace<nn::Linear>(8, 4, rng);
  Tensor x({2, 8});
  fill_uniform(x, rng, -1.0f, 1.0f);
  nn::Sequential qmodel = quant::quantize(model, x);
  quant::save_quantized(dir_ / "q.bin", qmodel);

  nn::Sequential wrong;
  wrong.emplace<nn::Linear>(8, 5, rng);
  Tensor xw({2, 8});
  fill_uniform(xw, rng, -1.0f, 1.0f);
  nn::Sequential qwrong = quant::quantize(wrong, xw);
  EXPECT_THROW(quant::load_quantized(dir_ / "q.bin", qwrong),
               std::runtime_error);
}

TEST_F(QuantSerializeTest, CorruptedFileRejectedByChecksum) {
  Rng rng(28);
  nn::Sequential model;
  model.emplace<nn::Linear>(16, 4, rng);
  Tensor x({2, 16});
  fill_uniform(x, rng, -1.0f, 1.0f);
  nn::Sequential qmodel = quant::quantize(model, x);
  const auto path = dir_ / "q.bin";
  quant::save_quantized(path, qmodel);

  // Flip one payload byte near the end; the CRC'd tensor format must
  // refuse the file instead of loading skewed weights.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(-9, std::ios::end);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-9, std::ios::end);
  byte = static_cast<char>(byte ^ 0x5A);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(quant::load_quantized(path, qmodel), std::exception);
}

}  // namespace
}  // namespace adv
