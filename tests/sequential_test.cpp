// Sequential model tests: composition, end-to-end input gradients (the
// attack path), and weight serialization.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/structural.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::nn {
namespace {

Sequential tiny_cnn(Rng& rng) {
  Sequential m;
  m.emplace<Conv2d>(Conv2d::same(1, 2), rng);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Flatten>();
  m.emplace<Linear>(2 * 3 * 3, 4, rng);
  return m;
}

TEST(Sequential, ForwardShapesCompose) {
  Rng rng(1);
  Sequential m = tiny_cnn(rng);
  Tensor x({5, 1, 6, 6});
  Tensor y = m.forward(x, nn::Mode::Eval);
  EXPECT_EQ(y.shape(), Shape({5, 4}));
}

TEST(Sequential, ParameterAndGradientAlignment) {
  Rng rng(2);
  Sequential m = tiny_cnn(rng);
  const auto params = m.parameters();
  const auto grads = m.gradients();
  ASSERT_EQ(params.size(), grads.size());
  ASSERT_EQ(params.size(), 4u);  // conv W/b + linear W/b
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i]->shape(), grads[i]->shape());
  }
  EXPECT_EQ(m.parameter_count(),
            2 * 9 + 2 + (2 * 3 * 3) * 4 + 4);
}

TEST(Sequential, InputGradientMatchesNumericDifference) {
  // This is the exact differentiation path every attack uses.
  Rng rng(3);
  Sequential m = tiny_cnn(rng);
  Tensor x({1, 1, 6, 6});
  fill_uniform(x, rng, 0.1f, 0.9f);
  Tensor w({1, 4});
  fill_uniform(w, rng, -1.0f, 1.0f);

  m.forward(x, nn::Mode::Eval);
  const Tensor dx = m.backward(w);
  ASSERT_EQ(dx.shape(), x.shape());

  auto objective = [&](const Tensor& probe) {
    const Tensor y = m.forward(probe, nn::Mode::Eval);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(w[i]) * y[i];
    }
    return acc;
  };
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.numel(); i += 5) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (objective(xp) - objective(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], num, 2e-2f) << "input grad mismatch at " << i;
  }
}

TEST(Sequential, ConvActivationFusionIsBitwiseInvisible) {
  // The Conv->ReLU / Conv->Sigmoid peephole (fused epilogue) must be
  // bitwise invisible: forward outputs, the attack-path input gradient,
  // and every parameter gradient are identical with fusion on and off.
  auto build = [](bool fused) {
    Rng rng(41);
    Sequential m;
    m.emplace<Conv2d>(Conv2d::same(1, 4), rng);
    m.emplace<ReLU>();
    m.emplace<Conv2d>(Conv2d::same(4, 2), rng);
    m.emplace<Sigmoid>();
    m.emplace<Flatten>();
    m.emplace<Linear>(2 * 6 * 6, 3, rng);
    m.set_fusion_enabled(fused);
    return m;
  };
  Sequential on = build(true);
  Sequential off = build(false);
  Rng rng(42);
  Tensor x({3, 1, 6, 6});
  fill_uniform(x, rng, 0.0f, 1.0f);
  Tensor seed({3, 3});
  fill_uniform(seed, rng, -1.0f, 1.0f);

  for (const Mode mode : {Mode::Train, Mode::Eval}) {
    const Tensor y_on = on.forward(x, mode);
    const Tensor y_off = off.forward(x, mode);
    ASSERT_EQ(y_on.shape(), y_off.shape());
    ASSERT_EQ(0, std::memcmp(y_on.data(), y_off.data(),
                             y_on.numel() * sizeof(float)));
    const Tensor dx_on = on.backward(seed);
    const Tensor dx_off = off.backward(seed);
    ASSERT_EQ(0, std::memcmp(dx_on.data(), dx_off.data(),
                             dx_on.numel() * sizeof(float)));
    const auto g_on = on.gradients();
    const auto g_off = off.gradients();
    ASSERT_EQ(g_on.size(), g_off.size());
    for (std::size_t i = 0; i < g_on.size(); ++i) {
      ASSERT_EQ(0, std::memcmp(g_on[i]->data(), g_off[i]->data(),
                               g_on[i]->numel() * sizeof(float)))
          << "parameter gradient " << i;
    }
    on.zero_grad();
    off.zero_grad();
  }

  // Infer-mode forward (no caches) must agree too — this is the serving
  // path, where the fused epilogue matters most.
  const Tensor yi_on = on.forward(x, Mode::Infer);
  const Tensor yi_off = off.forward(x, Mode::Infer);
  ASSERT_EQ(0, std::memcmp(yi_on.data(), yi_off.data(),
                           yi_on.numel() * sizeof(float)));
}

TEST(Sequential, ZeroGradResetsAllLayers) {
  Rng rng(4);
  Sequential m = tiny_cnn(rng);
  Tensor x({2, 1, 6, 6}, 0.5f);
  m.forward(x, nn::Mode::Eval);
  m.backward(Tensor({2, 4}, 1.0f));
  m.zero_grad();
  for (Tensor* g : m.gradients()) {
    for (float v : g->values()) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Sequential, AppendComposesModels) {
  Rng rng(9);
  // Identity-ish front (1x1 conv) + linear head, composed via append.
  Sequential front;
  front.emplace<Conv2d>(Conv2dConfig{1, 1, 1, 1, 0}, rng);
  front.parameters()[0]->fill(2.0f);  // doubles every pixel
  front.parameters()[1]->fill(0.0f);
  Sequential head;
  head.emplace<Flatten>();
  auto& lin = head.emplace<Linear>(4, 2, rng);
  *lin.parameters()[0] =
      Tensor::from_data(Shape({4, 2}), {1, 0, 1, 0, 0, 1, 0, 1});
  lin.parameters()[1]->fill(0.0f);

  const std::size_t head_layers = head.size();
  front.append(std::move(head));
  EXPECT_EQ(front.size(), 1 + head_layers);
  EXPECT_EQ(head.size(), 0u);

  Tensor x = Tensor::from_data(Shape({1, 1, 2, 2}), {1, 2, 3, 4});
  const Tensor y = front.forward(x, nn::Mode::Eval);
  // Doubled pixels {2,4,6,8}; W rows (per input pixel): {1,0},{1,0},
  // {0,1},{0,1} -> logits = (2+4, 6+8).
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 14.0f);

  // Backward flows through the composition down to the input:
  // d y0 / d x = 2 (conv gain) * W[:,0] = {2,2,0,0}.
  const Tensor g = front.backward(Tensor::from_data(Shape({1, 2}), {1, 0}));
  EXPECT_FLOAT_EQ(g[0], 2.0f);
  EXPECT_FLOAT_EQ(g[1], 2.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
  EXPECT_FLOAT_EQ(g[3], 0.0f);
}

class SequentialIo : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test dir: ctest runs each test in its own process, so a shared
    // path would let one test's TearDown remove_all another's files.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("adv_seq_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(SequentialIo, SaveLoadRoundTripsPredictions) {
  Rng rng(5);
  Sequential m1 = tiny_cnn(rng);
  const auto path = dir_ / "weights.bin";
  m1.save(path);

  Rng rng2(999);  // different init; load must overwrite it
  Sequential m2 = tiny_cnn(rng2);
  m2.load(path);

  Tensor x({3, 1, 6, 6});
  Rng xr(6);
  fill_uniform(x, xr, 0.0f, 1.0f);
  const Tensor y1 = m1.forward(x, nn::Mode::Eval);
  const Tensor y2 = m2.forward(x, nn::Mode::Eval);
  for (std::size_t i = 0; i < y1.numel(); ++i) {
    EXPECT_FLOAT_EQ(y1[i], y2[i]);
  }
}

TEST_F(SequentialIo, LoadRejectsWrongArchitecture) {
  Rng rng(7);
  Sequential m1 = tiny_cnn(rng);
  const auto path = dir_ / "weights.bin";
  m1.save(path);

  Sequential other;
  other.emplace<Linear>(4, 4, rng);
  EXPECT_THROW(other.load(path), std::runtime_error);

  // Same parameter count structure but different shapes must also fail.
  Sequential shapes;
  shapes.emplace<Conv2d>(Conv2d::same(1, 3), rng);
  shapes.emplace<Flatten>();
  shapes.emplace<Linear>(3, 2, rng);
  EXPECT_THROW(shapes.load(path), std::runtime_error);
}

TEST_F(SequentialIo, LoadMissingFileThrows) {
  Rng rng(8);
  Sequential m = tiny_cnn(rng);
  EXPECT_THROW(m.load(dir_ / "missing.bin"), std::runtime_error);
}

}  // namespace
}  // namespace adv::nn
