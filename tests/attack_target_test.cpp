// AttackTarget: the threat-model seam every attack runs against.
//
// The acceptance bar is bitwise: an ObliviousTarget's passes are exactly
// the bare classifier's forward/backward, and every registry attack run
// through one is reproducible to the last float (the cached-vs-fresh
// gate of the threat-model bench relies on it). On top of that,
// GrayBoxTarget must equal the fused-Sequential composition it replaces,
// and DetectorAwareTarget must sum its auxiliary terms and veto
// "success" on rows that fail to evade them.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "attack_test_util.hpp"
#include "attacks/attack.hpp"
#include "attacks/target.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "nn/structural.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {
namespace {

/// Same analyzable 2-class model the attack tests use: logit_0 =
/// s*(x0+x1), logit_1 = s*(x2+x3).
nn::Sequential linear_model(float s = 8.0f) {
  Rng rng(1);
  nn::Sequential m;
  m.emplace<nn::Flatten>();
  auto& lin = m.emplace<nn::Linear>(4, 2, rng);
  *lin.parameters()[0] =
      Tensor::from_data(Shape({4, 2}), {s, 0, s, 0, 0, s, 0, s});
  lin.parameters()[1]->fill(0.0f);
  return m;
}

Tensor smoke_batch() {
  return Tensor::from_data(Shape({2, 1, 2, 2}), {0.8f, 0.8f, 0.1f, 0.1f,  //
                                                 0.4f, 0.3f, 0.2f, 0.2f});
}

const std::vector<int> kLabels = {0, 0};

void expect_identical(const AttackResult& got, const AttackResult& want) {
  ASSERT_EQ(got.success, want.success);
  ASSERT_EQ(got.adversarial.shape(), want.adversarial.shape());
  for (std::size_t i = 0; i < got.adversarial.numel(); ++i) {
    ASSERT_EQ(got.adversarial[i], want.adversarial[i]) << "pixel " << i;
  }
  ASSERT_EQ(got.l1, want.l1);
  ASSERT_EQ(got.l2, want.l2);
  ASSERT_EQ(got.linf, want.linf);
}

/// Deterministic small AE / classifier pair; a fixed seed makes two
/// builds parameter-identical, so a fused copy can be compared bitwise.
nn::Sequential tiny_ae(unsigned seed = 11) {
  Rng rng(seed);
  nn::Sequential ae;
  ae.emplace<nn::Flatten>();
  ae.emplace<nn::Linear>(4, 6, rng);
  ae.emplace<nn::Tanh>();
  ae.emplace<nn::Linear>(6, 4, rng);
  ae.emplace<nn::Sigmoid>();
  return ae;
}

nn::Sequential tiny_clf(unsigned seed = 13) {
  Rng rng(seed);
  nn::Sequential clf;
  clf.emplace<nn::Linear>(4, 3, rng);
  return clf;
}

/// Synthetic aux term: per-row penalty `constant` with gradient
/// `weight[i] * slope` on every pixel — enough to observe summation and
/// weighting without any model in the loop.
class ConstantTerm final : public AuxObjective {
 public:
  ConstantTerm(float constant, float slope)
      : constant_(constant), slope_(slope) {}
  std::string name() const override { return "constant"; }
  std::vector<float> loss(const Tensor& batch) override {
    return std::vector<float>(batch.dim(0), constant_);
  }
  Tensor input_grad(const Tensor& batch,
                    const std::vector<float>& weight) override {
    Tensor g(batch.shape());
    const std::size_t row = batch.numel() / batch.dim(0);
    for (std::size_t i = 0; i < batch.dim(0); ++i) {
      for (std::size_t j = 0; j < row; ++j) {
        g[i * row + j] = weight[i] * slope_;
      }
    }
    return g;
  }

 private:
  float constant_;
  float slope_;
};

// --- oblivious identity ---------------------------------------------------

struct NamedOverrides {
  const char* name;
  AttackOverrides overrides;
};

const NamedOverrides kRegistryCases[] = {
    {"fgsm", {.epsilon = 0.25f}},
    {"ifgsm", {.epsilon = 0.1f, .iterations = 5}},
    {"cw-l2", {.kappa = 0.5f, .iterations = 30, .binary_search_steps = 3}},
    {"deepfool", {}},
    {"ead",
     {.kappa = 0.5f, .beta = 0.01f, .iterations = 30,
      .binary_search_steps = 3}},
};

TEST(AttackTarget, ObliviousPassesAreTheBareClassifiers) {
  nn::Sequential bare = linear_model();
  nn::Sequential wrapped = linear_model();
  ObliviousTarget target(wrapped);

  const Tensor x = smoke_batch();
  const Tensor z_bare = bare.forward(x, nn::Mode::Eval);
  const Tensor z_target = target.logits(x, nn::Mode::Eval);
  ASSERT_EQ(z_target.numel(), z_bare.numel());
  for (std::size_t i = 0; i < z_target.numel(); ++i) {
    ASSERT_EQ(z_target[i], z_bare[i]) << "logit " << i;
  }

  Tensor seed(z_bare.shape());
  Rng rng(19);
  fill_uniform(seed, rng, -1.0f, 1.0f);
  const Tensor g_bare = bare.backward(seed);
  const Tensor g_target = target.input_grad(x, seed);
  ASSERT_EQ(g_target.numel(), g_bare.numel());
  for (std::size_t i = 0; i < g_target.numel(); ++i) {
    ASSERT_EQ(g_target[i], g_bare[i]) << "grad " << i;
  }
}

TEST(AttackTarget, ObliviousRunsReproduceBitwiseForAllRegistryAttacks) {
  for (const auto& c : kRegistryCases) {
    SCOPED_TRACE(c.name);
    const auto attack = make_attack(c.name, c.overrides);
    nn::Sequential first_model = linear_model();
    nn::Sequential second_model = linear_model();
    expect_identical(
        run_oblivious(*attack, first_model, smoke_batch(), kLabels),
        run_oblivious(*attack, second_model, smoke_batch(), kLabels));
  }
}

TEST(AttackTarget, TagSuffixesKeepCacheKeysDisjoint) {
  nn::Sequential clf = linear_model();
  nn::Sequential ae = tiny_ae();
  ObliviousTarget obl(clf);
  GrayBoxTarget gray(ae, clf);
  DetectorAwareTarget det(&ae, clf,
                          {std::make_shared<ConstantTerm>(0.0f, 0.0f)});
  // Oblivious MUST stay empty: legacy cache keys carry no threat-model
  // marker and existing artifacts must keep resolving.
  EXPECT_EQ(obl.tag_suffix(), "");
  EXPECT_NE(gray.tag_suffix(), "");
  EXPECT_NE(det.tag_suffix(), "");
  EXPECT_NE(gray.tag_suffix(), det.tag_suffix());
}

// --- gray-box composition ---------------------------------------------

TEST(AttackTarget, GrayBoxEqualsFusedSequential) {
  nn::Sequential ae = tiny_ae();
  nn::Sequential clf = tiny_clf();
  GrayBoxTarget target(ae, clf);

  nn::Sequential fused = tiny_ae();
  fused.append(tiny_clf());

  const Tensor x = smoke_batch();
  const Tensor z_target = target.logits(x, nn::Mode::Eval);
  const Tensor z_fused = fused.forward(x, nn::Mode::Eval);
  ASSERT_EQ(z_target.numel(), z_fused.numel());
  for (std::size_t i = 0; i < z_target.numel(); ++i) {
    ASSERT_EQ(z_target[i], z_fused[i]) << "logit " << i;
  }

  Tensor seed(z_target.shape());
  Rng rng(17);
  fill_uniform(seed, rng, -1.0f, 1.0f);
  const Tensor g_target = target.input_grad(x, seed);
  const Tensor g_fused = fused.backward(seed);
  ASSERT_EQ(g_target.numel(), g_fused.numel());
  for (std::size_t i = 0; i < g_target.numel(); ++i) {
    ASSERT_EQ(g_target[i], g_fused[i]) << "grad " << i;
  }
}

// --- detector-aware aux semantics --------------------------------------

TEST(AttackTarget, DetectorAwareSumsAuxTerms) {
  nn::Sequential clf = linear_model();
  DetectorAwareTarget target(nullptr, clf,
                             {std::make_shared<ConstantTerm>(0.25f, 1.0f),
                              std::make_shared<ConstantTerm>(0.5f, 2.0f)});
  EXPECT_TRUE(target.has_aux());
  EXPECT_EQ(target.aux_count(), 2u);

  const Tensor x = smoke_batch();
  const std::vector<float> loss = target.aux_loss(x);
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_FLOAT_EQ(loss[0], 0.75f);
  EXPECT_FLOAT_EQ(loss[1], 0.75f);

  const std::vector<float> w = {1.0f, 0.5f};
  const Tensor g = target.aux_input_grad(x, w);
  ASSERT_EQ(g.numel(), x.numel());
  // Row 0: 1.0 * (1 + 2) = 3 per pixel; row 1: 0.5 * (1 + 2) = 1.5.
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(g[j], 3.0f) << "row 0 pixel " << j;
    EXPECT_FLOAT_EQ(g[4 + j], 1.5f) << "row 1 pixel " << j;
  }
}

TEST(AttackTarget, DetectorAwareNullAeUsesBareClassifier) {
  nn::Sequential clf = linear_model();
  nn::Sequential same = linear_model();
  DetectorAwareTarget target(nullptr, clf,
                             {std::make_shared<ConstantTerm>(0.0f, 0.0f)});
  const Tensor x = smoke_batch();
  const Tensor z = target.logits(x, nn::Mode::Infer);
  const Tensor z_bare = same.forward(x, nn::Mode::Infer);
  for (std::size_t i = 0; i < z.numel(); ++i) {
    ASSERT_EQ(z[i], z_bare[i]) << "logit " << i;
  }
}

TEST(AttackTarget, UnevadableAuxTermVetoesSuccess) {
  // A term that is always positive (and contributes no gradient) cannot
  // be evaded, so the detector-aware run must report zero successes even
  // though the hinge goal itself is reached.
  nn::Sequential clf = linear_model();
  ObliviousTarget plain(clf);
  FgsmConfig cfg;
  cfg.epsilon = 0.25f;
  const AttackResult unaware =
      FgsmAttack(cfg).run(plain, smoke_batch(), kLabels);
  ASSERT_GT(unaware.success_count(), 0u);  // sanity: the attack works

  DetectorAwareTarget aware(nullptr, clf,
                            {std::make_shared<ConstantTerm>(1.0f, 0.0f)});
  const AttackResult vetoed =
      FgsmAttack(cfg).run(aware, smoke_batch(), kLabels);
  EXPECT_EQ(vetoed.success_count(), 0u);
  // Failed rows fall back to the natural image.
  const Tensor x = smoke_batch();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(vetoed.adversarial[i], x[i]) << "pixel " << i;
  }
}

TEST(AttackTarget, AuxDefaultsThrowOnTargetsWithoutAux) {
  nn::Sequential clf = linear_model();
  ObliviousTarget target(clf);
  EXPECT_FALSE(target.has_aux());
  EXPECT_THROW(target.aux_loss(smoke_batch()), std::logic_error);
  EXPECT_THROW(target.aux_input_grad(smoke_batch(), {0.0f, 0.0f}),
               std::logic_error);
}

}  // namespace
}  // namespace adv::attacks
