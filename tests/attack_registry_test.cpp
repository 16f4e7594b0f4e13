// Attack registry: by-name construction, override plumbing, and
// bit-identical AttackResults between registry-built attacks and attacks
// constructed directly from their config on a fixed-seed smoke batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "attack_test_util.hpp"
#include "attacks/attack.hpp"
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

/// Fixed-seed smoke batch: two class-0 images at different distances from
/// the decision boundary.
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

TEST(AttackRegistry, ListsAllBuiltins) {
  const auto names = AttackRegistry::instance().names();
  for (const char* expected : {"fgsm", "ifgsm", "cw-l2", "deepfool", "ead"}) {
    EXPECT_TRUE(AttackRegistry::instance().contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
  }
}

TEST(AttackRegistry, UnknownNameThrowsAndListsRegistered) {
  try {
    make_attack("pgd");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("pgd"), std::string::npos);
    EXPECT_NE(msg.find("ead"), std::string::npos);  // lists what exists
  }
}

TEST(AttackRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(AttackRegistry::instance().add(
                   "fgsm", {}, [](const AttackOverrides&) {
                     return std::make_unique<FgsmAttack>();
                   }),
               std::invalid_argument);
}

TEST(AttackRegistry, FgsmMatchesConfigBuiltAttack) {
  nn::Sequential m = linear_model();
  FgsmConfig cfg;
  cfg.epsilon = 0.25f;
  const AttackResult direct =
      run_oblivious(FgsmAttack(cfg), m, smoke_batch(), kLabels);

  const auto attack = make_attack("fgsm", {.epsilon = 0.25f});
  EXPECT_EQ(attack->name(), "fgsm");
  expect_identical(run_oblivious(*attack, m, smoke_batch(), kLabels), direct);
}

TEST(AttackRegistry, IfgsmIsMultiStepFgsm) {
  nn::Sequential m = linear_model();
  FgsmConfig cfg;
  cfg.epsilon = 0.25f;
  cfg.iterations = 10;
  const AttackResult direct =
      run_oblivious(FgsmAttack(cfg), m, smoke_batch(), kLabels);

  const auto attack = make_attack("ifgsm", {.epsilon = 0.25f});
  expect_identical(run_oblivious(*attack, m, smoke_batch(), kLabels), direct);
}

TEST(AttackRegistry, CwL2MatchesConfigBuiltAttack) {
  nn::Sequential m = linear_model();
  EadConfig cfg;
  cfg.kappa = 1.0f;
  cfg.iterations = 60;
  cfg.binary_search_steps = 2;
  cfg.initial_c = 1.0f;
  const AttackResult direct =
      run_oblivious(CwL2Attack(cfg), m, smoke_batch(), kLabels);

  const auto attack = make_attack(
      "cw-l2", {.kappa = 1.0f,
                .initial_c = 1.0f,
                .iterations = 60,
                .binary_search_steps = 2});
  expect_identical(run_oblivious(*attack, m, smoke_batch(), kLabels), direct);
  EXPECT_TRUE(direct.success[0]);  // the comparison is not vacuous
}

TEST(AttackRegistry, DeepFoolMatchesConfigBuiltAttack) {
  nn::Sequential m = linear_model();
  const AttackResult direct =
      run_oblivious(DeepFoolAttack(), m, smoke_batch(), kLabels);

  const auto attack = make_attack("deepfool");
  expect_identical(run_oblivious(*attack, m, smoke_batch(), kLabels), direct);
}

TEST(AttackRegistry, EadMatchesConfigBuiltAttack) {
  nn::Sequential m = linear_model();
  EadConfig cfg;
  cfg.beta = 0.01f;
  cfg.kappa = 1.0f;
  cfg.iterations = 60;
  cfg.binary_search_steps = 2;
  cfg.initial_c = 1.0f;
  cfg.rule = DecisionRule::L1;
  const AttackResult direct =
      run_oblivious(EadAttack(cfg), m, smoke_batch(), kLabels);

  const auto attack = make_attack(
      "ead", {.kappa = 1.0f,
              .beta = 0.01f,
              .initial_c = 1.0f,
              .iterations = 60,
              .binary_search_steps = 2,
              .rule = DecisionRule::L1});
  expect_identical(run_oblivious(*attack, m, smoke_batch(), kLabels), direct);
  EXPECT_TRUE(direct.success[0]);
}

TEST(AttackRegistry, OverridesReachTheConfig) {
  const auto base = make_attack("ead");
  const auto& base_cfg = dynamic_cast<const EadAttack&>(*base).config();
  const auto tuned = make_attack(
      "ead", {.kappa = 7.0f, .beta = 0.5f, .rule = DecisionRule::EN});
  const auto& cfg = dynamic_cast<const EadAttack&>(*tuned).config();
  EXPECT_FLOAT_EQ(cfg.kappa, 7.0f);
  EXPECT_FLOAT_EQ(cfg.beta, 0.5f);
  EXPECT_EQ(cfg.rule, DecisionRule::EN);
  // Untouched knobs keep the attack's own defaults.
  EXPECT_EQ(cfg.iterations, base_cfg.iterations);
}

TEST(AttackRegistry, TagsDistinguishConfigurations) {
  const auto a = make_attack("ead", {.kappa = 1.0f});
  const auto b = make_attack("ead", {.kappa = 2.0f});
  const auto c = make_attack("cw-l2", {.kappa = 1.0f});
  EXPECT_NE(a->tag(), b->tag());
  EXPECT_NE(a->tag(), c->tag());
  // Same configuration => same tag (caching depends on it).
  EXPECT_EQ(a->tag(), make_attack("ead", {.kappa = 1.0f})->tag());
}

TEST(AttackRegistry, OutOfTreeAttackCanRegister) {
  // A throwaway attack under a unique name: registry extension point.
  class NullAttack final : public Attack {
   public:
    std::string name() const override { return "null"; }
    std::string tag() const override { return "null"; }

   protected:
    AttackResult run_impl(AttackTarget&, const Tensor& images,
                          const std::vector<int>& labels) const override {
      AttackResult r;
      r.adversarial = images;
      r.success.assign(labels.size(), false);
      fill_distortions(r, images);
      return r;
    }
  };
  auto& reg = AttackRegistry::instance();
  ASSERT_FALSE(reg.contains("null"));
  reg.add("null", {}, [](const AttackOverrides&) {
    return std::make_unique<NullAttack>();
  });
  nn::Sequential m = linear_model();
  const auto r = run_oblivious(*make_attack("null"), m, smoke_batch(), kLabels);
  EXPECT_EQ(r.success_count(), 0u);
}

// --- strict overrides --------------------------------------------------
//
// Builtin registrations declare which AttackOverrides fields the attack
// consumes; create() rejects anything else instead of silently ignoring
// it (the failure mode: a sweep "varying" epsilon against cw-l2 would
// otherwise run the same attack N times).

TEST(AttackRegistry, StrictOverridesRejectIrrelevantField) {
  try {
    make_attack("deepfool", {.epsilon = 0.1f});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("epsilon"), std::string::npos) << msg;  // the field
    EXPECT_NE(msg.find("deepfool"), std::string::npos) << msg;  // the attack
  }
}

TEST(AttackRegistry, StrictOverridesRejectEveryBuiltinMismatch) {
  // One irrelevant field per builtin.
  EXPECT_THROW(make_attack("fgsm", {.kappa = 1.0f}), std::invalid_argument);
  EXPECT_THROW(make_attack("ifgsm", {.beta = 0.1f}), std::invalid_argument);
  EXPECT_THROW(make_attack("cw-l2", {.epsilon = 0.1f}),
               std::invalid_argument);
  EXPECT_THROW(make_attack("deepfool", {.kappa = 1.0f}),
               std::invalid_argument);
  EXPECT_THROW(make_attack("ead", {.overshoot = 0.02f}),
               std::invalid_argument);
}

TEST(AttackRegistry, StrictOverridesAcceptRelevantFields) {
  EXPECT_NO_THROW(make_attack("fgsm", {.epsilon = 0.1f, .iterations = 5}));
  EXPECT_NO_THROW(make_attack(
      "cw-l2", {.kappa = 1.0f, .learning_rate = 0.01f, .initial_c = 0.1f,
                .iterations = 10, .binary_search_steps = 2}));
  EXPECT_NO_THROW(make_attack(
      "ead", {.kappa = 1.0f, .beta = 0.01f, .rule = DecisionRule::L1}));
  EXPECT_NO_THROW(make_attack("deepfool", {.overshoot = 0.02f}));
}

TEST(AttackRegistry, RejectedOverrideBumpsCounter) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& counter =
      obs::MetricsRegistry::global().counter("attack/overrides_rejected");
  const std::uint64_t before = counter.value();
  EXPECT_THROW(make_attack("fgsm", {.kappa = 5.0f}), std::invalid_argument);
  EXPECT_EQ(counter.value(), before + 1);
  obs::set_enabled(was_enabled);
}

TEST(AttackRegistry, EmptyFieldListRejectsEveryOverride) {
  // An out-of-tree attack registered with no relevant fields is strict
  // like the builtins: any override throws ("null" was added by the test
  // above; register a fallback if it ran in isolation).
  auto& reg = AttackRegistry::instance();
  if (!reg.contains("null")) {
    class NoopAttack final : public Attack {
     public:
      std::string name() const override { return "null"; }
      std::string tag() const override { return "null"; }

     protected:
      AttackResult run_impl(AttackTarget&, const Tensor& images,
                            const std::vector<int>& labels) const override {
        AttackResult r;
        r.adversarial = images;
        r.success.assign(labels.size(), false);
        fill_distortions(r, images);
        return r;
      }
    };
    reg.add("null", {}, [](const AttackOverrides&) {
      return std::make_unique<NoopAttack>();
    });
  }
  EXPECT_NO_THROW(make_attack("null"));
  EXPECT_THROW(make_attack("null", {.kappa = 3.0f}), std::invalid_argument);
}

}  // namespace
}  // namespace adv::attacks
