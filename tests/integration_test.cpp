// End-to-end integration tests at a micro scale: the full zoo -> train ->
// attack -> defend flow, plus cache round trips and determinism.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/evaluation.hpp"
#include "core/magnet_factory.hpp"
#include "core/model_zoo.hpp"
#include "nn/trainer.hpp"

namespace adv::core {
namespace {

// Per-test root: ctest runs each test as its own process, and a shared
// root would let one test's TearDown remove_all race another's writes.
std::filesystem::path integration_root() {
  return std::filesystem::temp_directory_path() /
         (std::string("adv_integration_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

ScaleConfig micro_config(const std::string& subdir) {
  ScaleConfig cfg;
  cfg.full = false;
  cfg.train_count = 1000;
  cfg.val_count = 100;
  cfg.test_count = 150;
  cfg.classifier_epochs = 8;
  cfg.ae_epochs = 20;
  cfg.attack_count = 12;
  cfg.attack_iterations = 40;
  cfg.binary_search_steps = 2;
  cfg.initial_c = 1.0f;
  cfg.mnist_kappas = {0.0f};
  cfg.cifar_kappas = {0.0f};
  cfg.cache_dir = integration_root() / subdir;
  return cfg;
}

class IntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove_all(integration_root()); }
};

TEST_F(IntegrationTest, MnistPipelineEndToEnd) {
  ModelZoo zoo(micro_config("mnist"));
  const auto mnist = DatasetId::Mnist;

  // Splits are disjoint and sized as configured.
  const auto& ds = zoo.dataset(mnist);
  EXPECT_EQ(ds.train.size(), 1000u);
  EXPECT_EQ(ds.val.size(), 100u);
  EXPECT_EQ(ds.test.size(), 150u);

  // The classifier learns the synthetic digits.
  const float acc = zoo.clean_test_accuracy(mnist);
  EXPECT_GT(acc, 0.85f);

  // MagNet keeps most of the clean accuracy.
  auto pipeline = build_magnet(zoo, mnist, MagnetVariant::Default);
  const float def_acc =
      pipeline->clean_accuracy(ds.test.images, ds.test.labels);
  EXPECT_GT(def_acc, acc - 0.15f);

  // So does its int8 twin (serve_daemon --quant), calibrated on the
  // first min(256, n) validation rows.
  const Tensor calib = quant_calibration(zoo, mnist);
  EXPECT_EQ(calib.dim(0), ds.val.size());
  const float int8_acc = pipeline->quantized(calib)->clean_accuracy(
      ds.test.images, ds.test.labels);
  EXPECT_NEAR(int8_acc, def_acc, 0.05f);

  // Attack set contains only correctly classified images.
  const auto& aset = zoo.attack_set(mnist);
  const auto pred = nn::predict_labels(*zoo.classifier(mnist), aset.images);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    EXPECT_EQ(pred[i], aset.labels[i]);
  }

  // EAD at kappa 0 succeeds on most of the attack set (undefended).
  const attacks::AttackResult ead =
      zoo.ead(mnist, 0.01f, 0.0f, attacks::DecisionRule::EN);
  EXPECT_GT(ead.success_rate(), 0.6f);

  // Defense evaluation returns coherent numbers.
  const DefenseEval e = evaluate_defense(*pipeline, ead.adversarial,
                                         aset.labels,
                                         magnet::DefenseScheme::Full);
  EXPECT_GE(e.accuracy, 0.0f);
  EXPECT_LE(e.accuracy, 1.0f);
  EXPECT_NEAR(e.asr, 1.0f - e.accuracy, 1e-6f);
  EXPECT_LE(e.detection_rate, 1.0f);
}

TEST_F(IntegrationTest, AttackCacheRoundTripsExactly) {
  const ScaleConfig cfg = micro_config("cache");
  attacks::AttackResult first;
  {
    ModelZoo zoo(cfg);
    first = zoo.cw(DatasetId::Mnist, 0.0f);
  }
  // A fresh zoo must load identical results from disk (no recompute drift).
  ModelZoo zoo2(cfg);
  const attacks::AttackResult second = zoo2.cw(DatasetId::Mnist, 0.0f);
  ASSERT_EQ(first.success, second.success);
  ASSERT_EQ(first.adversarial.shape(), second.adversarial.shape());
  for (std::size_t i = 0; i < first.adversarial.numel(); ++i) {
    EXPECT_FLOAT_EQ(first.adversarial[i], second.adversarial[i]);
  }
  for (std::size_t i = 0; i < first.l1.size(); ++i) {
    EXPECT_FLOAT_EQ(first.l1[i], second.l1[i]);
    EXPECT_FLOAT_EQ(first.l2[i], second.l2[i]);
  }
}

TEST_F(IntegrationTest, EadCachesBothDecisionRulesFromOneRun) {
  const ScaleConfig cfg = micro_config("rules");
  ModelZoo zoo(cfg);
  zoo.ead(DatasetId::Mnist, 0.01f, 0.0f, attacks::DecisionRule::EN);
  // The sibling rule must already be on disk.
  bool found_l1 = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(cfg.cache_dir)) {
    if (entry.path().filename().string().find("_L1") != std::string::npos) {
      found_l1 = true;
    }
  }
  EXPECT_TRUE(found_l1);
}

TEST_F(IntegrationTest, ClassifierCacheAvoidsRetraining) {
  const ScaleConfig cfg = micro_config("clfcache");
  Tensor logits1, logits2;
  {
    ModelZoo zoo(cfg);
    auto clf = zoo.classifier(DatasetId::Mnist);
    logits1 = clf->forward(zoo.dataset(DatasetId::Mnist).test.images
                               .slice_rows(0, 4),
                           nn::Mode::Eval);
  }
  {
    ModelZoo zoo(cfg);  // loads weights from cache
    auto clf = zoo.classifier(DatasetId::Mnist);
    logits2 = clf->forward(zoo.dataset(DatasetId::Mnist).test.images
                               .slice_rows(0, 4),
                           nn::Mode::Eval);
  }
  for (std::size_t i = 0; i < logits1.numel(); ++i) {
    EXPECT_FLOAT_EQ(logits1[i], logits2[i]);
  }
}

TEST_F(IntegrationTest, MagnetVariantsDiffer) {
  ModelZoo zoo(micro_config("variants"));
  const auto mnist = DatasetId::Mnist;
  auto d = build_magnet(zoo, mnist, MagnetVariant::Default);
  auto dj = build_magnet(zoo, mnist, MagnetVariant::Jsd);
  EXPECT_EQ(d->detector_count(), 2u);
  EXPECT_EQ(dj->detector_count(), 4u);
}

TEST_F(IntegrationTest, DatasetsAreDeterministicAcrossZoos) {
  const ScaleConfig cfg = micro_config("det");
  ModelZoo a(cfg), b(cfg);
  const auto& da = a.dataset(DatasetId::Mnist);
  const auto& db = b.dataset(DatasetId::Mnist);
  EXPECT_EQ(da.train.labels, db.train.labels);
  for (std::size_t i = 0; i < da.train.images.numel(); i += 97) {
    EXPECT_FLOAT_EQ(da.train.images[i], db.train.images[i]);
  }
}

}  // namespace
}  // namespace adv::core
