// graybox_attack: the threat-model contrast the paper draws in §I.
//
// Carlini & Wagner (arXiv:1711.08478, ref [20]) bypass MagNet with a
// GRAY-BOX attack: the attacker knows an auto-encoder reformer is
// deployed (though not the defender's exact weights) and differentiates
// through a surrogate reformer + classifier composition. The reproduced
// paper's point is that such knowledge is NOT needed — oblivious EAD
// suffices. This example implements the gray-box baseline and compares:
//
//   1. oblivious C&W-L2 (crafted on the plain classifier)
//   2. oblivious EAD-L1 (crafted on the plain classifier)
//   3. gray-box C&W-L2 (crafted through surrogate reformer + classifier)
//
// reproducing the paper's conclusion: EAD reaches gray-box-level attack
// success while needing a strictly weaker threat model.
#include <cstdio>

#include "core/evaluation.hpp"
#include "core/magnet_factory.hpp"
#include "core/model_zoo.hpp"
#include "magnet/autoencoder.hpp"
#include "nn/trainer.hpp"

int main() {
  using namespace adv;

  core::ScaleConfig cfg = core::scale_from_env();
  cfg.full = false;
  cfg.train_count = 1500;
  cfg.val_count = 300;
  cfg.test_count = 500;
  cfg.attack_count = 40;
  cfg.attack_iterations = 80;
  cfg.binary_search_steps = 3;
  cfg.cache_dir = cfg.cache_dir / "graybox";
  core::ModelZoo zoo(cfg);
  const auto id = core::DatasetId::Mnist;
  const float kappa = 10.0f;

  auto classifier = zoo.classifier(id);
  auto pipe = core::build_magnet(zoo, id, core::MagnetVariant::Default);
  const auto& aset = zoo.attack_set(id);

  // Oblivious attacks: crafted on the undefended classifier only.
  const attacks::AttackResult cw = zoo.cw(id, kappa);
  const attacks::AttackResult ead =
      zoo.ead(id, 0.1f, kappa, attacks::DecisionRule::EN);

  // Gray-box attack: the attacker trains its OWN surrogate auto-encoder
  // (knows the defense family, not the defender's weights) and points
  // C&W-L2 at a GrayBoxTarget — the attack differentiates through the
  // surrogate-reformer -> classifier composition without fusing the
  // models (attacks/target.hpp; the defender keeps its own instances).
  magnet::AutoencoderConfig ac;
  ac.arch = magnet::AeArch::MnistDeep;
  ac.image_channels = 1;
  ac.filters = cfg.default_filters(id);
  ac.epochs = cfg.ae_epochs;
  ac.seed = 4242;  // different seed: surrogate != defender's AE
  auto surrogate =
      magnet::train_autoencoder(ac, zoo.dataset(id).train.images);

  attacks::GrayBoxTarget target(*surrogate, *classifier,
                                "_tmgray_surrogate");
  attacks::EadConfig gb;
  gb.kappa = kappa;
  gb.iterations = cfg.attack_iterations;
  gb.binary_search_steps = cfg.binary_search_steps;
  gb.initial_c = 1.0f;
  const attacks::AttackResult graybox =
      attacks::CwL2Attack(gb).run(target, aset.images, aset.labels);

  const auto scheme = magnet::DefenseScheme::Full;
  const auto e_cw =
      core::evaluate_defense(*pipe, cw.adversarial, aset.labels, scheme);
  const auto e_ead =
      core::evaluate_defense(*pipe, ead.adversarial, aset.labels, scheme);
  const auto e_gb =
      core::evaluate_defense(*pipe, graybox.adversarial, aset.labels, scheme);

  std::printf("\nMagNet accuracy against each attack (kappa=%g):\n",
              static_cast<double>(kappa));
  std::printf("  oblivious C&W-L2  : %5.1f%%  (threat model: none)\n",
              100.0 * e_cw.accuracy);
  std::printf("  oblivious EAD-L1  : %5.1f%%  (threat model: none)\n",
              100.0 * e_ead.accuracy);
  std::printf("  gray-box C&W-L2   : %5.1f%%  (threat model: knows the "
              "defense family)\n",
              100.0 * e_gb.accuracy);
  std::printf(
      "\nCompare the rows: oblivious EAD attains attack success comparable\n"
      "to (here, better than) the gray-box attack while assuming strictly\n"
      "less knowledge — the paper's 'substantially weaker threat model'\n"
      "claim. (The plain gray-box C&W pays for routing its gradient through\n"
      "a surrogate reformer: the perturbations grow and the detectors fire;\n"
      "Carlini & Wagner's full attack also handles the detectors "
      "explicitly.)\n");
  return 0;
}
